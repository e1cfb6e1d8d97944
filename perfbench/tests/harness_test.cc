// Tests for the benchmark's own pieces: the percentile rule, open-loop
// timing, seed determinism and the atomic result write.
#include "harness.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

// --- percentile rule ------------------------------------------------------------

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_TRUE(TailSupported(5000, 0.99));
  EXPECT_FALSE(TailSupported(99, 0.9));
  EXPECT_TRUE(TailSupported(100, 0.9));
  EXPECT_FALSE(TailSupported(0, 0.5));
}

TEST(PercentileRule, SummaryOmitsAnUnsupportedP99) {
  std::vector<double> v(999);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  Summary s = Summarize(v);
  EXPECT_EQ(s.n, 999u);
  EXPECT_FALSE(s.has_p99);
  EXPECT_DOUBLE_EQ(s.p50, 499);

  v.push_back(999);
  s = Summarize(v);
  ASSERT_TRUE(s.has_p99);
  EXPECT_NEAR(s.p99, 989.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.q1, 249.75);
  EXPECT_DOUBLE_EQ(s.q3, 749.25);
}

TEST(PercentileRule, OrderOfSamplesDoesNotMatter) {
  std::vector<double> a = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Summarize(a).p50, 3);
  EXPECT_DOUBLE_EQ(QuantileSorted({1, 2, 3, 4}, 0.5), 2.5);
}

// --- open loop ------------------------------------------------------------------

TEST(OpenLoop, LatencyIsTimedFromTheScheduledSend) {
  // 10 kpps: packet k is due at 1'000'000 + 100'000 k ns.
  OpenLoopSchedule schedule(1'000'000, 10000);
  EXPECT_EQ(schedule.Due(0), 1'000'000);
  EXPECT_EQ(schedule.Due(3), 1'300'000);
  // A 1 ms stall: packet 3 goes out at 2.3 ms and returns at 2.35 ms. Its
  // latency counts the stall, not just the 50 µs flight.
  EXPECT_EQ(schedule.LatencyNs(3, 2'350'000), 1'050'000);
  // Packet 13 was due at 2.3 ms; sent with it, it shows only the flight.
  EXPECT_EQ(schedule.LatencyNs(13, 2'350'000), 50'000);
}

TEST(OpenLoop, DueByCountsPacketsDueSoFar) {
  OpenLoopSchedule schedule(1'000'000, 10000);
  EXPECT_EQ(schedule.DueBy(999'999), 0u);
  EXPECT_EQ(schedule.DueBy(1'000'000), 1u);
  EXPECT_EQ(schedule.DueBy(1'099'999), 1u);
  EXPECT_EQ(schedule.DueBy(1'100'000), 2u);
  // A late generator catches up: everything due by now is owed at once.
  EXPECT_EQ(schedule.DueBy(2'350'000), 14u);
  OpenLoopSchedule odd(7, 3);  // an interval that is not a whole ns
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(odd.DueBy(odd.Due(k)), k + 1) << k;
  }
}

TEST(OpenLoop, BurstsShareTheirDueTime) {
  // 32 kpps in bursts of 32: one burst per millisecond.
  OpenLoopSchedule schedule(0, 32000, 32);
  EXPECT_EQ(schedule.Due(0), 0);
  EXPECT_EQ(schedule.Due(31), 0);
  EXPECT_EQ(schedule.Due(32), 1'000'000);
  EXPECT_EQ(schedule.DueBy(0), 32u);
  EXPECT_EQ(schedule.DueBy(999'999), 32u);
  EXPECT_EQ(schedule.DueBy(1'000'000), 64u);
  // The last packet of a late burst is timed from the burst's due time.
  EXPECT_EQ(schedule.LatencyNs(63, 1'200'000), 200'000);
}

// --- seed determinism -------------------------------------------------------------

TEST(SeedDeterminism, SameSeedGivesTheSameFramesAndSequence) {
  auto a = MakeFlowFrames(7, 1024, 0.2, 4);
  auto b = MakeFlowFrames(7, 1024, 0.2, 4);
  ASSERT_EQ(a.size(), 1024u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].in_port, b[i].in_port);
  }
  IndexSequence s1(7, 1024), s2(7, 1024);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(s1.Next(), s2.Next());
}

TEST(SeedDeterminism, AnotherSeedGivesOtherInputs) {
  auto a = MakeFlowFrames(7, 64, 0.2, 4);
  auto b = MakeFlowFrames(8, 64, 0.2, 4);
  size_t same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += a[i].bytes == b[i].bytes;
  EXPECT_LT(same, a.size());
  IndexSequence s1(7, 1024), s2(8, 1024);
  size_t equal = 0;
  for (int i = 0; i < 1000; ++i) equal += s1.Next() == s2.Next();
  EXPECT_LT(equal, 20u);
}

TEST(SeedDeterminism, FlowMixMatchesTheWorkload) {
  auto frames = MakeFlowFrames(3, 1024, 0.2, kInPorts);
  size_t v6 = 0, min_size = 0;
  for (const FlowFrame& f : frames) {
    EXPECT_LT(f.in_port, kInPorts);
    v6 += f.bytes[12] == 0x86 && f.bytes[13] == 0xDD;
    min_size += f.bytes.size() == 64;
  }
  EXPECT_GT(v6, 150u);  // ~20% of 1024
  EXPECT_LT(v6, 260u);
  EXPECT_GT(min_size, 0u);  // IPv4/UDP flows are 64-byte frames
}

TEST(SeedDeterminism, SameSeedGivesTheSameChurnOps) {
  ChurnPlanner a(11, 4096), b(11, 4096);
  for (uint32_t r = 0; r < 4096; ++r) {
    ASSERT_EQ(a.InitialNexthop(r), b.InitialNexthop(r));
  }
  for (int w = 0; w < 50; ++w) {
    auto x = a.NextWindow(256), y = b.NextWindow(256);
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].kind, y[i].kind);
      EXPECT_EQ(x[i].route, y[i].route);
      EXPECT_EQ(x[i].nexthop, y[i].nexthop);
    }
  }
}

TEST(SeedDeterminism, ChurnOpsAlwaysApplyCleanly) {
  // Mirror the FIB: a delete needs a live route, an add a deleted one, and a
  // modify must move the route to another egress port.
  ChurnPlanner planner(5, 2048);
  std::vector<uint16_t> fib(2048);
  for (uint32_t r = 0; r < fib.size(); ++r) fib[r] = planner.InitialNexthop(r);
  size_t kinds[3] = {0, 0, 0};
  for (int w = 0; w < 200; ++w) {
    std::vector<uint32_t> seen;
    for (const ChurnOp& op : planner.NextWindow(64)) {
      ASSERT_EQ(std::count(seen.begin(), seen.end(), op.route), 0);
      seen.push_back(op.route);
      ++kinds[static_cast<int>(op.kind)];
      switch (op.kind) {
        case ChurnOp::Kind::kModify:
          ASSERT_NE(fib[op.route], 0);
          ASSERT_NE(op.nexthop % 8, fib[op.route] % 8);
          fib[op.route] = op.nexthop;
          break;
        case ChurnOp::Kind::kDelete:
          ASSERT_NE(fib[op.route], 0);
          fib[op.route] = 0;
          break;
        case ChurnOp::Kind::kAdd:
          ASSERT_EQ(fib[op.route], 0);
          fib[op.route] = op.nexthop;
          break;
      }
    }
  }
  EXPECT_GT(kinds[0], kinds[1]);
  EXPECT_GT(kinds[1], 0u);
  EXPECT_GT(kinds[2], 0u);
}

TEST(SeedDeterminism, RoutesAvoidTheBaselineRange) {
  for (uint32_t r = 0; r < (1u << 18) - 1024; r += 7) {
    EXPECT_NE(RouteAddress(r) >> 24, 10u) << r;
  }
  EXPECT_NE(RouteAddress(0x27FF), RouteAddress(0x2800));
  EXPECT_EQ(RouteFrame(5).bytes, RouteFrame(5).bytes);
}

TEST(Tags, RoundTripInTheLastBytes) {
  std::vector<uint8_t> frame(64, 0xAB);
  WriteTag(frame, 0x0123456789ABCDEFull);
  EXPECT_EQ(ReadTag(frame), 0x0123456789ABCDEFull);
  EXPECT_EQ(frame[0], 0xAB);
  EXPECT_EQ(frame[55], 0xAB);
}

// --- atomic result write ----------------------------------------------------------

class ResultWrite : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::current_path() /
           ("perfbench_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "result.json").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Read() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  size_t Files() const {
    size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      (void)e;
      ++n;
    }
    return n;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ResultWrite, KeepsAValidDocument) {
  ASSERT_TRUE(WriteJsonAtomically(path_, "{\"a\": 1}\n").ok());
  EXPECT_EQ(Read(), "{\"a\": 1}\n");
  EXPECT_EQ(Files(), 1u);  // no temporary left behind
}

TEST_F(ResultWrite, RefusesATruncatedDocumentAndKeepsTheOldOne) {
  ASSERT_TRUE(WriteJsonAtomically(path_, "{\"run\": 1}").ok());
  EXPECT_FALSE(WriteJsonAtomically(path_, "{\"run\": 2, \"metrics\": {").ok());
  EXPECT_EQ(Read(), "{\"run\": 1}");
  EXPECT_EQ(Files(), 1u);
}

TEST_F(ResultWrite, FailsCleanlyWhenTheDirectoryIsMissing) {
  EXPECT_FALSE(
      WriteJsonAtomically((dir_ / "missing" / "r.json").string(), "{}").ok());
}

}  // namespace
}  // namespace perfbench
