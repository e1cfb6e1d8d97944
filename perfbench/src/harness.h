// The load generator's self-contained pieces: the percentile rule, the
// open-loop schedule, the seeded inputs and the atomic result write. They
// hold no sockets or threads, so tests/harness_test.cc pins each one down.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/workload.h"
#include "util/rng.h"
#include "util/status.h"

namespace perfbench {

inline constexpr uint32_t kUdpPorts = 8;  // device ports exposed over UDP
// Frames enter on every exposed port: each port's socket holds 256 small
// datagrams at the kernel's default receive buffer, so spreading the load
// over all eight lets the daemon be descheduled longer without a drop.
inline constexpr uint32_t kInPorts = kUdpPorts;

// --- percentiles ------------------------------------------------------------

// A tail percentile is reported only when at least this many samples lie
// beyond it (so p99 needs 1000 samples).
inline constexpr uint64_t kTailSamples = 10;

// True when `n` samples put at least kTailSamples beyond percentile `p`.
bool TailSupported(uint64_t n, double p);

// Linear-interpolated quantile (q in [0, 1]) of ascending `sorted`.
double QuantileSorted(const std::vector<double>& sorted, double q);

struct Summary {
  uint64_t n = 0;
  double p50 = 0;
  double q1 = 0;
  double q3 = 0;
  bool has_p99 = false;  // TailSupported(n, 0.99)
  double p99 = 0;
};

Summary Summarize(std::vector<double> values);

// --- open loop --------------------------------------------------------------

// An open-loop stream at `rate_pps` in bursts of `burst` packets: packet k
// is due at start + floor(k / burst) * burst / rate. Latency is timed from
// that due time, never from the actual send, so a generator or daemon stall
// is charged to every packet it delayed.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_pps, uint32_t burst = 1)
      : start_ns_(start_ns),
        burst_(burst),
        interval_ns_(1e9 * static_cast<double>(burst) / rate_pps) {}

  int64_t Due(uint64_t k) const {
    return start_ns_ + static_cast<int64_t>(static_cast<double>(k / burst_) *
                                            interval_ns_);
  }
  // Number of packets due at or before `now_ns`.
  uint64_t DueBy(int64_t now_ns) const;
  int64_t LatencyNs(uint64_t k, int64_t recv_ns) const {
    return recv_ns - Due(k);
  }

 private:
  int64_t start_ns_;
  uint64_t burst_;
  double interval_ns_;  // between bursts
};

// --- seeded inputs ----------------------------------------------------------

// Every frame carries an 8-byte tag (the packet's sequence number) in its
// last 8 bytes, inside the UDP/TCP payload that no design reads or writes.
inline constexpr size_t kTagBytes = 8;
void WriteTag(std::span<uint8_t> frame, uint64_t tag);
uint64_t ReadTag(std::span<const uint8_t> frame);

// One flow of the forwarding workloads: its ingress port and frame bytes
// (tag zeroed).
struct FlowFrame {
  uint32_t in_port = 0;
  std::vector<uint8_t> bytes;
};

// net::Workload flows (IPv4 flows to the baseline's 10.0.0.0/24 pool, IPv6
// flows to its 2001:db8:ff::/48 pool) with a 22-byte payload, so an
// IPv4/UDP frame is 64 bytes. Flow f enters on port f % in_ports.
ipsa::net::WorkloadConfig FlowConfig(uint64_t seed, uint32_t flows,
                                     double ipv6_fraction);
std::vector<FlowFrame> MakeFlowFrames(uint64_t seed, uint32_t flows,
                                      double ipv6_fraction,
                                      uint32_t in_ports);

// Uniform flow (or route) draws for the packet stream.
class IndexSequence {
 public:
  IndexSequence(uint64_t seed, uint32_t bound)
      : rng_(seed ^ 0x5EC0'0000'0000'0001ull), bound_(bound) {}
  uint32_t Next() { return static_cast<uint32_t>(rng_.NextBelow(bound_)); }

 private:
  ipsa::util::Rng rng_;
  uint32_t bound_;
};

// --- fib_churn routes -------------------------------------------------------

// /32 route `r` (r < 2^18 - 1024) is the first address of the r-th /14
// outside 10.0.0.0/8, the baseline's range: one route per slot of a 2^18
// LPM's root array, the layout bench_control's million-entry FIB uses.
uint32_t RouteAddress(uint32_t route);
// The IPv4/UDP frame probing route `r`, entering on port r % kInPorts.
FlowFrame RouteFrame(uint32_t route);

inline constexpr uint32_t kNexthopBase = 100;
inline constexpr uint32_t kNexthops = 8;

struct ChurnOp {
  enum class Kind : uint8_t { kModify, kDelete, kAdd };
  Kind kind = Kind::kModify;
  uint32_t route = 0;
  uint16_t nexthop = 0;  // kModify / kAdd
};

// Seeded route churn over a FIB of `routes` routes. The planner tracks
// which routes are live, so a window never deletes a missing route or adds
// a present one: every op it emits must succeed.
class ChurnPlanner {
 public:
  ChurnPlanner(uint64_t seed, uint32_t routes);

  uint16_t InitialNexthop(uint32_t route) const { return initial_[route]; }
  // `ops` ops: mostly modifies (to a nexthop on another egress port), with
  // deletes of live routes and re-adds of deleted ones.
  std::vector<ChurnOp> NextWindow(uint32_t ops);

 private:
  ipsa::util::Rng rng_;
  std::vector<uint16_t> initial_;
  std::vector<uint16_t> current_;  // 0 = deleted
  std::vector<uint32_t> deleted_;
};

// --- results ----------------------------------------------------------------

// Writes `text` to `path` through a temporary file that is fsynced, re-read
// and parsed as JSON before it is renamed over `path`. A document that does
// not parse is refused and `path` is left as it was.
ipsa::Status WriteJsonAtomically(const std::string& path,
                                 const std::string& text);

}  // namespace perfbench
