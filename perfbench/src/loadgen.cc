// perfbench_load — runs one workload against switchd (or, with --trace 1,
// against the traced in-process loop) and prints its metrics.
//
//   perfbench_load --workload fwd_min --seed 1 --seconds 10 --trace 0
//       --switchd PATH --record-dir DIR [--commit ID]
//
// It prints every metric with its unit and sample count, then the run
// record as one JSON line, which is also written atomically to DIR
// (perfbench/run.py picks the BENCHMARK.json metrics out of it). Exit codes:
// 0 ok, 1 an output or RPC check failed, 2 bad usage or set-up failure,
// 3 the run is invalid (generator late, or no traffic on loopback).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "child.h"
#include "harness.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ipsa::util::Json;

constexpr char kUsage[] =
    "usage: perfbench_load --workload NAME --seed N --seconds S --trace 0|1\n"
    "                      --switchd PATH --record-dir DIR [--commit ID]\n";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string switchd;
  std::string record_dir;
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = std::atoi(v.c_str());
    else if (k == "--switchd") a.switchd = v;
    else if (k == "--record-dir") a.record_dir = v;
    else if (k == "--commit") a.commit = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.switchd.empty() &&
         !a.record_dir.empty() && a.seconds > 0 && (a.trace == 0 || a.trace == 1);
}

Json MetricJson(const Metric& m) {
  Json j = Json::Object();
  j["value"] = m.value;
  j["unit"] = m.unit;
  j["n"] = m.n;
  return j;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build without NDEBUG (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; use Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  auto spec = FindWorkload(args.workload);
  if (!spec.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec.status().ToString().c_str());
    return 2;
  }

  const std::string load_before = LoadAverage();
  PhaseOptions opt;
  opt.seed = args.seed;
  opt.seconds = args.seconds;
  opt.switchd_path = args.switchd;
  PhaseResult result;
  if (args.trace == 0) {
    auto r = RunPhase(*spec, opt);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", r.status().ToString().c_str());
      return 2;
    }
    result = std::move(*r);
  } else {
    // Half the time untraced through switchd, half through the traced loop:
    // the overhead ratio compares the two per-packet CPU costs.
    opt.seconds = args.seconds / 2;
    opt.setup_rounds = 1;
    auto plain = RunPhase(*spec, opt);
    opt.switchd_path.clear();
    auto traced = plain.ok() ? RunPhase(*spec, opt) : plain;
    if (!traced.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   traced.status().ToString().c_str());
      return 2;
    }
    result = std::move(*traced);
    result.attempted += plain->attempted;
    result.failed += plain->failed;
    result.valid = result.valid && plain->valid;
    if (result.problem.empty()) result.problem = plain->problem;
    const auto a = plain->metrics.find("cpu_us_per_pkt");
    const auto b = result.metrics.find("traced_cpu_us_per_pkt");
    if (a != plain->metrics.end() && b != result.metrics.end()) {
      result.metrics["trace_overhead_ratio"] = {
          b->second.value / a->second.value - 1, "ratio", 0};
    }
  }
  const std::string load_after = LoadAverage();

  // --- the run record ----------------------------------------------------------
  Json record = Json::Object();
  record["workload"] = args.workload;
  record["seed"] = args.seed;
  record["seconds"] = args.seconds;
  record["trace"] = args.trace;
  record["build_type"] = PERFBENCH_BUILD_TYPE;
  record["nproc"] = static_cast<int64_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  record["loadavg_before"] = load_before;
  record["loadavg_after"] = load_after;
  record["commit"] = args.commit;
  const double lo = result.metrics.count("loopback_rx_packets")
                        ? result.metrics["loopback_rx_packets"].value
                        : 0;
  record["crossed_loopback"] =
      lo >= static_cast<double>(result.packets_sent);
  record["valid"] = result.valid;
  record["correct"] = result.failed == 0;
  record["attempted"] = result.attempted;
  record["failed"] = result.failed;
  if (!result.problem.empty()) record["problem"] = result.problem;
  Json all = Json::Object();
  for (const auto& [name, m] : result.metrics) all[name] = MetricJson(m);
  record["metrics"] = all;

  const std::string path = args.record_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           std::to_string(args.trace) + ".json";
  ipsa::Status written = WriteJsonAtomically(path, record.Dump(2) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
    return 2;
  }

  for (const auto& [name, m] : result.metrics) {
    std::printf("%-34s %14.6g %-6s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), (unsigned long long)m.n);
  }
  std::printf("%s\n", record.Dump().c_str());
  std::fflush(stdout);

  if (!result.valid) {
    std::fprintf(stderr,
                 "perfbench: invalid run: the open-loop generator ran late "
                 "(gen_late_us_p99 over its limit); not reported\n");
    return 3;
  }
  if (!record["crossed_loopback"].as_bool()) {
    std::fprintf(stderr, "perfbench: traffic did not cross loopback\n");
    return 3;
  }

  if (!result.problem.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", result.problem.c_str());
  }
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
