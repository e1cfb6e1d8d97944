// The four workloads and one measured phase of a run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "daemon/backends.h"
#include "util/status.h"

namespace perfbench {

enum class Control { kNone, kFeatureCycle, kChurn };

struct WorkloadSpec {
  std::string name;
  ipsa::daemon::ArchKind arch = ipsa::daemon::ArchKind::kIpsa;
  Control control = Control::kNone;
  bool fib = false;  // the 2^18-route FIB instead of the baseline's
};

ipsa::Result<WorkloadSpec> FindWorkload(const std::string& name);

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t n = 0;  // samples behind the value (0 = a single reading)
};

struct PhaseOptions {
  uint64_t seed = 1;
  double seconds = 10;
  int setup_rounds = 7;
  std::string switchd_path;  // empty: the in-process traced loop
};

struct PhaseResult {
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t packets_sent = 0;
  bool valid = true;           // the open-loop generator kept its schedule
  std::string problem;         // first failure, for the log
};

// Sets up (setup_rounds times, keeping the last), runs the workload for
// `seconds`, checks every output against the twin and computes the metrics.
ipsa::Result<PhaseResult> RunPhase(const WorkloadSpec& spec,
                                   const PhaseOptions& options);

}  // namespace perfbench
