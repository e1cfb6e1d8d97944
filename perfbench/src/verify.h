// Post-run output checks. Every record is judged against the twin in each
// device state it could have met between its send and its packet-out:
//   * a packet-out must equal the twin's output of one such state, on the
//     same port, with the record's tag (anything else is a wrong packet-out);
//   * a record with no packet-out is a correct drop when one such state
//     drops it, an update loss when it was sent inside an update window,
//     and a lost packet (a failure) otherwise.
// A state is live from kGuardNs before the send of the RPC that creates it
// until the ack of the RPC that ends it: packets already queued in the
// daemon when the RPC arrives may be processed by the new state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "rpc/protocol.h"
#include "traffic.h"

namespace perfbench {

inline constexpr int64_t kGuardNs = 1'000'000;
// A record with no packet-out could have been processed up to this long
// after its send.
inline constexpr int64_t kLossHorizonNs = 20'000'000;

// One state-changing control call of a feature cycle, replayed on the twin.
struct Step {
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
  bool install = false;
  ipsa::rpc::InstallKind kind = ipsa::rpc::InstallKind::kBaseP4;
  const std::string* source = nullptr;
  std::vector<ipsa::rpc::TableOp> ops;
};

// One update: steps [first_step, end_step) plus the FetchApi calls between.
struct Update {
  int64_t first_send_ns = 0;
  int64_t last_ack_ns = 0;
  size_t first_step = 0;
  size_t end_step = 0;
};

struct Verdict {
  uint64_t correct_outs = 0;
  uint64_t wrong_outs = 0;     // includes duplicated packet-outs
  uint64_t lost = 0;           // lost outside any update window
  uint64_t update_lost = 0;    // lost inside an update window
  uint64_t expected_drops = 0;
  // Per update whose new state changes some packet-out: first send of the
  // update until the first packet-out that only the new state produces.
  std::vector<double> visible_ms;
  std::string first_problem;   // a readable example of the first mismatch
};

// Replays `steps` on `twin` (which holds state 0) and checks `records`.
// After the first `first_steps` steps, the steps repeat with period
// `cycle_steps` (0: they do not repeat).
ipsa::Result<Verdict> VerifyEpochs(Twin& twin,
                                   const std::vector<FlowFrame>& flows,
                                   Records& records,
                                   const std::vector<Step>& steps,
                                   const std::vector<Update>& updates,
                                   size_t first_steps, size_t cycle_steps);

// fib_churn: every route has its own history.
struct RouteOp {
  uint32_t route = 0;
  uint16_t nexthop = 0;  // 0 = deleted
  uint32_t window = 0;
};
struct ChurnWindow {
  int64_t send_ns = 0;
  int64_t ack_ns = 0;
};

// `by_nexthop[i]` forwards as if every route pointed at nexthop
// kNexthopBase + i; `by_nexthop[kNexthops]` has no route at all.
ipsa::Result<Verdict> VerifyRoutes(
    std::vector<std::unique_ptr<Twin>>& by_nexthop,
    const ChurnPlanner& initial, Records& records, std::vector<RouteOp> ops,
    const std::vector<ChurnWindow>& windows);

}  // namespace perfbench
