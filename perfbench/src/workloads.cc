// Why these four workloads (METRICS.md has the long form):
//  fwd_min            minimum-size forwarding at 16 kpps on ipbm with small,
//                     cache-resident tables: the daemon's per-packet path.
//  update_under_load  10 kpps open loop on ipbm while in-situ updates run back
//                     to back: controller, compiler, CCM and plan rebuild.
//  reload_pbm         the same traffic and feature cycle on pbm, where every
//                     update is a full recompile, reload and repopulate: the
//                     paper's bmv2 baseline and the only pisa workload.
//  fib_churn          10 kpps uniform over a 2^18-route FIB beside a closed
//                     loop of bulk route writes: table insert, RCU publish,
//                     bulk RPC and frame decode, idle on fwd_min.
#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "arch/parse_engine.h"
#include "controller/baseline.h"
#include "controller/designs.h"
#include "controller/runtime_api.h"
#include "harness.h"
#include "oracle.h"
#include "session.h"
#include "traffic.h"
#include "verify.h"

namespace perfbench {

using namespace ipsa;
namespace designs = controller::designs;

namespace {

constexpr uint32_t kFlows = 1024;
constexpr double kIpv6Fraction = 0.2;
// Offered loads. Every workload is an open loop: a closed loop on this
// shared host swung between 75 and 165 kpps (5.7 to 12.5 µs of daemon CPU
// per packet) from second to second. fwd_min sends a burst of 32 frames
// every 2 ms, so the daemon drains the same batch each time. The rates keep
// a deschedule of the daemon from overflowing its sockets: spread over
// kInPorts ports, their 2048 datagrams of room hold 128 ms of fwd_min and
// 200 ms of the other workloads. At 32 kpps on four ports, runs on a busy
// host lost packets to full daemon sockets.
constexpr double kFwdRatePps = 16000;
constexpr uint32_t kFwdBurst = 32;
constexpr double kLoadedRatePps = 10000;  // beside control traffic
constexpr uint32_t kFibSize = 1u << 18;    // fib_churn's ipv4_lpm
// Routes streamed into it: the rest holds the baseline's entries and the
// per-layer insert sample.
constexpr uint32_t kFibRoutes = kFibSize - 1024;
constexpr uint32_t kChurnOps = 256;        // route writes per bulk window
constexpr uint32_t kProbeFlows = 64;       // flow_probe entries
constexpr uint32_t kProbeThreshold = 0xFFFFFFFFu;  // never marks in a run
// An open-loop run whose generator ran later than this at p99 is invalid.
constexpr double kLateLimitUs = 50000;
constexpr uint32_t kSampleFrames = 4096;   // fixed per-layer sample

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

std::string FibProgram() {
  std::string p = designs::BaseP4();
  const size_t table = p.find("table ipv4_lpm");
  const size_t size = p.find("size = 8192;", table);
  if (table == std::string::npos || size == std::string::npos) return "";
  p.replace(size, 12, "size = " + std::to_string(kFibSize) + ";");
  return p;
}

daemon::PoolTuning PoolFor(const WorkloadSpec& spec) {
  daemon::PoolTuning pool;
  if (spec.fib) {
    pool.sram_depth = 8192;
    pool.sram_blocks = kFibSize / 8192 + 32;
  }
  return pool;
}

// Runs a controller populate routine, collecting its adds as ops.
Result<std::vector<rpc::TableOp>> Collect(
    const std::function<Status(const controller::AddEntryFn&)>& fill) {
  std::vector<rpc::TableOp> ops;
  IPSA_RETURN_IF_ERROR(fill([&ops](const std::string& table,
                                   const table::Entry& entry) {
    rpc::TableOp op;
    op.op = rpc::TableOpKind::kAdd;
    op.table = table;
    op.entry = entry;
    ops.push_back(std::move(op));
    return OkStatus();
  }));
  return ops;
}

Result<std::vector<rpc::TableOp>> BaselineOps(const compiler::ApiSpec& api) {
  return Collect([&](const controller::AddEntryFn& add) {
    return controller::PopulateBaseline(api, add, controller::BaselineConfig{});
  });
}

Result<rpc::TableOp> MakeRouteOp(const controller::EntryBuilder& builder,
                             rpc::TableOpKind kind, uint32_t route,
                             uint16_t nexthop) {
  rpc::TableOp op;
  op.op = kind;
  op.table = "ipv4_lpm";
  IPSA_ASSIGN_OR_RETURN(
      op.entry,
      builder.Build("ipv4_lpm", "set_nexthop",
                    {controller::KeyValue(
                        controller::Ipv4Bits(RouteAddress(route)))},
                    {controller::Bits(16, nexthop)}, /*prefix_len=*/32));
  return op;
}

// Everything a phase builds from the seed before the first set-up.
struct Inputs {
  std::string program;
  std::vector<FlowFrame> flows;               // forwarding workloads
  std::unique_ptr<ChurnPlanner> planner;      // fib_churn
  std::unique_ptr<Twin> twin;                 // epoch oracle, state 0
  std::vector<std::unique_ptr<Twin>> by_nh;   // route oracle
  FlowFrame first_frame;
  Expect first_expect;
};

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  in.program = spec.fib ? FibProgram() : designs::BaseP4();
  if (in.program.empty()) return InternalError("cannot resize ipv4_lpm");
  if (!spec.fib) {
    in.flows = MakeFlowFrames(seed, kFlows, kIpv6Fraction, kInPorts);
    in.twin = std::make_unique<Twin>(spec.arch, daemon::PoolTuning{});
    IPSA_RETURN_IF_ERROR(in.twin->Install(rpc::InstallKind::kBaseP4,
                                          designs::BaseP4()));
    IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, in.twin->Api());
    IPSA_ASSIGN_OR_RETURN(std::vector<rpc::TableOp> ops, BaselineOps(api));
    IPSA_RETURN_IF_ERROR(in.twin->Apply(ops));
    in.first_frame = in.flows[0];
    IPSA_ASSIGN_OR_RETURN(in.first_expect, in.twin->Forward(in.first_frame));
    return in;
  }
  in.planner = std::make_unique<ChurnPlanner>(seed, kFibRoutes);
  // A /32 route's packet-out depends only on its nexthop, so one small
  // twin per nexthop (a default route to it) plus one without any route
  // stand in for the 2^18-route device.
  for (uint32_t i = 0; i <= kNexthops; ++i) {
    auto twin = std::make_unique<Twin>(spec.arch, daemon::PoolTuning{});
    IPSA_RETURN_IF_ERROR(twin->Install(rpc::InstallKind::kBaseP4,
                                       designs::BaseP4()));
    IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, twin->Api());
    IPSA_ASSIGN_OR_RETURN(std::vector<rpc::TableOp> ops, BaselineOps(api));
    if (i < kNexthops) {
      controller::EntryBuilder builder(api);
      rpc::TableOp def;
      def.table = "ipv4_lpm";
      IPSA_ASSIGN_OR_RETURN(
          def.entry,
          builder.Build("ipv4_lpm", "set_nexthop",
                        {controller::KeyValue(controller::Ipv4Bits(0))},
                        {controller::Bits(16, kNexthopBase + i)}, 0));
      ops.push_back(std::move(def));
    }
    IPSA_RETURN_IF_ERROR(twin->Apply(ops));
    in.by_nh.push_back(std::move(twin));
  }
  in.first_frame = RouteFrame(0);
  IPSA_ASSIGN_OR_RETURN(
      in.first_expect,
      in.by_nh[in.planner->InitialNexthop(0) - kNexthopBase]->Forward(
          in.first_frame));
  return in;
}

// One set-up: spawn, install, populate (and on fib_churn stream the FIB),
// until the first correct packet-out.
Result<std::unique_ptr<Session>> SetUp(const WorkloadSpec& spec,
                                       const PhaseOptions& options,
                                       const Inputs& in, double& seconds) {
  const int64_t start = NowNs();
  DaemonConfig config;
  config.arch = spec.arch;
  config.pool = PoolFor(spec);
  config.switchd_path = options.switchd_path;
  IPSA_ASSIGN_OR_RETURN(std::unique_ptr<Session> s, Session::Open(config));
  IPSA_RETURN_IF_ERROR(s->Install(rpc::InstallKind::kBaseP4, in.program));
  IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, s->FetchApi());
  IPSA_ASSIGN_OR_RETURN(std::vector<rpc::TableOp> ops, BaselineOps(api));
  IPSA_RETURN_IF_ERROR(s->ApplyBatch(ops, /*populate=*/true));
  if (spec.fib) {
    controller::EntryBuilder builder(api);
    std::vector<rpc::TableOp> routes;
    routes.reserve(kFibRoutes);
    for (uint32_t r = 0; r < kFibRoutes; ++r) {
      IPSA_ASSIGN_OR_RETURN(
          rpc::TableOp op, MakeRouteOp(builder, rpc::TableOpKind::kAdd, r,
                                   in.planner->InitialNexthop(r)));
      routes.push_back(std::move(op));
    }
    IPSA_RETURN_IF_ERROR(s->ApplyBulk(routes, 8192));
  }
  IPSA_RETURN_IF_ERROR(s->AwaitFirstForward(in.first_frame, in.first_expect));
  seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return s;
}

// --- the feature cycle (update_under_load, reload_pbm) ----------------------

struct CycleLog {
  std::vector<Step> steps;
  std::vector<Update> updates;
  std::vector<double> update_ms;
  uint64_t rpcs = 0;
  uint64_t failed_rpcs = 0;
  std::string problem;
};

class FeatureCycle {
 public:
  FeatureCycle(Session& s, const WorkloadSpec& spec, uint64_t seed)
      : s_(s),
        pisa_(spec.arch == daemon::ArchKind::kPisa),
        workload_(FlowConfig(seed, kFlows, kIpv6Fraction)) {}

  void Run(int64_t end_ns, CycleLog& log) {
    for (uint32_t u = 0; NowNs() < end_ns; ++u) {
      Update up;
      up.first_send_ns = NowNs();
      up.first_step = log.steps.size();
      Status st = pisa_ ? Reload(u % 4, log) : Splice(u % 4, log);
      if (!st.ok()) {
        ++log.failed_rpcs;
        log.problem = "update " + std::to_string(u) + ": " + st.ToString();
        return;  // the daemon's state is unknown from here on
      }
      up.last_ack_ns = log.steps.back().ack_ns;
      up.end_step = log.steps.size();
      log.update_ms.push_back(
          static_cast<double>(up.last_ack_ns - up.first_send_ns) * 1e-6);
      log.updates.push_back(up);
    }
  }

 private:
  Status Install(rpc::InstallKind kind, const std::string& source,
                 CycleLog& log) {
    Step step;
    step.install = true;
    step.kind = kind;
    step.source = &source;
    step.send_ns = NowNs();
    ++log.rpcs;
    IPSA_RETURN_IF_ERROR(s_.Install(kind, source));
    step.ack_ns = NowNs();
    log.steps.push_back(std::move(step));
    return OkStatus();
  }

  Status Populate(std::vector<rpc::TableOp> ops, CycleLog& log) {
    Step step;
    step.send_ns = NowNs();
    log.rpcs += 2;
    IPSA_RETURN_IF_ERROR(s_.ApplyBatch(ops, /*populate=*/true));
    step.ack_ns = NowNs();
    step.ops = std::move(ops);
    log.steps.push_back(std::move(step));
    return OkStatus();
  }

  Result<std::vector<rpc::TableOp>> Feature(const compiler::ApiSpec& api,
                                            uint32_t which) {
    controller::BaselineConfig config;
    if (which == 0) {
      return Collect([&](const controller::AddEntryFn& add) {
        return controller::PopulateEcmp(api, add, config);
      });
    }
    return Collect([&](const controller::AddEntryFn& add) {
      return controller::PopulateProbe(api, add, workload_, kProbeFlows,
                                       kProbeThreshold);
    });
  }

  // ipbm: splice a function in, populate it; remove it. Two of the built-in
  // functions do not survive a remove/re-splice round: designs::EcmpScript
  // unlinks the nexthop stage, which EcmpRemoveScript does not bring back,
  // and ProbeScript's register outlives ProbeRemoveScript, so the second
  // splice fails on a redefined register. The cycle therefore splices ECMP
  // after nexthop (the removal bridges nexthop to l2_l3_rewrite again) and
  // uses the register-free egress probe the reactor toggles.
  Status Splice(uint32_t phase, CycleLog& log) {
    static const std::string kEcmpAfterNexthop =
        "load ecmp.rp4 --func_name ecmp\n"
        "add_link nexthop ecmp\n"
        "add_link ecmp l2_l3_rewrite\n"
        "del_link nexthop l2_l3_rewrite\n";
    static const std::string* const kScripts[4] = {
        &kEcmpAfterNexthop, &designs::EcmpRemoveScript(),
        &designs::FabricProbeScript(), &designs::FabricProbeRemoveScript()};
    IPSA_RETURN_IF_ERROR(
        Install(rpc::InstallKind::kScript, *kScripts[phase], log));
    if (phase % 2 == 1) return OkStatus();
    IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, s_.FetchApi());
    std::vector<rpc::TableOp> ops;
    if (phase == 0) {
      IPSA_ASSIGN_OR_RETURN(ops, Feature(api, 0));
    } else {
      // Pin the first IPv4 flows to NoAction; the rest stay marked.
      controller::EntryBuilder builder(api);
      for (const net::FlowSpec& f : workload_.flows()) {
        if (ops.size() >= kProbeFlows) break;
        if (f.is_ipv6) continue;
        rpc::TableOp op;
        op.table = "fab_probe_flows";
        IPSA_ASSIGN_OR_RETURN(
            op.entry,
            builder.Build("fab_probe_flows", "NoAction",
                          {controller::KeyValue(
                               controller::Ipv4Bits(f.v4_src.value)),
                           controller::KeyValue(
                               controller::Ipv4Bits(f.v4_dst.value))},
                          {}));
        ops.push_back(std::move(op));
      }
    }
    return Populate(std::move(ops), log);
  }

  // pbm: recompile and reload the whole program. pbm's controller restores
  // every entry it was given after a reload (its load_ms includes that),
  // so only a feature's first install is followed by a populate; sending
  // the entries again would grow its restore list on every cycle.
  Status Reload(uint32_t phase, CycleLog& log) {
    static const std::string* const kPrograms[4] = {
        &designs::BasePlusEcmpP4(), &designs::BaseP4(),
        &designs::BasePlusProbeP4(), &designs::BaseP4()};
    IPSA_RETURN_IF_ERROR(
        Install(rpc::InstallKind::kBaseP4, *kPrograms[phase], log));
    if (phase % 2 == 1 || populated_[phase / 2]) return OkStatus();
    populated_[phase / 2] = true;
    IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, s_.FetchApi());
    IPSA_ASSIGN_OR_RETURN(std::vector<rpc::TableOp> ops, Feature(api, phase));
    return Populate(std::move(ops), log);
  }

  Session& s_;
  bool pisa_;
  net::Workload workload_;
  bool populated_[2] = {false, false};
};

// --- fib_churn --------------------------------------------------------------

struct ChurnLog {
  std::vector<ChurnWindow> windows;
  std::vector<RouteOp> ops;
  std::vector<double> visible_us;
  uint64_t ops_acked = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string problem;
};

void RunChurn(Session& s, ChurnPlanner& planner, ProbeTarget& probe,
              int64_t end_ns, ChurnLog& log) {
  auto api = s.FetchApi();
  if (!api.ok()) {
    ++log.failed;
    log.problem = api.status().ToString();
    return;
  }
  controller::EntryBuilder builder(*api);
  log.start_ns = NowNs();
  while (NowNs() < end_ns) {
    std::vector<ChurnOp> plan = planner.NextWindow(kChurnOps);
    std::vector<rpc::TableOp> ops;
    ops.reserve(plan.size());
    int64_t probe_route = -1;
    uint32_t probe_port = 0;
    const uint32_t window = static_cast<uint32_t>(log.windows.size());
    for (const ChurnOp& c : plan) {
      const rpc::TableOpKind kind =
          c.kind == ChurnOp::Kind::kModify   ? rpc::TableOpKind::kModify
          : c.kind == ChurnOp::Kind::kDelete ? rpc::TableOpKind::kDelete
                                             : rpc::TableOpKind::kAdd;
      auto op = MakeRouteOp(builder, kind, c.route,
                        c.nexthop == 0 ? kNexthopBase : c.nexthop);
      if (!op.ok()) {
        ++log.failed;
        log.problem = op.status().ToString();
        return;
      }
      ops.push_back(std::move(*op));
      log.ops.push_back(RouteOp{
          c.route,
          c.kind == ChurnOp::Kind::kDelete ? uint16_t{0} : c.nexthop, window});
      if (probe_route < 0 && c.kind == ChurnOp::Kind::kModify) {
        probe_route = c.route;
        probe_port = c.nexthop % 8;
      }
    }
    probe.visible_ns.store(0, std::memory_order_release);
    probe.port.store(probe_port, std::memory_order_release);
    probe.route.store(probe_route, std::memory_order_release);
    ChurnWindow w;
    w.send_ns = NowNs();
    Status st = s.ApplyBulk(ops, kChurnOps);
    w.ack_ns = NowNs();
    log.windows.push_back(w);
    if (!st.ok()) {
      ++log.failed;
      log.problem = st.ToString();
      probe.route.store(-1, std::memory_order_release);
      return;
    }
    log.ops_acked += ops.size();
    if (probe_route < 0) continue;  // a window without a modify
    // Probe until the modified route egresses on its new port: an ack need
    // not mean the entry is visible.
    const int64_t give_up = w.ack_ns + 100'000'000;
    int64_t visible = 0;
    while ((visible = probe.visible_ns.load(std::memory_order_acquire)) == 0 &&
           NowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
    probe.route.store(-1, std::memory_order_release);
    if (visible == 0) {
      ++log.failed;
      if (log.problem.empty()) log.problem = "route never became visible";
    } else {
      log.visible_us.push_back(static_cast<double>(visible - w.send_ns) * 1e-3);
    }
  }
  log.end_ns = NowNs();
}

// --- per-layer samples (traced phase) ---------------------------------------

// hw-model cycles, pipeline steps and parse time over a fixed seeded sample,
// taken right after set-up so they repeat exactly for a seed.
void SampleDevice(const WorkloadSpec& spec, const Inputs& in, uint64_t seed,
                  daemon::DeviceBackend& dev, PhaseResult& out) {
  IndexSequence pick(seed ^ 0x5A3B1E, spec.fib ? kFibRoutes : kFlows);
  std::vector<FlowFrame> sample;
  for (uint32_t i = 0; i < kSampleFrames; ++i) {
    const uint32_t k = pick.Next();
    sample.push_back(spec.fib ? RouteFrame(k) : in.flows[k]);
  }
  const std::string arch = spec.arch == daemon::ArchKind::kPisa ? "pisa" : "ipsa";
  uint64_t cycles = 0, steps = 0, n = 0;
  for (const FlowFrame& f : sample) {
    net::Packet p{std::span<const uint8_t>(f.bytes)};
    telemetry::ProcessTrace trace;
    auto r = dev.ProcessOne(p, f.in_port, &trace);
    if (!r.ok()) continue;
    cycles += r->cycles;
    steps += trace.steps.size();
    ++n;
  }
  if (n == 0) return;
  out.metrics[arch + ".cycles_per_pkt"] = {
      static_cast<double>(cycles) / static_cast<double>(n), "count", n};
  out.metrics["arch.stages_per_pkt"] = {
      static_cast<double>(steps) / static_cast<double>(n), "count", n};
  if (spec.arch != daemon::ArchKind::kIpsa) return;
  auto& ipbm = static_cast<daemon::IpsaBackend&>(dev).device();
  std::vector<net::Packet> packets;
  for (const FlowFrame& f : sample) {
    packets.emplace_back(std::span<const uint8_t>(f.bytes));
  }
  arch::PacketContext ctx;
  const int64_t start = NowNs();
  uint64_t parsed = 0;
  for (net::Packet& p : packets) {
    ctx.Rebind(p, ipbm.headers());
    if (arch::ParseEngine::ParseAll(ctx).ok()) ++parsed;
  }
  if (parsed > 0) {
    out.metrics["arch.parse_ns_per_pkt"] = {
        static_cast<double>(NowNs() - start) / static_cast<double>(parsed),
        "ns", parsed};
  }
}

// Lookup, insert and publish timings on the device's ipv4_lpm, once the
// loop has stopped. Inserts use fresh keys and are erased again.
void SampleTable(const WorkloadSpec& spec, const Inputs& in, uint64_t seed,
                 daemon::DeviceBackend& dev, PhaseResult& out) {
  auto table = dev.catalog().Get("ipv4_lpm");
  auto api = dev.Api();
  if (!table.ok() || !api.ok()) return;
  table::MatchTable& t = **table;
  std::vector<mem::BitString> keys;
  IndexSequence pick(seed ^ 0x7AB1E, spec.fib ? kFibRoutes : kFlows);
  for (uint32_t i = 0; i < 1024; ++i) {
    const uint32_t k = pick.Next();
    uint32_t addr = 0;
    if (spec.fib) {
      addr = RouteAddress(k);
    } else {
      const FlowFrame& f = in.flows[k];
      if (f.bytes[12] != 0x08 || f.bytes[13] != 0x00) continue;  // IPv4 only
      addr = (uint32_t{f.bytes[30]} << 24) | (uint32_t{f.bytes[31]} << 16) |
             (uint32_t{f.bytes[32]} << 8) | f.bytes[33];
    }
    keys.push_back(controller::Ipv4Bits(addr));
  }
  table::LookupResult result;
  std::vector<double> per_lookup;
  uint64_t hits = 0, lookups = 0;
  for (int round = 0; round < 200; ++round) {
    const int64_t start = NowNs();
    for (const mem::BitString& key : keys) {
      t.LookupInto(key, result);
      hits += result.hit;
    }
    lookups += keys.size();
    per_lookup.push_back(static_cast<double>(NowNs() - start) /
                         static_cast<double>(keys.size()));
  }
  out.metrics["table.lookup_ns_p50"] = {Median(per_lookup), "ns",
                                        per_lookup.size()};
  out.metrics["table.hit_ratio"] = {
      static_cast<double>(hits) / static_cast<double>(lookups), "ratio",
      lookups};

  controller::EntryBuilder builder(*api);
  std::vector<double> publish_us;
  uint64_t insert_ns = 0, inserts = 0;
  for (uint32_t batch = 0; batch < 16; ++batch) {
    std::vector<table::Entry> entries;
    for (uint32_t i = 0; i < kChurnOps; ++i) {
      auto e = builder.Build(
          "ipv4_lpm", "set_nexthop",
          // Odd addresses: fib_churn's routes all end in 14 zero bits.
          {controller::KeyValue(controller::Ipv4Bits(
              0x0C000001u + ((batch * kChurnOps + i) << 6)))},
          {controller::Bits(16, kNexthopBase)}, 32);
      if (e.ok()) entries.push_back(std::move(*e));
    }
    t.BeginBatch();
    for (const table::Entry& e : entries) {
      const int64_t start = NowNs();
      if (t.Insert(e).ok()) ++inserts;
      insert_ns += static_cast<uint64_t>(NowNs() - start);
    }
    const int64_t publish = NowNs();
    t.EndBatch();
    publish_us.push_back(static_cast<double>(NowNs() - publish) * 1e-3);
    t.BeginBatch();
    for (const table::Entry& e : entries) (void)t.Erase(e);
    t.EndBatch();
  }
  if (inserts > 0) {
    out.metrics["table.insert_ns_per_op"] = {
        static_cast<double>(insert_ns) / static_cast<double>(inserts), "ns",
        inserts};
  }
  out.metrics["table.publish_us_per_batch"] = {Median(publish_us), "us",
                                               publish_us.size()};
}

void PutMedian(PhaseResult& out, const std::string& name,
               const std::vector<double>& v, const std::string& unit) {
  if (!v.empty()) out.metrics[name] = {Median(v), unit, v.size()};
}

// The median as `p50`, and the p99 as `p99` where at least ten samples lie
// beyond it.
void PutTail(PhaseResult& out, const std::string& p50, const std::string& p99,
             const std::vector<double>& v, const std::string& unit) {
  if (v.empty()) return;
  Summary s = Summarize(v);
  out.metrics[p50] = {s.p50, unit, s.n};
  if (s.has_p99) out.metrics[p99] = {s.p99, unit, s.n};
}

void PutLayers(const WorkloadSpec& spec, TracedSwitch& sw, uint64_t delivered,
               double cpu_s, PhaseResult& out) {
  const LayerTrace& t = sw.trace();
  auto per = [](uint64_t ns, uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  };
  const std::string arch = spec.arch == daemon::ArchKind::kPisa ? "pisa" : "ipsa";
  out.metrics["wire.rx_ns_per_pkt"] = {per(t.ns[kSpanRecv], t.rx_datagrams),
                                       "ns", t.rx_datagrams};
  out.metrics["wire.tx_ns_per_pkt"] = {per(t.ns[kSpanFlush], t.tx_datagrams),
                                       "ns", t.tx_datagrams};
  out.metrics["wire.rx_burst_pkts"] = {per(t.rx_datagrams, t.rx_bursts),
                                       "count", t.rx_bursts};
  out.metrics["wire.frame_decode_ns_per_frame"] = {
      per(t.ns[kSpanDecode], t.frames), "ns", t.frames};
  out.metrics["net.rx_push_ns_per_pkt"] = {
      per(t.ns[kSpanPush], t.calls[kSpanPush]), "ns", t.calls[kSpanPush]};
  out.metrics["net.tx_collect_ns_per_pkt"] = {
      per(t.ns[kSpanCollect], t.tx_datagrams), "ns", t.tx_datagrams};
  out.metrics["net.rx_queue_drops"] = {
      static_cast<double>(sw.RxQueueDrops()), "count", 0};
  out.metrics["daemon.udp_rx"] = {static_cast<double>(t.counters.udp_rx),
                                  "count", 0};
  out.metrics["daemon.udp_tx"] = {static_cast<double>(t.counters.udp_tx),
                                  "count", 0};
  out.metrics["daemon.udp_no_peer"] = {
      static_cast<double>(t.counters.udp_no_peer), "count", 0};
  out.metrics["daemon.udp_unmapped"] = {
      static_cast<double>(t.counters.udp_unmapped), "count", 0};
  out.metrics[arch + ".drain_ns_per_pkt"] = {per(t.ns[kSpanDrain], t.drained),
                                             "ns", t.drained};
  PutMedian(out, arch == "pisa" ? "pisa.reload_first_pkt_us"
                                : "ipsa.epoch_first_pkt_us",
            t.first_drain_us, "us");
  PutMedian(out, "rpc.dispatch_us.install", t.dispatch_install_us, "us");
  PutMedian(out, "rpc.dispatch_us.table_batch", t.dispatch_batch_us, "us");
  PutMedian(out, "rpc.dispatch_us.bulk", t.dispatch_bulk_us, "us");
  // Layer accounting: the loop thread's CPU per delivered packet against
  // the spans it is made of. The remainder (poll, loop bookkeeping, time
  // between spans) is reported, never dropped.
  uint64_t spans = 0;
  for (int i = 0; i < kSpanCount; ++i) spans += t.ns[i];
  if (delivered > 0) {
    const double cpu_ns = cpu_s * 1e9 / static_cast<double>(delivered);
    out.metrics["traced_cpu_us_per_pkt"] = {cpu_ns * 1e-3, "us", delivered};
    out.metrics["unaccounted_ns_per_pkt"] = {
        cpu_ns - static_cast<double>(spans) / static_cast<double>(delivered),
        "ns", delivered};
  }
}

}  // namespace

Result<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "fwd_min") {
    s.control = Control::kNone;
  } else if (name == "update_under_load") {
    s.control = Control::kFeatureCycle;
  } else if (name == "reload_pbm") {
    s.arch = daemon::ArchKind::kPisa;
    s.control = Control::kFeatureCycle;
  } else if (name == "fib_churn") {
    s.control = Control::kChurn;
    s.fib = true;
  } else {
    return InvalidArgument("unknown workload '" + name +
                           "' (fwd_min, update_under_load, reload_pbm, "
                           "fib_churn)");
  }
  return s;
}

Result<PhaseResult> RunPhase(const WorkloadSpec& spec,
                             const PhaseOptions& options) {
  PhaseResult out;
  IPSA_ASSIGN_OR_RETURN(Inputs in, MakeInputs(spec, options.seed));

  std::vector<double> setup_s;
  std::unique_ptr<Session> s;
  for (int round = 0; round < options.setup_rounds; ++round) {
    if (s) IPSA_RETURN_IF_ERROR(s->Stop());
    s.reset();
    double seconds = 0;
    IPSA_ASSIGN_OR_RETURN(s, SetUp(spec, options, in, seconds));
    setup_s.push_back(seconds);
  }
  out.metrics["setup_s"] = {Median(setup_s), "s", setup_s.size()};

  const bool traced = s->traced() != nullptr;
  if (traced) {
    s->traced()->Paused([&](daemon::DeviceBackend& dev) {
      SampleDevice(spec, in, options.seed, dev, out);
    });
  }

  TrafficConfig tc;
  tc.seed = options.seed;
  tc.keys = spec.fib ? kFibRoutes : kFlows;
  const bool fwd = spec.control == Control::kNone;
  tc.rate_pps = fwd ? kFwdRatePps : kLoadedRatePps;
  tc.burst = fwd ? kFwdBurst : 1;
  Traffic traffic(*s, tc, [&in, &spec](uint32_t key) {
    return spec.fib ? RouteFrame(key) : in.flows[key];
  });

  const uint64_t lo_before = LoopbackRxPackets();
  const double cpu_before = s->CpuSeconds();
  const int64_t end_ns =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  CycleLog cycle;
  ChurnLog churn;
  traffic.Start(end_ns);
  if (spec.control == Control::kFeatureCycle) {
    FeatureCycle(*s, spec, options.seed).Run(end_ns, cycle);
  } else if (spec.control == Control::kChurn) {
    RunChurn(*s, *in.planner, traffic.probe(), end_ns, churn);
  }
  traffic.Join();
  const double cpu_s = s->CpuSeconds() - cpu_before;
  const uint64_t lo_delta = LoopbackRxPackets() - lo_before;
  out.metrics["peak_rss_mb"] = {s->PeakRssMb(), "MiB", 0};
  IPSA_RETURN_IF_ERROR(s->Stop());
  if (traced) {
    SampleTable(spec, in, options.seed, s->traced()->backend(), out);
  } else {
    out.metrics["daemon.udp_rx"] = {static_cast<double>(s->udp_rx()), "count", 0};
    out.metrics["daemon.udp_tx"] = {static_cast<double>(s->udp_tx()), "count", 0};
  }

  // --- check every output ---------------------------------------------------
  Records& recs = traffic.records();
  Verdict v;
  if (spec.fib) {
    IPSA_ASSIGN_OR_RETURN(v, VerifyRoutes(in.by_nh, *in.planner, recs,
                                          churn.ops, churn.windows));
  } else {
    // The feature cycle is four updates long; the first may take more steps.
    const auto& ups = cycle.updates;
    const size_t first_steps = ups.size() >= 8 ? ups[3].end_step : 0;
    const size_t cycle_steps =
        ups.size() >= 8 ? ups[7].end_step - ups[3].end_step : 0;
    IPSA_ASSIGN_OR_RETURN(v, VerifyEpochs(*in.twin, in.flows, recs,
                                          cycle.steps, ups, first_steps,
                                          cycle_steps));
  }

  // --- metrics --------------------------------------------------------------
  std::vector<double> lat_us;
  int64_t first_send = 0, last_out = 0;
  for (uint64_t i = 0; i < recs.size(); ++i) {
    const PacketRec& r = recs.at(i);
    if (r.probe || r.recv_count == 0) continue;
    if (first_send == 0) first_send = r.send_ns;
    last_out = std::max(last_out, r.recv_ns);
    lat_us.push_back(static_cast<double>(r.recv_ns - r.due_ns) * 1e-3);
  }
  const uint64_t delivered = lat_us.size();
  out.packets_sent = recs.size();
  if (delivered > 1) {
    out.metrics["fwd_pps"] = {
        static_cast<double>(delivered) * 1e9 /
            static_cast<double>(last_out - first_send),
        "pkt/s", delivered};
    out.metrics["cpu_us_per_pkt"] = {
        cpu_s * 1e6 / static_cast<double>(delivered), "us", delivered};
  }
  PutTail(out, "fwd_lat_p50_us", "fwd_lat_p99_us", lat_us, "us");
  Summary late = Summarize(traffic.late_us());
  if (late.has_p99) {
    out.metrics["gen_late_us_p99"] = {late.p99, "us", late.n};
    out.valid = late.p99 <= kLateLimitUs;
  }
  if (spec.control == Control::kFeatureCycle) {
    PutTail(out, "update_ms_p50", "update_ms_p99", cycle.update_ms, "ms");
    PutMedian(out, "update_visible_ms_p50", v.visible_ms, "ms");
    if (!cycle.updates.empty()) {
      out.metrics["update_lost_per_update"] = {
          static_cast<double>(v.update_lost) /
              static_cast<double>(cycle.updates.size()),
          "pkt", cycle.updates.size()};
    }
  }
  if (spec.control == Control::kChurn && churn.end_ns > churn.start_ns) {
    out.metrics["table_ops_per_s"] = {
        static_cast<double>(churn.ops_acked) /
            (static_cast<double>(churn.end_ns - churn.start_ns) * 1e-9),
        "op/s", churn.ops_acked};
    PutTail(out, "entry_visible_us_p50", "entry_visible_us_p99",
            churn.visible_us, "us");
    if (!churn.windows.empty()) {
      out.metrics["update_lost_per_update"] = {
          static_cast<double>(v.update_lost) /
              static_cast<double>(churn.windows.size()),
          "pkt", churn.windows.size()};
    }
  }
  ClientCalls& calls = s->calls();
  PutMedian(out, "rpc.client_call_us.install", calls.install_us, "us");
  PutMedian(out, "rpc.client_call_us.fetch_api", calls.fetch_api_us, "us");
  PutMedian(out, "rpc.client_call_us.apply_batch", calls.apply_batch_us, "us");
  PutMedian(out, "rpc.client_call_us.apply_bulk", calls.apply_bulk_us, "us");
  PutMedian(out, "controller.compile_ms", calls.compile_ms, "ms");
  PutMedian(out, "controller.load_ms", calls.load_ms, "ms");
  PutMedian(out, "controller.populate_ms", calls.populate_ms, "ms");
  if (traced) PutLayers(spec, *s->traced(), delivered, cpu_s, out);

  const uint64_t control_calls =
      cycle.rpcs + churn.windows.size() + (spec.fib ? 1 : 0);
  out.attempted = recs.size() + control_calls;
  out.failed = v.wrong_outs + v.lost + traffic.unknown_outs() +
               cycle.failed_rpcs + churn.failed + (traffic.overflowed() ? 1 : 0);
  out.metrics["fail_ratio"] = {
      static_cast<double>(out.failed) / static_cast<double>(out.attempted), "-",
      out.attempted};
  out.metrics["loopback_rx_packets"] = {static_cast<double>(lo_delta), "count",
                                        0};
  out.problem = !v.first_problem.empty() ? v.first_problem
                : !cycle.problem.empty() ? cycle.problem
                                         : churn.problem;
  if (traffic.unknown_outs() > 0 && out.problem.empty()) {
    out.problem = std::to_string(traffic.unknown_outs()) +
                  " packet-outs carried no known tag";
  }
  if (traffic.overflowed() && out.problem.empty()) {
    out.problem = "packet record space exhausted";
  }
  std::fprintf(stderr,
               "perfbench: %s: %llu sent, %llu correct, %llu wrong, %llu lost, "
               "%llu lost in updates, %llu expected drops, %zu updates, %zu "
               "churn windows\n",
               spec.name.c_str(), (unsigned long long)recs.size(),
               (unsigned long long)v.correct_outs,
               (unsigned long long)v.wrong_outs, (unsigned long long)v.lost,
               (unsigned long long)v.update_lost,
               (unsigned long long)v.expected_drops, cycle.updates.size(),
               churn.windows.size());
  return out;
}

}  // namespace perfbench
