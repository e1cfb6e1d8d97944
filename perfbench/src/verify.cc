#include "verify.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace perfbench {

using namespace ipsa;

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
constexpr int64_t kAlways = std::numeric_limits<int64_t>::min();

bool Matches(const Expect& e, const PacketRec& r, uint64_t tag) {
  return !e.dropped && r.recv_count == 1 && r.recv_port == e.port &&
         r.recv_hash == ExpectedHash(e, tag);
}

// The interval in which a record could have met the device.
int64_t WindowEnd(const PacketRec& r) {
  return r.recv_count > 0 ? r.recv_ns : r.send_ns + kLossHorizonNs;
}

// Per-record outcome flags, folded across the states a record could meet.
enum : uint8_t {
  kMatched = 1,
  kDropOk = 2,
  kWitnessOld = 4,  // matches the pre-update state (visibility witness)
  kWitnessNew = 8,  // matches the post-update state
};

void Tally(Verdict& v, const PacketRec& r, uint64_t seq, uint8_t flags,
           bool in_update) {
  auto note = [&](const std::string& what) {
    if (v.first_problem.empty()) {
      v.first_problem = what + " (tag " + std::to_string(seq) + ", key " +
                        std::to_string(r.key) + ", port " +
                        std::to_string(r.recv_port) + ")";
    }
  };
  if (r.recv_count > 0) {
    if (flags & kMatched) {
      ++v.correct_outs;
    } else {
      ++v.wrong_outs;
      note(r.recv_count > 1 ? "duplicated packet-out" : "wrong packet-out");
    }
  } else if (flags & kDropOk) {
    ++v.expected_drops;
  } else if (in_update) {
    ++v.update_lost;
  } else {
    ++v.lost;
    note("lost packet");
  }
}

// The spans in which a lost record is charged to an update: from kGuardNs
// before its first send until the first packet-out of a record sent after
// its last ack. A control call that stalls the daemon's loop lets its UDP
// backlog overflow, and the backlog drains only after the ack.
class UpdateSpans {
 public:
  UpdateSpans(Records& records,
              const std::vector<std::pair<int64_t, int64_t>>& send_ack) {
    const uint64_t n = records.size();
    for (const auto& [send, ack] : send_ack) {
      uint64_t a = 0, b = n;  // first record sent after the ack
      while (a < b) {
        const uint64_t m = (a + b) / 2;
        if (records.at(m).send_ns <= ack) a = m + 1; else b = m;
      }
      int64_t end = ack + kLossHorizonNs;
      for (uint64_t i = a; i < n; ++i) {
        if (records.at(i).recv_count > 0) {
          end = std::max(ack, records.at(i).recv_ns);
          break;
        }
      }
      const int64_t prev = spans_.empty() ? kAlways : spans_.back().second;
      spans_.emplace_back(send - kGuardNs, std::max(prev, end));
    }
  }

  bool Contains(int64_t t) const {
    auto it = std::upper_bound(
        spans_.begin(), spans_.end(), t,
        [](int64_t v, const std::pair<int64_t, int64_t>& s) {
          return v < s.first;
        });
    return it != spans_.begin() && t <= std::prev(it)->second;
  }

 private:
  // (begin, running maximum of the ends), sorted by begin.
  std::vector<std::pair<int64_t, int64_t>> spans_;
};

}  // namespace

Result<Verdict> VerifyEpochs(Twin& twin, const std::vector<FlowFrame>& flows,
                             Records& records, const std::vector<Step>& steps,
                             const std::vector<Update>& updates,
                             size_t first_steps, size_t cycle_steps) {
  const size_t states = steps.size() + 1;
  auto begin_of = [&](size_t k) {
    return k == 0 ? kAlways : steps[k - 1].send_ns - kGuardNs;
  };
  auto end_of = [&](size_t k) {
    return k + 1 == states ? kNever : steps[k].ack_ns;
  };
  const uint64_t n = records.size();
  std::vector<uint8_t> flags(n, 0);
  std::vector<std::vector<uint32_t>> bucket(states);
  // Witnesses: records sent during update u, judged in u's old and new
  // states.
  std::vector<int32_t> witness_of(n, -1);
  std::vector<std::vector<uint32_t>> witness_at(states);
  for (uint64_t i = 0; i < n; ++i) {
    const PacketRec& r = records.at(i);
    const int64_t t0 = r.send_ns, t1 = WindowEnd(r);
    // First state whose end is not before t0; last whose begin is by t1.
    size_t lo = 0;
    {
      size_t a = 0, b = states - 1;
      while (a < b) {
        size_t m = (a + b) / 2;
        if (end_of(m) < t0) a = m + 1; else b = m;
      }
      lo = a;
    }
    for (size_t k = lo; k < states && begin_of(k) <= t1; ++k) {
      bucket[k].push_back(static_cast<uint32_t>(i));
    }
    if (r.probe || r.recv_count == 0 || updates.empty()) continue;
    auto u = std::upper_bound(updates.begin(), updates.end(), r.send_ns,
                              [](int64_t t, const Update& up) {
                                return t < up.first_send_ns;
                              });
    if (u == updates.begin()) continue;
    --u;
    witness_of[i] = static_cast<int32_t>(u - updates.begin());
    witness_at[u->first_step].push_back(static_cast<uint32_t>(i));
    witness_at[u->end_step].push_back(static_cast<uint32_t>(i));
  }

  // After the first `first_steps` steps the updates repeat a cycle of
  // `cycle_steps` steps. (The first cycle may differ: pbm's controller
  // restores every entry it has seen after a reload, so from the second
  // cycle on a reload comes back populated.) The twin replays the first
  // three cycles step by step, forwarding every flow in every state, and
  // checks that the third reproduces the second flow by flow; later states
  // reuse the third cycle's outputs.
  const size_t replayed =
      cycle_steps == 0 ? states
                       : std::min(states, first_steps + 2 * cycle_steps + 1);
  auto canon = [&](size_t k) {
    return k < replayed ? k
                        : first_steps + cycle_steps + 1 +
                              (k - first_steps - 1) % cycle_steps;
  };
  std::vector<std::vector<Expect>> memo(replayed);
  for (size_t k = 0; k < replayed; ++k) {
    if (k > 0) {
      const Step& s = steps[k - 1];
      Status st = s.install ? twin.Install(s.kind, *s.source)
                            : twin.Apply(s.ops);
      if (!st.ok()) {
        return InternalError("twin replay of step " + std::to_string(k - 1) +
                             ": " + st.ToString());
      }
    }
    for (const FlowFrame& f : flows) {
      IPSA_ASSIGN_OR_RETURN(Expect e, twin.Forward(f));
      memo[k].push_back(std::move(e));
    }
    if (cycle_steps > 0 && k > first_steps + cycle_steps) {
      for (size_t f = 0; f < flows.size(); ++f) {
        const Expect& a = memo[k][f];
        const Expect& b = memo[k - cycle_steps][f];
        if (a.dropped != b.dropped || a.port != b.port || a.bytes != b.bytes) {
          return InternalError("the twin's state after step " +
                               std::to_string(k - 1) +
                               " differs from the same step one cycle earlier");
        }
      }
    }
  }
  for (size_t k = 0; k < states; ++k) {
    const std::vector<Expect>& expect = memo[canon(k)];
    for (uint32_t i : bucket[k]) {
      const PacketRec& r = records.at(i);
      const Expect& e = expect[r.key];
      if (e.dropped) flags[i] |= kDropOk;
      if (Matches(e, r, i)) flags[i] |= kMatched;
    }
    for (uint32_t i : witness_at[k]) {
      const PacketRec& r = records.at(i);
      const Update& u = updates[witness_of[i]];
      if (!Matches(expect[r.key], r, i)) continue;
      flags[i] |= (k == u.first_step) ? kWitnessOld : kWitnessNew;
    }
  }

  std::vector<std::pair<int64_t, int64_t>> send_ack;
  for (const Update& u : updates) {
    send_ack.emplace_back(u.first_send_ns, u.last_ack_ns);
  }
  const UpdateSpans spans(records, send_ack);
  Verdict v;
  std::vector<int64_t> first_visible(updates.size(), kNever);
  for (uint64_t i = 0; i < n; ++i) {
    const PacketRec& r = records.at(i);
    Tally(v, r, i, flags[i], spans.Contains(r.send_ns));
    if (witness_of[i] >= 0 && (flags[i] & kWitnessNew) &&
        !(flags[i] & kWitnessOld)) {
      int64_t& fv = first_visible[witness_of[i]];
      fv = std::min(fv, r.recv_ns);
    }
  }
  for (size_t u = 0; u < updates.size(); ++u) {
    if (first_visible[u] == kNever) continue;
    v.visible_ms.push_back(
        static_cast<double>(first_visible[u] - updates[u].first_send_ns) *
        1e-6);
  }
  return v;
}

Result<Verdict> VerifyRoutes(std::vector<std::unique_ptr<Twin>>& by_nexthop,
                             const ChurnPlanner& initial, Records& records,
                             std::vector<RouteOp> ops,
                             const std::vector<ChurnWindow>& windows) {
  std::stable_sort(ops.begin(), ops.end(),
                   [](const RouteOp& a, const RouteOp& b) {
                     return a.route < b.route;
                   });
  std::unordered_map<uint64_t, Expect> cache;
  auto expect = [&](uint32_t route, uint16_t nh) -> Result<const Expect*> {
    const uint32_t idx = nh == 0 ? kNexthops : nh - kNexthopBase;
    const uint64_t key = (static_cast<uint64_t>(route) << 8) | idx;
    auto it = cache.find(key);
    if (it == cache.end()) {
      IPSA_ASSIGN_OR_RETURN(Expect e, by_nexthop[idx]->Forward(RouteFrame(route)));
      it = cache.emplace(key, std::move(e)).first;
    }
    return &it->second;
  };

  std::vector<std::pair<int64_t, int64_t>> send_ack;
  for (const ChurnWindow& w : windows) send_ack.emplace_back(w.send_ns, w.ack_ns);
  const UpdateSpans spans(records, send_ack);
  Verdict v;
  for (uint64_t i = 0; i < records.size(); ++i) {
    const PacketRec& r = records.at(i);
    const int64_t t0 = r.send_ns, t1 = WindowEnd(r);
    auto first = std::lower_bound(
        ops.begin(), ops.end(), r.key,
        [](const RouteOp& op, uint32_t route) { return op.route < route; });
    auto last = first;
    while (last != ops.end() && last->route == r.key) ++last;
    // Version j = 0 is the initial route; version j > 0 is op first[j-1].
    const size_t versions = 1 + static_cast<size_t>(last - first);
    uint8_t flags = 0;
    for (size_t j = 0; j < versions; ++j) {
      const int64_t begin =
          j == 0 ? kAlways : windows[first[j - 1].window].send_ns - kGuardNs;
      const int64_t end =
          j + 1 == versions ? kNever : windows[first[j].window].ack_ns;
      if (end < t0 || begin > t1) continue;
      const uint16_t nh =
          j == 0 ? initial.InitialNexthop(r.key) : first[j - 1].nexthop;
      IPSA_ASSIGN_OR_RETURN(const Expect* e, expect(r.key, nh));
      if (e->dropped) flags |= kDropOk;
      if (Matches(*e, r, i)) flags |= kMatched;
    }
    Tally(v, r, i, flags, spans.Contains(r.send_ns));
  }
  return v;
}

}  // namespace perfbench
