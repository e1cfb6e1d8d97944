#include "harness.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "net/headers.h"
#include "net/packet_builder.h"
#include "util/json.h"

namespace perfbench {

using ipsa::Status;

bool TailSupported(uint64_t n, double p) {
  // Compare in integers: samples beyond p = n - ceil(n * p).
  const double at = std::ceil(static_cast<double>(n) * p - 1e-9);
  return n >= kTailSamples && static_cast<double>(n) - at >=
                                  static_cast<double>(kTailSamples);
}

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = QuantileSorted(values, 0.5);
  s.q1 = QuantileSorted(values, 0.25);
  s.q3 = QuantileSorted(values, 0.75);
  s.has_p99 = TailSupported(s.n, 0.99);
  if (s.has_p99) s.p99 = QuantileSorted(values, 0.99);
  return s;
}

uint64_t OpenLoopSchedule::DueBy(int64_t now_ns) const {
  if (now_ns < start_ns_) return 0;
  // Bursts due so far, corrected against Due() itself.
  uint64_t b = static_cast<uint64_t>(
                   static_cast<double>(now_ns - start_ns_) / interval_ns_) +
               1;
  while (b > 0 && Due((b - 1) * burst_) > now_ns) --b;
  while (Due(b * burst_) <= now_ns) ++b;
  return b * burst_;
}

void WriteTag(std::span<uint8_t> frame, uint64_t tag) {
  std::memcpy(frame.data() + frame.size() - kTagBytes, &tag, kTagBytes);
}

uint64_t ReadTag(std::span<const uint8_t> frame) {
  uint64_t tag = 0;
  if (frame.size() >= kTagBytes) {
    std::memcpy(&tag, frame.data() + frame.size() - kTagBytes, kTagBytes);
  }
  return tag;
}

ipsa::net::WorkloadConfig FlowConfig(uint64_t seed, uint32_t flows,
                                     double ipv6_fraction) {
  ipsa::net::WorkloadConfig config;
  config.seed = seed;
  config.flow_count = flows;
  config.ipv6_fraction = ipv6_fraction;
  config.payload_size = 22;
  return config;
}

std::vector<FlowFrame> MakeFlowFrames(uint64_t seed, uint32_t flows,
                                      double ipv6_fraction,
                                      uint32_t in_ports) {
  ipsa::net::Workload workload(FlowConfig(seed, flows, ipv6_fraction));
  std::vector<FlowFrame> out(flows);
  for (uint32_t f = 0; f < flows; ++f) {
    ipsa::net::Packet p = workload.PacketForFlow(f);
    out[f].in_port = f % in_ports;
    out[f].bytes.assign(p.bytes().begin(), p.bytes().end());
    WriteTag(out[f].bytes, 0);
  }
  return out;
}

uint32_t RouteAddress(uint32_t route) {
  // Slot s covers addresses s << 14; slots 0x2800..0x2BFF are 10.0.0.0/8.
  const uint32_t slot = route < 0x2800 ? route : route + 0x400;
  return slot << 14;
}

FlowFrame RouteFrame(uint32_t route) {
  using namespace ipsa::net;
  Packet p = PacketBuilder()
                 .Ethernet(MacAddr::FromUint64(0x021111110000ull + route % 16),
                           MacAddr::FromUint64(0x020000000000ull + route),
                           kEtherTypeIpv4)
                 .Ipv4(Ipv4Addr{0xC0A80000u + (route & 0xFFFF)},
                       Ipv4Addr{RouteAddress(route)}, kIpProtoUdp)
                 .Udp(static_cast<uint16_t>(1024 + route % 60000), 80)
                 .Payload(22)
                 .Build();
  FlowFrame f;
  f.in_port = route % kInPorts;
  f.bytes.assign(p.bytes().begin(), p.bytes().end());
  WriteTag(f.bytes, 0);
  return f;
}

ChurnPlanner::ChurnPlanner(uint64_t seed, uint32_t routes)
    : rng_(seed ^ 0xC4'0000'0000'0002ull), initial_(routes) {
  for (uint32_t r = 0; r < routes; ++r) {
    initial_[r] = static_cast<uint16_t>(kNexthopBase + rng_.NextBelow(kNexthops));
  }
  current_ = initial_;
}

std::vector<ChurnOp> ChurnPlanner::NextWindow(uint32_t ops) {
  const uint32_t routes = static_cast<uint32_t>(current_.size());
  std::vector<ChurnOp> out;
  out.reserve(ops);
  std::unordered_set<uint32_t> used;
  // Deleted routes come back in the order they left, so none stays
  // deleted for long and the live FIB stays near full size.
  while (out.size() < ops) {
    ChurnOp op;
    const uint64_t roll = rng_.NextBelow(16);
    if (roll == 0 && !deleted_.empty() && !used.count(deleted_.front())) {
      op.kind = ChurnOp::Kind::kAdd;
      op.route = deleted_.front();
      deleted_.erase(deleted_.begin());
      op.nexthop =
          static_cast<uint16_t>(kNexthopBase + rng_.NextBelow(kNexthops));
    } else {
      op.route = static_cast<uint32_t>(rng_.NextBelow(routes));
      if (used.count(op.route) || current_[op.route] == 0) continue;
      if (roll == 1) {
        op.kind = ChurnOp::Kind::kDelete;
        deleted_.push_back(op.route);
      } else {
        op.kind = ChurnOp::Kind::kModify;
        // Another nexthop, hence another egress port (port = nexthop % 8).
        const uint32_t shift = 1 + static_cast<uint32_t>(
                                       rng_.NextBelow(kNexthops - 1));
        op.nexthop = static_cast<uint16_t>(
            kNexthopBase +
            (current_[op.route] - kNexthopBase + shift) % kNexthops);
      }
    }
    current_[op.route] = op.kind == ChurnOp::Kind::kDelete ? 0 : op.nexthop;
    used.insert(op.route);
    out.push_back(op);
  }
  return out;
}

Status WriteJsonAtomically(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return ipsa::InternalError("open " + tmp + ": " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < text.size()) {
    ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return ipsa::InternalError("write " + tmp + ": " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(tmp.c_str());
    return ipsa::InternalError("flush " + tmp + " failed");
  }
  // Re-read what actually reached the file, not the in-memory text.
  std::ifstream in(tmp, std::ios::binary);
  std::stringstream back;
  back << in.rdbuf();
  auto parsed = ipsa::util::Json::Parse(back.str());
  if (!parsed.ok() || back.str() != text) {
    ::unlink(tmp.c_str());
    return ipsa::InvalidArgument(
        "refusing result " + path + ": " +
        (parsed.ok() ? std::string("read-back mismatch")
                     : parsed.status().ToString()));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return ipsa::InternalError("rename " + tmp + ": " + std::strerror(errno));
  }
  return ipsa::OkStatus();
}

}  // namespace perfbench
