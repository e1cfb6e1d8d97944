#include "traffic.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>

namespace perfbench {

using namespace ipsa;

namespace {

constexpr int64_t kProbeGapNs = 100'000;
// After the last send, packet-outs still in flight get at least kDrainNs to
// arrive, and more while they keep arriving: the receiver stops once none
// has come for kDrainNs, or kMaxDrainNs after the end at the latest.
constexpr int64_t kDrainNs = 200'000'000;
constexpr int64_t kMaxDrainNs = 3'000'000'000;

void SleepUntil(int64_t ns) {
  timespec ts{};
  ts.tv_sec = ns / 1'000'000'000;
  ts.tv_nsec = ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void SendTo(int fd, const FlowFrame& f, const sockaddr_in& to) {
  ::sendto(fd, f.bytes.data(), f.bytes.size(), 0,
           reinterpret_cast<const sockaddr*>(&to), sizeof(to));
}

}  // namespace

PacketRec* Records::Append() {
  const size_t chunk = size_ / kChunk;
  if (chunk >= kMaxChunks) return nullptr;
  if (!chunks_[chunk]) chunks_[chunk] = std::make_unique<PacketRec[]>(kChunk);
  return &chunks_[chunk][size_++ % kChunk];
}

PacketRec* Records::Find(uint64_t seq) {
  if (seq >= published_.load(std::memory_order_acquire)) return nullptr;
  return &at(seq);
}

Traffic::Traffic(Session& session, TrafficConfig config, FrameFor frame_for)
    : session_(session),
      config_(config),
      frame_for_(std::move(frame_for)),
      sequence_(config.seed, config.keys) {}

FlowFrame Traffic::NewPacket(uint32_t key, bool probe, int64_t due_ns) {
  const uint64_t seq = records_.size();
  PacketRec* rec = records_.Append();
  if (rec == nullptr) {
    overflow_ = true;
    return FlowFrame{};
  }
  FlowFrame f = frame_for_(key);
  WriteTag(f.bytes, seq);
  rec->key = key;
  rec->probe = probe;
  rec->send_ns = NowNs();
  rec->due_ns = due_ns == 0 ? rec->send_ns : due_ns;
  records_.Publish();
  return f;
}

void Traffic::HandleBurst(wire::UdpBatchReceiver& rx, uint32_t n) {
  const int64_t now = NowNs();
  for (uint32_t i = 0; i < n; ++i) {
    std::span<const uint8_t> d = rx.data(i);
    const uint64_t tag = ReadTag(d);
    if (tag & kSetupTagBit) continue;  // a late set-up probe
    PacketRec* rec = records_.Find(tag);
    if (rec == nullptr) {
      ++unknown_;
      continue;
    }
    if (rec->recv_count++ > 0) continue;
    rec->recv_ns = now;
    rec->recv_port = session_.EgressOf(rx.from(i).sin_port);
    rec->recv_hash = FrameHash(d);
    if (rec->probe &&
        static_cast<int64_t>(rec->key) ==
            probe_.route.load(std::memory_order_acquire) &&
        rec->recv_port == probe_.port.load(std::memory_order_acquire)) {
      int64_t zero = 0;
      probe_.visible_ns.compare_exchange_strong(zero, now);
    }
  }
}

void Traffic::Start(int64_t end_ns) {
  start_ns_ = NowNs();
  end_ns_ = end_ns;
  threads_.emplace_back([this] { ReceiveOpenLoop(); });
  threads_.emplace_back([this] { SendOpenLoop(); });
}

void Traffic::Join() {
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void Traffic::SendOpenLoop() {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const int fd = session_.io_fd();
  OpenLoopSchedule schedule(start_ns_, config_.rate_pps, config_.burst);
  wire::UdpBatchSender sender(wire::kMaxUdpBatch);
  std::vector<FlowFrame> pending;
  uint64_t k = 0;
  int64_t last_probe = 0;
  late_us_.reserve(static_cast<size_t>(
      config_.rate_pps * static_cast<double>(end_ns_ - start_ns_) * 1e-9) + 16);
  while (true) {
    const int64_t now = NowNs();
    if (now >= end_ns_ || overflow_) break;
    // Everything due goes out in one sendmmsg, so a burst reaches the
    // daemon together.
    const uint64_t due = std::min(schedule.DueBy(now), k + wire::kMaxUdpBatch);
    pending.clear();
    for (uint64_t j = k; j < due; ++j) {
      FlowFrame f = NewPacket(sequence_.Next(), false, schedule.Due(j));
      if (f.bytes.empty()) break;
      pending.push_back(std::move(f));
    }
    for (const FlowFrame& f : pending) {
      sender.Add(f.bytes, session_.port_addr(f.in_port));
    }
    (void)sender.Flush(fd);
    const int64_t sent = NowNs();
    for (size_t j = 0; j < pending.size(); ++j, ++k) {
      late_us_.push_back(static_cast<double>(sent - schedule.Due(k)) * 1e-3);
    }
    const int64_t route = probe_.route.load(std::memory_order_acquire);
    int64_t wake = std::min(schedule.Due(k), end_ns_);
    if (route >= 0) {
      if (NowNs() - last_probe >= kProbeGapNs) {
        FlowFrame f = NewPacket(static_cast<uint32_t>(route), true, 0);
        if (!f.bytes.empty()) SendTo(fd, f, session_.port_addr(f.in_port));
        last_probe = NowNs();
      }
      wake = std::min(wake, last_probe + kProbeGapNs);
    }
    SleepUntil(wake);
  }
  sending_done_.store(true, std::memory_order_release);
}

void Traffic::ReceiveOpenLoop() {
  const int fd = session_.io_fd();
  wire::UdpBatchReceiver rx(64, 2048);
  int64_t last_rx = 0;
  while (true) {
    const int64_t now = NowNs();
    if (sending_done_.load(std::memory_order_acquire) &&
        now >= end_ns_ + kDrainNs &&
        (now >= last_rx + kDrainNs || now >= end_ns_ + kMaxDrainNs)) {
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, 2);
    while (true) {
      auto got = rx.Recv(fd);
      if (!got.ok() || *got == 0) break;
      last_rx = NowNs();
      HandleBurst(rx, *got);
    }
  }
}

}  // namespace perfbench
