// The packet plane of a run: per-packet records, the open-loop sender and
// the receiver that matches packet-outs to records by their tag.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "harness.h"
#include "session.h"
#include "wire/udp_batch.h"

namespace perfbench {

struct PacketRec {
  uint32_t key = 0;       // flow index, or route index on fib_churn
  bool probe = false;     // a visibility probe (off the schedule)
  int64_t due_ns = 0;     // scheduled send time (probes: = send_ns)
  int64_t send_ns = 0;
  // Written by the receiver only.
  int64_t recv_ns = 0;
  uint32_t recv_port = 0;
  uint32_t recv_count = 0;  // > 1: duplicated packet-out
  uint64_t recv_hash = 0;
};

// Append-only packet records in fixed chunks: the sender appends and
// publishes, the receiver fills in records the sender has published.
class Records {
 public:
  static constexpr size_t kChunk = 1 << 16;
  static constexpr size_t kMaxChunks = 512;

  // Sender side. Returns nullptr when full.
  PacketRec* Append();
  void Publish() { published_.store(size_, std::memory_order_release); }
  // Receiver side: nullptr for a tag the sender never published.
  PacketRec* Find(uint64_t seq);
  uint64_t size() const { return size_; }
  PacketRec& at(uint64_t seq) { return chunks_[seq / kChunk][seq % kChunk]; }

 private:
  std::array<std::unique_ptr<PacketRec[]>, kMaxChunks> chunks_;
  uint64_t size_ = 0;
  std::atomic<uint64_t> published_{0};
};

// The frame for a record key (flow or route), tag zeroed.
using FrameFor = std::function<FlowFrame(uint32_t key)>;

struct TrafficConfig {
  uint64_t seed = 1;
  uint32_t keys = 1;         // flows, or FIB routes
  double rate_pps = 20000;
  uint32_t burst = 1;        // packets sent together at each due time
};

// A visibility probe for one route: sent every 100 µs while `route` is set,
// until the receiver sees it leave on `port`.
struct ProbeTarget {
  std::atomic<int64_t> route{-1};
  std::atomic<uint32_t> port{0};
  std::atomic<int64_t> visible_ns{0};
};

class Traffic {
 public:
  Traffic(Session& session, TrafficConfig config, FrameFor frame_for);

  // Starts a sender and a receiver that run until `end_ns` and then wait
  // for stragglers; Join() waits for both.
  void Start(int64_t end_ns);
  void Join();

  Records& records() { return records_; }
  ProbeTarget& probe() { return probe_; }
  // Generator lateness of scheduled packets, in µs.
  const std::vector<double>& late_us() const { return late_us_; }
  uint64_t unknown_outs() const { return unknown_; }
  bool overflowed() const { return overflow_; }

 private:
  // Appends a record and returns its tagged frame (empty when full).
  FlowFrame NewPacket(uint32_t key, bool probe, int64_t due_ns);
  // Matches received datagrams to records.
  void HandleBurst(ipsa::wire::UdpBatchReceiver& rx, uint32_t n);
  void SendOpenLoop();
  void ReceiveOpenLoop();

  Session& session_;
  TrafficConfig config_;
  FrameFor frame_for_;
  IndexSequence sequence_;
  Records records_;
  ProbeTarget probe_;
  std::vector<double> late_us_;
  uint64_t unknown_ = 0;
  bool overflow_ = false;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
  std::atomic<bool> sending_done_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
