// The traced run's switch: the loop switchd runs (daemon/switchd.cc), made
// of the same public calls in the same order, with a span around each call
// into a layer. It serves the same TCP control channel and per-port UDP
// sockets, so the load generator drives it exactly as it drives switchd,
// and the oracle checks its packet-outs the same way.
#pragma once

#include <pthread.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "daemon/backends.h"
#include "daemon/switchd.h"
#include "rpc/server.h"
#include "wire/socket.h"
#include "wire/udp_batch.h"
#include "wire/wire.h"

namespace perfbench {

enum Span : int {
  kSpanRecv,      // wire: UdpBatchReceiver::Recv
  kSpanPush,      // net: Packet::Assign + PortQueue::Push
  kSpanDrain,     // ipsa/pisa: DeviceBackend::RunToCompletion
  kSpanCollect,   // net: CollectTxInto
  kSpanFlush,     // wire: UdpBatchSender::Add + Flush
  kSpanDecode,    // wire: FrameDecoder::Feed + Next
  kSpanDispatch,  // rpc: Dispatcher::Handle
  kSpanCount,
};

// Span totals, kept in memory and read once the loop has stopped.
struct LayerTrace {
  std::array<uint64_t, kSpanCount> ns{};
  std::array<uint64_t, kSpanCount> calls{};
  uint64_t rx_datagrams = 0;  // non-empty datagrams received
  uint64_t rx_bursts = 0;     // Recv calls that returned datagrams
  uint64_t tx_datagrams = 0;
  uint64_t frames = 0;        // control frames decoded
  uint64_t drained = 0;       // packets RunToCompletion processed
  // Dispatcher::Handle wall time per request type, in µs.
  std::vector<double> dispatch_install_us;
  std::vector<double> dispatch_batch_us;
  std::vector<double> dispatch_bulk_us;
  // The first drain after each Install: its wall time, in µs.
  std::vector<double> first_drain_us;
  ipsa::daemon::SwitchdCounters counters;
};

class TracedSwitch {
 public:
  TracedSwitch(ipsa::daemon::ArchKind arch,
               const ipsa::daemon::PoolTuning& pool, uint32_t udp_ports);
  ~TracedSwitch();

  TracedSwitch(const TracedSwitch&) = delete;
  TracedSwitch& operator=(const TracedSwitch&) = delete;

  ipsa::Status Start();
  void Stop();

  uint16_t control_port() const { return control_port_; }
  uint16_t udp_port(uint32_t i) const { return udp_ports_.at(i); }
  // CPU time of the loop thread so far (valid while it runs).
  double CpuSeconds() const;
  // Runs `fn` on the device between loop iterations.
  void Paused(const std::function<void(ipsa::daemon::DeviceBackend&)>& fn);
  // Direct access once the loop has stopped.
  ipsa::daemon::DeviceBackend& backend() { return *backend_; }
  // Valid after Stop().
  const LayerTrace& trace() const { return trace_; }
  uint64_t RxQueueDrops();

 private:
  struct Conn {
    ipsa::wire::Socket sock;
    ipsa::wire::FrameDecoder decoder;
    ipsa::rpc::Dispatcher dispatcher;
    Conn(ipsa::wire::Socket s, ipsa::rpc::Backend& backend)
        : sock(std::move(s)), dispatcher(backend) {}
  };

  void Loop();
  bool ServiceConn(Conn& conn);
  void ServiceUdp(uint32_t port);
  void Pump();

  std::unique_ptr<ipsa::daemon::DeviceBackend> backend_;
  uint32_t udp_port_count_;
  ipsa::wire::Socket listen_;
  std::vector<ipsa::wire::Socket> udp_socks_;
  std::vector<uint16_t> udp_ports_;
  std::vector<std::optional<sockaddr_in>> peers_;
  std::optional<ipsa::wire::UdpBatchReceiver> rx_;
  std::optional<ipsa::wire::UdpBatchSender> tx_;
  std::vector<ipsa::net::Packet> pkt_pool_;
  std::vector<ipsa::daemon::TxPacket> tx_scratch_;
  std::list<Conn> conns_;
  uint16_t control_port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  bool first_drain_pending_ = false;
  std::mutex device_mu_;  // held by the loop while it services events
  LayerTrace trace_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench
