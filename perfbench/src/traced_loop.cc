#include "traced_loop.h"

#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

#include "rpc/protocol.h"
#include "telemetry/collector.h"

namespace perfbench {

using namespace ipsa;

namespace {

constexpr size_t kUdpBufBytes = 64 * 1024;
constexpr uint32_t kBatch = 64;  // switchd's --rx-batch / --tx-batch default

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Adds the wall time from construction to destruction to one span total.
class SpanTimer {
 public:
  SpanTimer(LayerTrace& trace, Span span)
      : trace_(trace), span_(span), start_(NowNs()) {}
  ~SpanTimer() {
    trace_.ns[span_] += static_cast<uint64_t>(NowNs() - start_);
    ++trace_.calls[span_];
  }
 private:
  LayerTrace& trace_;
  Span span_;
  int64_t start_;
};

}  // namespace

TracedSwitch::TracedSwitch(daemon::ArchKind arch,
                           const daemon::PoolTuning& pool, uint32_t udp_ports)
    : backend_(daemon::MakeBackend(arch, pool)), udp_port_count_(udp_ports) {
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;  // switchd's default
  backend_->ConfigureTelemetry(tcfg);
}

TracedSwitch::~TracedSwitch() {
  Stop();
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status TracedSwitch::Start() {
  rx_.emplace(kBatch, kUdpBufBytes);
  tx_.emplace(kBatch);
  IPSA_ASSIGN_OR_RETURN(listen_, wire::TcpListen("127.0.0.1", 0));
  IPSA_ASSIGN_OR_RETURN(control_port_, wire::LocalPort(listen_));
  IPSA_RETURN_IF_ERROR(wire::SetNonBlocking(listen_.fd(), true));
  for (uint32_t i = 0; i < udp_port_count_; ++i) {
    IPSA_ASSIGN_OR_RETURN(wire::Socket sock, wire::UdpBind("127.0.0.1", 0));
    IPSA_ASSIGN_OR_RETURN(uint16_t bound, wire::LocalPort(sock));
    IPSA_RETURN_IF_ERROR(wire::SetNonBlocking(sock.fd(), true));
    udp_socks_.push_back(std::move(sock));
    udp_ports_.push_back(bound);
    peers_.emplace_back();
  }
  if (::pipe(wake_pipe_) < 0) return InternalError("pipe failed");
  IPSA_RETURN_IF_ERROR(wire::SetNonBlocking(wake_pipe_[0], true));
  thread_ = std::thread([this] { Loop(); });
  return OkStatus();
}

void TracedSwitch::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    uint8_t byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (thread_.joinable()) thread_.join();
}

double TracedSwitch::CpuSeconds() const {
  clockid_t cid;
  timespec ts{};
  if (pthread_getcpuclockid(const_cast<std::thread&>(thread_).native_handle(),
                            &cid) != 0 ||
      clock_gettime(cid, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void TracedSwitch::Paused(
    const std::function<void(daemon::DeviceBackend&)>& fn) {
  std::lock_guard<std::mutex> lock(device_mu_);
  fn(*backend_);
}

uint64_t TracedSwitch::RxQueueDrops() {
  uint64_t drops = 0;
  for (uint32_t p = 0; p < backend_->ports().count(); ++p) {
    drops += backend_->ports().port(p).rx().drops();
  }
  return drops;
}

bool TracedSwitch::ServiceConn(Conn& conn) {
  uint8_t buf[kUdpBufBytes];
  while (true) {
    ssize_t n = ::recv(conn.sock.fd(), buf, sizeof(buf), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    SpanTimer span(trace_, kSpanDecode);
    conn.decoder.Feed(std::span<const uint8_t>(buf, static_cast<size_t>(n)));
  }
  while (true) {
    Result<std::optional<wire::Frame>> next = [&] {
      SpanTimer span(trace_, kSpanDecode);
      return conn.decoder.Next();
    }();
    if (!next.ok()) {
      ++trace_.counters.framing_errors;
      return false;
    }
    if (!next->has_value()) return true;
    ++trace_.frames;
    ++trace_.counters.control_frames;
    const uint16_t type = (**next).type;
    wire::Frame resp;
    {
      const int64_t start = NowNs();
      SpanTimer span(trace_, kSpanDispatch);
      resp = conn.dispatcher.Handle(**next);
      const double us = static_cast<double>(NowNs() - start) * 1e-3;
      if (type == static_cast<uint16_t>(rpc::MsgType::kInstallReq)) {
        trace_.dispatch_install_us.push_back(us);
        first_drain_pending_ = true;
      } else if (type == static_cast<uint16_t>(rpc::MsgType::kTableBatchReq)) {
        trace_.dispatch_batch_us.push_back(us);
      } else if (type == static_cast<uint16_t>(rpc::MsgType::kTableBulkReq)) {
        trace_.dispatch_bulk_us.push_back(us);
      }
    }
    if (!wire::SendAll(conn.sock.fd(), wire::EncodeFrame(resp), 2000).ok()) {
      return false;
    }
  }
}

void TracedSwitch::ServiceUdp(uint32_t port) {
  wire::UdpBatchReceiver& rx = *rx_;
  while (true) {
    Result<uint32_t> received = [&] {
      SpanTimer span(trace_, kSpanRecv);
      return rx.Recv(udp_socks_[port].fd());
    }();
    if (!received.ok() || *received == 0) return;
    ++trace_.rx_bursts;
    for (uint32_t i = 0; i < *received; ++i) {
      std::span<uint8_t> payload = rx.data(i);
      if (payload.empty()) {
        peers_[port] = rx.from(i);
        continue;
      }
      if (!peers_[port].has_value()) peers_[port] = rx.from(i);
      ++trace_.rx_datagrams;
      SpanTimer span(trace_, kSpanPush);
      net::Packet packet;
      if (!pkt_pool_.empty()) {
        packet = std::move(pkt_pool_.back());
        pkt_pool_.pop_back();
      }
      packet.Assign(std::span<const uint8_t>(payload));
      if (backend_->ports().port(port).rx().Push(std::move(packet))) {
        ++trace_.counters.udp_rx;
      }
    }
  }
}

void TracedSwitch::Pump() {
  if (backend_->ports().PendingRx() == 0) return;
  {
    const int64_t start = NowNs();
    SpanTimer span(trace_, kSpanDrain);
    auto processed = backend_->RunToCompletion(1);
    if (processed.ok()) trace_.drained += *processed;
    if (first_drain_pending_) {
      trace_.first_drain_us.push_back(static_cast<double>(NowNs() - start) *
                                      1e-3);
      first_drain_pending_ = false;
    }
  }
  tx_scratch_.clear();
  {
    SpanTimer span(trace_, kSpanCollect);
    daemon::CollectTxInto(backend_->ports(), tx_scratch_);
  }
  std::vector<daemon::TxPacket>& txs = tx_scratch_;
  wire::UdpBatchSender& sender = *tx_;
  size_t i = 0;
  while (i < txs.size()) {
    const uint32_t port = txs[i].port;
    if (port >= udp_socks_.size()) {
      ++trace_.counters.udp_unmapped;
      ++i;
      continue;
    }
    if (!peers_[port].has_value()) {
      ++trace_.counters.udp_no_peer;
      ++i;
      continue;
    }
    SpanTimer span(trace_, kSpanFlush);
    const sockaddr_in& peer = *peers_[port];
    while (i < txs.size() && txs[i].port == port) {
      if (!sender.Add(txs[i].packet.bytes(), peer)) break;
      ++i;
    }
    auto sent = sender.Flush(udp_socks_[port].fd());
    if (sent.ok()) {
      trace_.counters.udp_tx += *sent;
      trace_.tx_datagrams += *sent;
    }
  }
  constexpr size_t kPoolCap = 1024;
  for (daemon::TxPacket& tx : txs) {
    if (pkt_pool_.size() >= kPoolCap) break;
    pkt_pool_.push_back(std::move(tx.packet));
  }
  txs.clear();
}

void TracedSwitch::Loop() {
  std::vector<pollfd> pfds;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_.fd(), POLLIN, 0});
    for (const wire::Socket& s : udp_socks_) {
      pfds.push_back(pollfd{s.fd(), POLLIN, 0});
    }
    const size_t polled_conns = conns_.size();
    for (const Conn& c : conns_) pfds.push_back(pollfd{c.sock.fd(), POLLIN, 0});

    int n = ::poll(pfds.data(), pfds.size(), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::lock_guard<std::mutex> lock(device_mu_);
    if (pfds[0].revents & POLLIN) {
      uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    if (pfds[1].revents & POLLIN) {
      while (true) {
        int fd = ::accept(listen_.fd(), nullptr, nullptr);
        if (fd < 0) break;
        wire::Socket sock(fd);
        if (!wire::SetNonBlocking(fd, true).ok()) continue;
        conns_.emplace_back(std::move(sock), *backend_);
        ++trace_.counters.control_accepts;
      }
    }
    for (size_t i = 0; i < udp_socks_.size(); ++i) {
      if (pfds[2 + i].revents & (POLLIN | POLLERR)) {
        ServiceUdp(static_cast<uint32_t>(i));
      }
    }
    size_t idx = 2 + udp_socks_.size();
    auto it = conns_.begin();
    for (size_t c = 0; c < polled_conns; ++c, ++idx) {
      bool keep = true;
      if (pfds[idx].revents & (POLLIN | POLLHUP | POLLERR)) {
        keep = ServiceConn(*it);
      }
      if (keep) {
        ++it;
      } else {
        ++trace_.counters.control_disconnects;
        it = conns_.erase(it);
      }
    }
    Pump();
  }
  conns_.clear();
}

}  // namespace perfbench
