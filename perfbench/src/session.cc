#include "session.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "wire/udp_batch.h"

namespace perfbench {

using namespace ipsa;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double MicrosSince(int64_t start) {
  return static_cast<double>(NowNs() - start) * 1e-3;
}

}  // namespace

Session::~Session() { (void)Stop(); }

Result<std::unique_ptr<Session>> Session::Open(const DaemonConfig& config) {
  auto s = std::unique_ptr<Session>(new Session());
  std::vector<uint16_t> ports;
  uint16_t control = 0;
  if (!config.switchd_path.empty()) {
    std::vector<std::string> args = {
        "--arch", std::string(daemon::ArchName(config.arch)), "--ports",
        std::to_string(kUdpPorts)};
    if (config.pool.sram_depth) {
      args.insert(args.end(),
                  {"--sram-depth", std::to_string(config.pool.sram_depth)});
    }
    if (config.pool.sram_blocks) {
      args.insert(args.end(),
                  {"--sram-blocks", std::to_string(config.pool.sram_blocks)});
    }
    IPSA_ASSIGN_OR_RETURN(s->child_, ChildSwitchd::Spawn(config.switchd_path,
                                                         args, kUdpPorts));
    control = s->child_->control_port();
    for (uint32_t p = 0; p < kUdpPorts; ++p) {
      ports.push_back(s->child_->udp_port(p));
    }
  } else {
    s->traced_ =
        std::make_unique<TracedSwitch>(config.arch, config.pool, kUdpPorts);
    IPSA_RETURN_IF_ERROR(s->traced_->Start());
    control = s->traced_->control_port();
    for (uint32_t p = 0; p < kUdpPorts; ++p) {
      ports.push_back(s->traced_->udp_port(p));
    }
  }
  for (uint16_t port : ports) {
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_port = htons(port);
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    s->addrs_.push_back(a);
    s->udp_ports_be_.push_back(htons(port));
  }

  rpc::ClientOptions copts;
  copts.port = control;
  copts.client_name = "perfbench";
  // Loading a 2^18-route FIB streams for seconds; that is work, not a hang.
  copts.call_timeout_ms = 120000;
  s->client_ = std::make_unique<rpc::Client>(copts);
  IPSA_RETURN_IF_ERROR(s->client_->Connect());

  IPSA_ASSIGN_OR_RETURN(s->io_, wire::UdpBind("127.0.0.1", 0));
  IPSA_RETURN_IF_ERROR(wire::SetNonBlocking(s->io_.fd(), true));
  // Every packet-out of a run lands on this one socket: make room for a
  // burst of them while the receiver is descheduled.
  const int buf = 8 << 20;
  if (::setsockopt(s->io_.fd(), SOL_SOCKET, SO_RCVBUFFORCE, &buf,
                   sizeof(buf)) != 0) {
    ::setsockopt(s->io_.fd(), SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
  }
  if (::setsockopt(s->io_.fd(), SOL_SOCKET, SO_SNDBUFFORCE, &buf,
                   sizeof(buf)) != 0) {
    ::setsockopt(s->io_.fd(), SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  }
  return s;
}

uint32_t Session::EgressOf(uint16_t udp_port_be) const {
  for (uint32_t p = 0; p < udp_ports_be_.size(); ++p) {
    if (udp_ports_be_[p] == udp_port_be) return p;
  }
  return kUdpPorts;
}

Status Session::Install(rpc::InstallKind kind, const std::string& source) {
  const int64_t start = NowNs();
  IPSA_ASSIGN_OR_RETURN(rpc::InstallResponse resp,
                        client_->Install(kind, source));
  calls_.install_us.push_back(MicrosSince(start));
  calls_.compile_ms.push_back(resp.compile_ms);
  calls_.load_ms.push_back(resp.load_ms);
  return OkStatus();
}

Result<compiler::ApiSpec> Session::FetchApi() {
  const int64_t start = NowNs();
  IPSA_ASSIGN_OR_RETURN(compiler::ApiSpec api, client_->FetchApi());
  calls_.fetch_api_us.push_back(MicrosSince(start));
  return api;
}

Status Session::ApplyBatch(const std::vector<rpc::TableOp>& ops,
                           bool populate) {
  const int64_t start = NowNs();
  IPSA_ASSIGN_OR_RETURN(rpc::TableBatchResponse resp, client_->ApplyBatch(ops));
  const double us = MicrosSince(start);
  calls_.apply_batch_us.push_back(us);
  if (populate) calls_.populate_ms.push_back(us * 1e-3);
  if (resp.applied != ops.size()) {
    return InternalError("batch applied " + std::to_string(resp.applied) +
                         "/" + std::to_string(ops.size()) + " ops");
  }
  return OkStatus();
}

Status Session::ApplyBulk(const std::vector<rpc::TableOp>& ops,
                          uint32_t ops_per_frame) {
  rpc::BulkOptions bulk;
  bulk.ops_per_frame = ops_per_frame;
  const int64_t start = NowNs();
  IPSA_ASSIGN_OR_RETURN(rpc::BulkResult result, client_->ApplyBulk(ops, bulk));
  calls_.apply_bulk_us.push_back(MicrosSince(start));
  if (result.applied != ops.size() || !result.failures.empty()) {
    return InternalError(
        "bulk applied " + std::to_string(result.applied) + "/" +
        std::to_string(ops.size()) + " ops" +
        (result.failures.empty() ? std::string()
                                 : ": " + result.failures[0].message));
  }
  return OkStatus();
}

Status Session::AwaitFirstForward(const FlowFrame& frame,
                                  const Expect& expect) {
  if (expect.dropped) return InvalidArgument("set-up probe must forward");
  for (const sockaddr_in& a : addrs_) {
    if (::sendto(io_.fd(), "", 0, 0, reinterpret_cast<const sockaddr*>(&a),
                 sizeof(a)) != 0) {
      return InternalError("peer registration failed");
    }
  }
  std::vector<uint8_t> bytes = frame.bytes;
  wire::UdpBatchReceiver rx(64, 2048);
  const int64_t deadline = NowNs() + 10'000'000'000;
  while (NowNs() < deadline) {
    const uint64_t tag = kSetupTagBit | setup_tag_++;
    WriteTag(bytes, tag);
    const sockaddr_in& to = addrs_.at(frame.in_port);
    ::sendto(io_.fd(), bytes.data(), bytes.size(), 0,
             reinterpret_cast<const sockaddr*>(&to), sizeof(to));
    pollfd pfd{io_.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 2);
    while (true) {
      auto got = rx.Recv(io_.fd());
      if (!got.ok() || *got == 0) break;
      for (uint32_t i = 0; i < *got; ++i) {
        std::span<const uint8_t> d = rx.data(i);
        const uint64_t t = ReadTag(d);
        if ((t & kSetupTagBit) == 0) continue;
        if (EgressOf(rx.from(i).sin_port) == expect.port &&
            FrameHash(d) == ExpectedHash(expect, t)) {
          return OkStatus();
        }
        return InternalError("set-up probe came back wrong (port " +
                             std::to_string(EgressOf(rx.from(i).sin_port)) +
                             ", want " + std::to_string(expect.port) + ")");
      }
    }
  }
  return DeadlineExceeded("no packet-out within 10 s of set-up");
}

double Session::CpuSeconds() {
  if (child_) return ProcessCpuSeconds(child_->pid());
  return traced_ ? traced_->CpuSeconds() : 0;
}

double Session::PeakRssMb() {
  // The traced loop shares the load generator's process, so only the
  // child's figure is the daemon's own.
  return child_ ? perfbench::PeakRssMb(child_->pid())
                : perfbench::PeakRssMb(::getpid());
}

Status Session::Stop() {
  if (client_) client_->Close();
  if (child_) return child_->Stop();
  if (traced_) traced_->Stop();
  return OkStatus();
}

uint64_t Session::udp_rx() const {
  return child_ ? child_->udp_rx()
                : (traced_ ? traced_->trace().counters.udp_rx : 0);
}

uint64_t Session::udp_tx() const {
  return child_ ? child_->udp_tx()
                : (traced_ ? traced_->trace().counters.udp_tx : 0);
}

}  // namespace perfbench
