// One daemon under test and the load generator's connections to it: the
// control client and the UDP socket that injects frames and receives every
// packet-out (it registers as the peer of all device ports).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "child.h"
#include "daemon/backends.h"
#include "harness.h"
#include "oracle.h"
#include "rpc/client.h"
#include "traced_loop.h"
#include "wire/socket.h"

namespace perfbench {

// Tags with this bit set are set-up probes, not measured packets.
inline constexpr uint64_t kSetupTagBit = 1ull << 63;

int64_t NowNs();

// Client-side round trips per control method, in µs.
struct ClientCalls {
  std::vector<double> install_us, fetch_api_us, apply_batch_us, apply_bulk_us;
  std::vector<double> compile_ms, load_ms;  // server-reported t_C / t_L
  std::vector<double> populate_ms;          // the populate ApplyBatch
};

struct DaemonConfig {
  ipsa::daemon::ArchKind arch = ipsa::daemon::ArchKind::kIpsa;
  ipsa::daemon::PoolTuning pool;
  std::string switchd_path;  // empty = the in-process traced loop
};

class Session {
 public:
  ~Session();

  // Spawns the daemon and connects; the clock for setup_s starts here.
  static ipsa::Result<std::unique_ptr<Session>> Open(const DaemonConfig& config);

  ipsa::rpc::Client& client() { return *client_; }
  ClientCalls& calls() { return calls_; }
  int io_fd() const { return io_.fd(); }
  const sockaddr_in& port_addr(uint32_t port) const { return addrs_.at(port); }
  // Device port that emitted a datagram from daemon UDP port `udp_port`,
  // or kUdpPorts when it is none of them.
  uint32_t EgressOf(uint16_t udp_port_be) const;

  // Timed, recorded control calls.
  ipsa::Status Install(ipsa::rpc::InstallKind kind, const std::string& source);
  ipsa::Result<ipsa::compiler::ApiSpec> FetchApi();
  ipsa::Status ApplyBatch(const std::vector<ipsa::rpc::TableOp>& ops,
                          bool populate);
  ipsa::Status ApplyBulk(const std::vector<ipsa::rpc::TableOp>& ops,
                         uint32_t ops_per_frame);

  // Registers the socket as every port's packet-out peer, then sends
  // `frame` until a packet-out matching `expect` comes back.
  ipsa::Status AwaitFirstForward(const FlowFrame& frame, const Expect& expect);

  double CpuSeconds();
  double PeakRssMb();
  // Stops the daemon; afterwards the daemon counters are final.
  ipsa::Status Stop();
  uint64_t udp_rx() const;
  uint64_t udp_tx() const;
  TracedSwitch* traced() { return traced_.get(); }

 private:
  Session() = default;

  std::unique_ptr<ChildSwitchd> child_;
  std::unique_ptr<TracedSwitch> traced_;
  std::unique_ptr<ipsa::rpc::Client> client_;
  ipsa::wire::Socket io_;
  std::vector<sockaddr_in> addrs_;
  std::vector<uint16_t> udp_ports_be_;
  ClientCalls calls_;
  uint64_t setup_tag_ = 0;
};

}  // namespace perfbench
