// The switchd child process and the /proc readings taken from it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

// CPU seconds of process `pid` (all threads), from its CPU-time clock: the
// nanosecond count behind /proc/<pid>/stat's 10 ms user+sys ticks.
double ProcessCpuSeconds(pid_t pid);
// VmHWM of process `pid` in MiB, from /proc/<pid>/status.
double PeakRssMb(pid_t pid);
// Packets received on the loopback interface so far (/proc/net/dev).
uint64_t LoopbackRxPackets();
// /proc/loadavg's first three fields.
std::string LoadAverage();

// A switchd spawned with `args`, serving until Stop() or destruction.
class ChildSwitchd {
 public:
  static ipsa::Result<std::unique_ptr<ChildSwitchd>> Spawn(
      const std::string& path, const std::vector<std::string>& args,
      uint32_t udp_ports);
  ~ChildSwitchd();

  ChildSwitchd(const ChildSwitchd&) = delete;
  ChildSwitchd& operator=(const ChildSwitchd&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t control_port() const { return control_port_; }
  uint16_t udp_port(uint32_t i) const { return udp_ports_.at(i); }

  // SIGTERM, then waits for the exit (SIGKILL after 5 s). Parses the
  // counters switchd prints on the way out.
  ipsa::Status Stop();
  uint64_t udp_rx() const { return udp_rx_; }
  uint64_t udp_tx() const { return udp_tx_; }

 private:
  ChildSwitchd() = default;
  ipsa::Status ReadBanner(uint32_t udp_ports);

  pid_t pid_ = -1;
  int out_fd_ = -1;  // the child's stdout
  std::string out_;
  uint16_t control_port_ = 0;
  std::vector<uint16_t> udp_ports_;
  uint64_t udp_rx_ = 0;
  uint64_t udp_tx_ = 0;
};

}  // namespace perfbench
