#include "child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

using namespace ipsa;

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

double ProcessCpuSeconds(pid_t pid) {
  clockid_t cid;
  timespec ts{};
  if (::clock_getcpuclockid(pid, &cid) != 0 || ::clock_gettime(cid, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb(pid_t pid) {
  std::istringstream in(ReadFile("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t LoopbackRxPackets() {
  std::istringstream in(ReadFile("/proc/net/dev"));
  std::string line;
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(0, name.find_first_not_of(' '));
    if (name != "lo") continue;
    std::istringstream fields(line.substr(colon + 1));
    uint64_t bytes = 0, packets = 0;
    fields >> bytes >> packets;
    return packets;
  }
  return 0;
}

std::string LoadAverage() {
  std::istringstream in(ReadFile("/proc/loadavg"));
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

Result<std::unique_ptr<ChildSwitchd>> ChildSwitchd::Spawn(
    const std::string& path, const std::vector<std::string>& args,
    uint32_t udp_ports) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return InternalError("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
  std::vector<std::string> argv_s = {path};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  auto child = std::unique_ptr<ChildSwitchd>(new ChildSwitchd());
  const int rc = ::posix_spawn(&child->pid_, path.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipefd[1]);
  child->out_fd_ = pipefd[0];
  if (rc != 0) {
    child->pid_ = -1;
    return InternalError("spawn " + path + ": " + std::strerror(rc));
  }
  IPSA_RETURN_IF_ERROR(child->ReadBanner(udp_ports));
  return child;
}

Status ChildSwitchd::ReadBanner(uint32_t udp_ports) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  udp_ports_.assign(udp_ports, 0);
  uint32_t seen = 0;
  size_t line_start = 0;
  while (seen < udp_ports) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return DeadlineExceeded("switchd did not report its ports");
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n <= 0) return Unavailable("switchd exited during start-up");
    out_.append(buf, static_cast<size_t>(n));
    size_t nl;
    while ((nl = out_.find('\n', line_start)) != std::string::npos) {
      const std::string line = out_.substr(line_start, nl - line_start);
      line_start = nl + 1;
      unsigned a = 0, b = 0;
      if (std::sscanf(line.c_str(), "control %*[^:]:%u", &a) == 1) {
        control_port_ = static_cast<uint16_t>(a);
      } else if (std::sscanf(line.c_str(), "udp port %u %u", &a, &b) == 2 &&
                 a < udp_ports) {
        udp_ports_[a] = static_cast<uint16_t>(b);
        ++seen;
      }
    }
  }
  out_.erase(0, line_start);
  return OkStatus();
}

Status ChildSwitchd::Stop() {
  if (pid_ < 0) return OkStatus();
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(out_fd_, buf, sizeof(buf))) > 0) {
    out_.append(buf, static_cast<size_t>(n));
  }
  ::close(out_fd_);
  out_fd_ = -1;
  unsigned long long rx = 0, tx = 0;
  const size_t at = out_.find("udp rx/tx");
  if (at != std::string::npos &&
      std::sscanf(out_.c_str() + at, "udp rx/tx %llu/%llu", &rx, &tx) == 2) {
    udp_rx_ = rx;
    udp_tx_ = tx;
  }
  if (done == 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return InternalError("switchd did not exit cleanly");
  }
  return OkStatus();
}

ChildSwitchd::~ChildSwitchd() {
  (void)Stop();
  if (out_fd_ >= 0) ::close(out_fd_);
}

}  // namespace perfbench
