// The output oracle: an in-process twin of the daemon's device, pinned to
// the name-resolving interpreter (the reference lane every differential
// test compares against), that forwards each flow's frame and says which
// port it must leave on and with which bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "daemon/backends.h"
#include "harness.h"
#include "rpc/protocol.h"

namespace perfbench {

// What the twin did with a tag-zero frame. A packet-out with tag T is
// correct when it leaves on `port` and equals `bytes` with T in the last
// kTagBytes bytes.
struct Expect {
  bool dropped = true;
  uint32_t port = 0;
  std::vector<uint8_t> bytes;
};

uint64_t FrameHash(std::span<const uint8_t> bytes);
// FrameHash of `expect.bytes` with `tag` written into the tag bytes.
uint64_t ExpectedHash(const Expect& expect, uint64_t tag);

class Twin {
 public:
  Twin(ipsa::daemon::ArchKind arch, const ipsa::daemon::PoolTuning& pool);

  ipsa::Status Install(ipsa::rpc::InstallKind kind, const std::string& source);
  // Applies ops one by one, as the daemon's batch and bulk handlers do.
  ipsa::Status Apply(const std::vector<ipsa::rpc::TableOp>& ops);
  ipsa::Result<ipsa::compiler::ApiSpec> Api() { return backend_->Api(); }
  ipsa::Result<Expect> Forward(const FlowFrame& frame);

 private:
  std::unique_ptr<ipsa::daemon::DeviceBackend> backend_;
};

}  // namespace perfbench
