#include "oracle.h"

#include <cstring>

namespace perfbench {

using namespace ipsa;

uint64_t FrameHash(std::span<const uint8_t> bytes) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h ^ bytes.size();
}

uint64_t ExpectedHash(const Expect& expect, uint64_t tag) {
  uint8_t buf[2048];
  if (expect.bytes.size() > sizeof(buf) || expect.bytes.size() < kTagBytes) {
    return 0;  // never equals a received frame's hash in practice
  }
  std::memcpy(buf, expect.bytes.data(), expect.bytes.size());
  std::span<uint8_t> frame(buf, expect.bytes.size());
  WriteTag(frame, tag);
  return FrameHash(frame);
}

Twin::Twin(daemon::ArchKind arch, const daemon::PoolTuning& pool)
    : backend_(daemon::MakeBackend(arch, pool)) {
  backend_->SetForceInterpreter(true);
}

Status Twin::Install(rpc::InstallKind kind, const std::string& source) {
  return backend_->Install(kind, source).status();
}

Status Twin::Apply(const std::vector<rpc::TableOp>& ops) {
  for (const rpc::TableOp& op : ops) {
    IPSA_RETURN_IF_ERROR(backend_->ApplyTableOp(op));
  }
  return OkStatus();
}

Result<Expect> Twin::Forward(const FlowFrame& frame) {
  net::Packet packet{std::span<const uint8_t>(frame.bytes)};
  IPSA_ASSIGN_OR_RETURN(std::vector<daemon::TxPacket> out,
                        daemon::InjectAndDrain(*backend_, std::move(packet),
                                               frame.in_port));
  Expect e;
  if (out.size() > 1) {
    return FailedPrecondition("twin emitted " + std::to_string(out.size()) +
                              " packets for one frame; the oracle expects "
                              "unicast designs");
  }
  if (out.size() == 1) {
    e.dropped = false;
    e.port = out[0].port;
    e.bytes.assign(out[0].packet.bytes().begin(), out[0].packet.bytes().end());
  }
  return e;
}

}  // namespace perfbench
