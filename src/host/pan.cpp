#include "host/pan.hpp"

namespace blap::host {

namespace {
constexpr std::uint8_t kSetupRequest = 0x01;
constexpr std::uint8_t kSetupResponse = 0x02;
}  // namespace

bool PanProfile::handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data) {
  ByteReader r(data);
  auto code = r.u8();
  if (!code || *code != kSetupRequest) return false;
  ++server_sessions_;
  ByteWriter w;
  w.u8(kSetupResponse).u8(0x00);
  l2cap.send(channel, w.data());
  return true;
}

void PanProfile::setup(L2cap& l2cap, const L2capChannel& channel) {
  ByteWriter w;
  w.u8(kSetupRequest).u8(0x00);  // PANU connecting to a NAP
  l2cap.send(channel, w.data());
}

std::optional<bool> PanProfile::parse_response(BytesView payload) {
  ByteReader r(payload);
  auto code = r.u8();
  auto status = r.u8();
  if (!code || *code != kSetupResponse || !status) return std::nullopt;
  return *status == 0x00;
}

}  // namespace blap::host
