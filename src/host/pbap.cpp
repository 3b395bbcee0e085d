#include "host/pbap.hpp"

namespace blap::host {

namespace {
constexpr std::uint8_t kPullRequest = 0x10;
constexpr std::uint8_t kPullResponse = 0x11;
}  // namespace

bool PbapProfile::handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data) {
  ByteReader r(data);
  auto code = r.u8();
  if (!code || *code != kPullRequest) return false;
  ++serves_;
  ByteWriter w;
  w.u8(kPullResponse);
  w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(phonebook_.size(), 255)));
  for (std::size_t i = 0; i < phonebook_.size() && i < 255; ++i) {
    const std::string& entry = phonebook_[i];
    const std::size_t n = std::min<std::size_t>(entry.size(), 255);
    w.u8(static_cast<std::uint8_t>(n));
    w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(entry.data()), n));
  }
  l2cap.send(channel, w.data());
  return true;
}

void PbapProfile::pull(L2cap& l2cap, const L2capChannel& channel) {
  ByteWriter w;
  w.u8(kPullRequest);
  l2cap.send(channel, w.data());
}

std::optional<std::vector<std::string>> PbapProfile::parse_response(BytesView data) {
  ByteReader r(data);
  auto code = r.u8();
  auto count = r.u8();
  if (!code || *code != kPullResponse || !count) return std::nullopt;
  std::vector<std::string> entries;
  for (std::uint8_t i = 0; i < *count; ++i) {
    auto len = r.u8();
    if (!len) break;
    auto bytes = r.bytes(*len);
    if (!bytes) break;
    entries.emplace_back(bytes->begin(), bytes->end());
  }
  return entries;
}

}  // namespace blap::host
