#include "host/map.hpp"

namespace blap::host {

namespace {
constexpr std::uint8_t kListRequest = 0x20;
constexpr std::uint8_t kListResponse = 0x21;
constexpr std::uint8_t kGetRequest = 0x22;
constexpr std::uint8_t kGetResponse = 0x23;
}  // namespace

bool MapProfile::handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data) {
  ByteReader r(data);
  auto code = r.u8();
  if (!code) return false;
  if (*code == kListRequest) {
    ++serves_;
    ByteWriter w;
    w.u8(kListResponse);
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(messages_.size(), 255)));
    std::size_t emitted = 0;
    for (const auto& [handle, body] : messages_) {
      if (emitted++ == 255) break;
      w.u16(handle);
    }
    l2cap.send(channel, w.data());
    return true;
  }
  if (*code == kGetRequest) {
    auto handle = r.u16();
    if (!handle) return true;
    ++serves_;
    ByteWriter w;
    w.u8(kGetResponse).u16(*handle);
    auto it = messages_.find(*handle);
    if (it == messages_.end()) {
      w.u8(0).u16(0);
    } else {
      const std::string& body = it->second;
      const std::size_t n = std::min<std::size_t>(body.size(), 0xFFFF);
      w.u8(1).u16(static_cast<std::uint16_t>(n));
      w.raw(BytesView(reinterpret_cast<const std::uint8_t*>(body.data()), n));
    }
    l2cap.send(channel, w.data());
    return true;
  }
  return false;
}

void MapProfile::request_list(L2cap& l2cap, const L2capChannel& channel) {
  ByteWriter w;
  w.u8(kListRequest);
  l2cap.send(channel, w.data());
}

void MapProfile::request_message(L2cap& l2cap, const L2capChannel& channel,
                                 std::uint16_t handle) {
  ByteWriter w;
  w.u8(kGetRequest).u16(handle);
  l2cap.send(channel, w.data());
}

std::optional<MapProfile::Reply> MapProfile::parse_response(BytesView data) {
  ByteReader r(data);
  auto code = r.u8();
  if (!code) return std::nullopt;
  if (*code == kListResponse) {
    auto count = r.u8();
    if (!count) return std::nullopt;
    std::vector<std::uint16_t> handles;
    for (std::uint8_t i = 0; i < *count; ++i) {
      auto handle = r.u16();
      if (!handle) break;
      handles.push_back(*handle);
    }
    return Reply(std::move(handles));
  }
  if (*code == kGetResponse) {
    auto handle = r.u16();
    auto found = r.u8();
    auto len = r.u16();
    if (!handle || !found || !len) return std::nullopt;
    std::optional<std::string> body;
    if (*found) {
      auto bytes = r.bytes(*len);
      if (bytes) body = std::string(bytes->begin(), bytes->end());
    }
    return Reply(std::move(body));
  }
  return std::nullopt;
}

}  // namespace blap::host
