// map.hpp — Message Access Profile (simplified) over L2CAP.
//
// MAP is the third "sensitive data" service the paper's system model names
// ("Phone Book Access Profile (PBAP), Hands-Free Profile, and Message
// Access Profile (MAP)"): it exposes the phone's SMS store to paired
// accessories (car-kits display and read out messages). BLAP models it as
// an authenticated L2CAP service with a two-step protocol — list message
// handles, then fetch message bodies individually — so exfiltration needs
// multiple round trips, unlike PBAP's single pull.
//
// Simplification: real MAP is OBEX over RFCOMM with MNS notifications; the
// security property (profile gated on link authentication) is what BLAP
// studies and is preserved.
//
// Channel messages:
//   list request  : 0x20
//   list response : 0x21 | count u8 | count x handle u16
//   get request   : 0x22 | handle u16
//   get response  : 0x23 | handle u16 | found u8 | len u16 | body
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "host/l2cap.hpp"

namespace blap::host {

namespace psm_ext3 {
inline constexpr std::uint16_t kMap = 0x1007;
}

class MapProfile {
 public:
  using ListCallback = std::function<void(std::optional<std::vector<std::uint16_t>>)>;
  using GetCallback = std::function<void(std::optional<std::string>)>;

  /// Server side: the message store (handle -> body).
  void add_message(std::uint16_t handle, std::string body) {
    messages_[handle] = std::move(body);
  }
  void clear_messages() { messages_.clear(); }
  [[nodiscard]] std::size_t message_count() const { return messages_.size(); }
  [[nodiscard]] int serves() const { return serves_; }

  /// Handle an inbound MAP message if it is a request; false otherwise.
  bool handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data);

  /// Client side: request the handle list / one message body.
  void request_list(L2cap& l2cap, const L2capChannel& channel);
  void request_message(L2cap& l2cap, const L2capChannel& channel, std::uint16_t handle);

  /// Feed data arriving on a MAP channel we initiated.
  void on_client_data(BytesView data);

  void set_list_callback(ListCallback callback) { list_callback_ = std::move(callback); }
  void set_get_callback(GetCallback callback) { get_callback_ = std::move(callback); }

  /// Snapshot support (callback handling as in PanProfile).
  [[nodiscard]] bool quiescent() const { return !list_callback_ && !get_callback_; }
  void reset_pending() {
    list_callback_ = nullptr;
    get_callback_ = nullptr;
  }
  void save_state(state::StateWriter& w) const {
    w.u64(messages_.size());
    for (const auto& [handle, body] : messages_) {
      w.u16(handle);
      w.str(body);
    }
    w.u32(static_cast<std::uint32_t>(serves_));
  }
  void load_state(state::StateReader& r) {
    r.read_map(messages_, /*last_wins=*/true, [&r](std::uint16_t& handle, std::string& body) {
      handle = r.u16();
      r.str(body);
    });
    serves_ = static_cast<int>(r.u32());
  }

 private:
  std::map<std::uint16_t, std::string> messages_;
  ListCallback list_callback_;
  GetCallback get_callback_;
  int serves_ = 0;
};

}  // namespace blap::host
