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

#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "host/l2cap.hpp"

namespace blap::host {

class MapProfile {
 public:
  /// A server reply seen by the client: the handle list, or one message
  /// body (nullopt when the server has no such handle).
  using Reply = std::variant<std::vector<std::uint16_t>, std::optional<std::string>>;

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

  /// Client side: parse data arriving on a MAP channel we initiated; nullopt
  /// when it is neither a list nor a get response.
  [[nodiscard]] static std::optional<Reply> parse_response(BytesView data);

  /// Snapshot support: the message store (the client half holds no state,
  /// as in PanProfile).
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self) {
    io.map(self.messages_, state::Duplicates::kLastWins, [&io](auto& handle, auto& body) {
      io.field(handle);
      io.field(body);
    });
    io.field(self.serves_);
  }

 private:
  std::map<std::uint16_t, std::string> messages_;
  int serves_ = 0;
};

}  // namespace blap::host
