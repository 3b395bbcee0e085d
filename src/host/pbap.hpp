// pbap.hpp — Phone Book Access Profile (simplified) over L2CAP.
//
// PBAP is the paper's headline exfiltration target: the §III system model
// makes M "a device with sensitive data which can be shared via Bluetooth
// profile services such as Phone Book Access Profile", and §IV promises that
// a stolen link key leaks "phone books, messages, and phone call
// conversations". BLAP models PBAP as an authenticated L2CAP service that
// serves the host's configured phone book.
//
// Simplification: real PBAP runs OBEX over RFCOMM; BLAP serves the same
// request/response content directly over an L2CAP channel (PSM 0x1003). The
// security property under study — the profile is gated on link
// authentication, so possession of the link key IS access to the data — is
// identical.
//
// Channel messages:
//   request : 0x10 (pull phone book)
//   response: 0x11 | count u8 | count x (len u8 | utf8 vCard-ish entry)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "host/l2cap.hpp"

namespace blap::host {

class PbapProfile {
 public:
  /// Server side: entries served to authenticated peers.
  void set_phonebook(std::vector<std::string> entries) { phonebook_ = std::move(entries); }
  [[nodiscard]] const std::vector<std::string>& phonebook() const { return phonebook_; }
  [[nodiscard]] int serves() const { return serves_; }

  /// Handle an inbound PBAP message if it is a request; false otherwise.
  bool handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data);

  /// Client side: send the pull request on an opened channel.
  void pull(L2cap& l2cap, const L2capChannel& channel);

  /// Client side: parse data arriving on a PBAP channel we initiated. A
  /// pull response yields its entries; anything else nullopt.
  [[nodiscard]] static std::optional<std::vector<std::string>> parse_response(BytesView data);

  /// Snapshot support: the served phone book (the client half holds no
  /// state, as in PanProfile).
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self) {
    io.seq(self.phonebook_);
    io.field(self.serves_);
  }

 private:
  std::vector<std::string> phonebook_;
  int serves_ = 0;
};

}  // namespace blap::host
