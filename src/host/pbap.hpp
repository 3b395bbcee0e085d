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

#include <functional>
#include <string>
#include <vector>

#include "host/l2cap.hpp"

namespace blap::host {

namespace psm_ext {
inline constexpr std::uint16_t kPbap = 0x1003;
}

class PbapProfile {
 public:
  using PullCallback = std::function<void(std::optional<std::vector<std::string>>)>;

  /// Server side: entries served to authenticated peers.
  void set_phonebook(std::vector<std::string> entries) { phonebook_ = std::move(entries); }
  [[nodiscard]] const std::vector<std::string>& phonebook() const { return phonebook_; }
  [[nodiscard]] int serves() const { return serves_; }

  /// Handle an inbound PBAP message if it is a request; false otherwise.
  bool handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data);

  /// Client side: send the pull request on an opened channel.
  void pull(L2cap& l2cap, const L2capChannel& channel);

  /// Feed data arriving on a PBAP channel we initiated.
  void on_client_data(BytesView data);

  void set_client_callback(PullCallback callback) { client_callback_ = std::move(callback); }

  /// Snapshot support (callback handling as in PanProfile).
  [[nodiscard]] bool quiescent() const { return !client_callback_; }
  void reset_pending() { client_callback_ = nullptr; }
  void save_state(state::StateWriter& w) const {
    w.u64(phonebook_.size());
    for (const std::string& entry : phonebook_) w.str(entry);
    w.u32(static_cast<std::uint32_t>(serves_));
  }
  void load_state(state::StateReader& r) {
    r.read_vector(phonebook_, [&r](std::string& entry) { r.str(entry); });
    serves_ = static_cast<int>(r.u32());
  }

 private:
  std::vector<std::string> phonebook_;
  PullCallback client_callback_;
  int serves_ = 0;
};

}  // namespace blap::host
