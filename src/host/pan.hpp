// pan.hpp — the PAN (Bluetooth tethering) profile over BNEP / L2CAP 0x000F.
//
// PAN is the profile the paper uses to *validate extracted link keys*
// (§VI-B1): install a fake bond containing the key, open a PAN connection to
// the victim, and observe whether LMP authentication succeeds without a new
// pairing. BLAP reproduces that exact probe: PAN requires authentication, so
// connecting triggers the bonded-device authentication path.
//
// BNEP setup on the channel:
//   request : 0x01 | role u8 (0x00 PANU -> NAP)
//   response: 0x02 | status u8 (0x00 success)
#pragma once

#include <optional>

#include "host/l2cap.hpp"

namespace blap::host {

class PanProfile {
 public:
  /// Handle an inbound BNEP message if it is a setup request. Returns false
  /// when it is not a request (a response for the client role instead).
  bool handle_server(L2cap& l2cap, const L2capChannel& channel, BytesView data);

  /// Client side: run BNEP setup on an already-opened L2CAP channel.
  void setup(L2cap& l2cap, const L2capChannel& channel);

  /// Client side: parse data arriving on a PAN channel we initiated. A setup
  /// response yields whether the NAP accepted; anything else nullopt.
  [[nodiscard]] static std::optional<bool> parse_response(BytesView payload);

  [[nodiscard]] bool server_session_active() const { return server_sessions_ > 0; }

  /// Snapshot support. The client half holds no state: the host's op
  /// waits on the response.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self) {
    io.field(self.server_sessions_);
  }

 private:
  int server_sessions_ = 0;
};

}  // namespace blap::host
