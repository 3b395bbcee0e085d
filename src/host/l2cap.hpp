// l2cap.hpp — minimal L2CAP: channel establishment over ACL links.
//
// Just enough of L2CAP for the profiles BLAP's scenarios exercise (SDP,
// PAN/BNEP, PBAP, HFP and MAP; their PSMs are below) plus the echo request —
// the "dummy data" keep-alive the paper suggests for holding a PLOC link
// open past the host's idle timeout.
//
// Framing: every ACL payload is [CID u16 LE][data]. CID 0x0001 is the
// signaling channel carrying [code u8][id u8][len u16][payload] commands;
// dynamically allocated CIDs (0x0040+) carry raw service data.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "common/bytes.hpp"
#include "common/state_io.hpp"
#include "hci/constants.hpp"

namespace blap::host {

namespace psm {
inline constexpr std::uint16_t kSdp = 0x0001;
inline constexpr std::uint16_t kBnep = 0x000F;  // PAN profile transport
inline constexpr std::uint16_t kPbap = 0x1003;
inline constexpr std::uint16_t kHfp = 0x1005;
inline constexpr std::uint16_t kMap = 0x1007;
}  // namespace psm

struct L2capChannel {
  hci::ConnectionHandle acl_handle = hci::kInvalidHandle;
  std::uint16_t local_cid = 0;
  std::uint16_t remote_cid = 0;
  std::uint16_t psm = 0;

  /// Shared by L2cap's channel map, the host's HFP channels and a MAP read.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self) {
    io.field(self.acl_handle);
    io.field(self.local_cid);
    io.field(self.remote_cid);
    io.field(self.psm);
  }
};

class L2cap {
 public:
  /// Sends an assembled ACL payload (CID + data) toward the controller.
  using AclSender = std::function<void(hci::ConnectionHandle, BytesView)>;
  /// GAP Security Mode 4 service levels (Vol 3, Part C §5.2.2): what the
  /// link must provide before a channel on this PSM may open.
  enum class SecurityLevel : std::uint8_t {
    kNone = 0,           // level 1: SDP and the like
    kAuthenticated = 2,  // level 2: any link key (Just Works suffices)
    kMitmProtected = 3,  // level 3: authenticated (MITM-protected) key only
  };

  /// Service callbacks: channel opened (by a remote peer), data received.
  struct Service {
    std::function<void(const L2capChannel&)> on_open;
    std::function<void(const L2capChannel&, BytesView)> on_data;
    /// Services like PAN require the link to be authenticated before a
    /// channel may open; the host enforces this via the gate callback.
    bool requires_authentication = false;
    /// Level-3 services additionally demand a MITM-protected key — the
    /// policy that would blunt the Just Works downgrade if deployed.
    SecurityLevel minimum_security = SecurityLevel::kNone;
  };
  using ConnectCallback = std::function<void(std::optional<L2capChannel>)>;

  explicit L2cap(AclSender sender) : sender_(std::move(sender)) {}

  /// Register the local service listening on a PSM.
  void register_service(std::uint16_t psm_value, Service service);

  /// Authentication oracle consulted before accepting inbound channels on
  /// protected PSMs. Default: deny.
  void set_auth_oracle(std::function<bool(hci::ConnectionHandle)> oracle) {
    auth_oracle_ = std::move(oracle);
  }

  /// MITM oracle for level-3 services: is the link's key authenticated
  /// (Numeric Comparison / Passkey), not a Just Works key? Default: deny.
  void set_mitm_oracle(std::function<bool(hci::ConnectionHandle)> oracle) {
    mitm_oracle_ = std::move(oracle);
  }

  /// Open an outbound channel.
  void connect_channel(hci::ConnectionHandle handle, std::uint16_t psm_value,
                       ConnectCallback callback);

  /// Send data on an established channel.
  void send(const L2capChannel& channel, BytesView data);

  /// Send an echo request (keep-alive / RTT probe). Callback on response.
  void echo(hci::ConnectionHandle handle, BytesView payload, std::function<void()> on_response);

  /// Feed an inbound ACL payload from the controller.
  void on_acl_data(hci::ConnectionHandle handle, BytesView payload);

  /// Drop all channels on a dead ACL link.
  void on_disconnected(hci::ConnectionHandle handle);

  /// Open channel count on a link — the host's idle policy keys off this.
  [[nodiscard]] std::size_t channel_count(hci::ConnectionHandle handle) const;

  /// No in-flight signaling exchanges holding completion callbacks — the
  /// precondition for a strict (forkable) snapshot of this layer.
  [[nodiscard]] bool quiescent() const { return pending_.empty() && pending_echo_.empty(); }

  /// Snapshot support: established channels and the CID/signaling-id
  /// allocators. Pending connects/echoes hold callbacks and are not
  /// serialized: kRewind clears them (a strict capture point has none),
  /// kInPlace leaves them running.
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

 private:
  struct PendingConnect {
    std::uint16_t psm = 0;
    ConnectCallback callback;
  };

  void handle_signaling(hci::ConnectionHandle handle, BytesView payload);
  void send_signaling(hci::ConnectionHandle handle, std::uint8_t code, std::uint8_t id,
                      BytesView payload);
  std::uint16_t allocate_cid();

  AclSender sender_;
  std::map<std::uint16_t, Service> services_;
  std::function<bool(hci::ConnectionHandle)> auth_oracle_;
  std::function<bool(hci::ConnectionHandle)> mitm_oracle_;
  // Channels keyed by (handle, local_cid).
  std::map<std::pair<hci::ConnectionHandle, std::uint16_t>, L2capChannel> channels_;
  // Outstanding outbound connects keyed by (handle, signaling id).
  std::map<std::pair<hci::ConnectionHandle, std::uint8_t>, PendingConnect> pending_;
  std::map<std::pair<hci::ConnectionHandle, std::uint8_t>, std::function<void()>> pending_echo_;
  std::uint16_t next_cid_ = 0x0040;
  std::uint8_t next_id_ = 1;
};

}  // namespace blap::host
