// host.hpp — the bluedroid-shaped Bluetooth host stack.
//
// The host is where both BLAP attacks live, because the host is what a
// phone's user (or an attacker with user-level access) can modify — unlike
// the controller firmware BIAS/KNOB had to reflash. The two hook points
// mirror the paper's patches:
//
//   * AttackHooks::ignore_link_key_request — Fig. 9's commented-out
//     btu_hcif_link_key_request_evt(): the host silently drops the
//     controller's key request, so the peer's LMP challenge times out and
//     the link drops WITHOUT an authentication failure.
//
//   * AttackHooks::ploc_delay — Fig. 13's usleep before
//     btu_hcif_connection_comp_evt(): processing of HCI events stalls from
//     the Connection_Complete onward, leaving a Physical-Layer-Only
//     Connection (PLOC) the victim's host mistakes for a host-level link.
//
// GAP behaviour reproduced from real stacks, including the one the page
// blocking attack exploits: pair() *reuses an existing ACL connection* to
// the target address instead of re-paging — so a victim holding a PLOC to a
// spoofed attacker sends its pairing request straight down the attacker's
// link (paper §V-B, Fig. 6b).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <optional>
#include <vector>

#include "common/log.hpp"
#include "common/scheduler.hpp"
#include "hci/commands.hpp"
#include "obs/obs.hpp"
#include "hci/events.hpp"
#include "hci/snoop.hpp"
#include "host/hfp.hpp"
#include "host/l2cap.hpp"
#include "host/map.hpp"
#include "host/pan.hpp"
#include "host/pbap.hpp"
#include "host/sdp.hpp"
#include "host/security_manager.hpp"
#include "host/ui_model.hpp"
#include "transport/transport.hpp"

namespace blap::host {

struct HostConfig {
  std::string device_name = "blap-host";
  BtVersion version = BtVersion::kV5_0;
  hci::IoCapability io_capability = hci::IoCapability::kDisplayYesNo;
  std::uint8_t auth_requirements = 0x03;  // MITM protection + dedicated bonding
  bool auto_accept_connections = true;
  /// Idle ACL links with no L2CAP channels are dropped after this long —
  /// the host policy that forces the PLOC keep-alive question.
  SimTime acl_idle_timeout = 15 * kSecond;
  /// Whether this platform exposes an HCI dump facility at all (Android and
  /// BlueZ: yes; Windows host stacks: no — USB sniffing is needed there).
  bool hci_dump_available = true;
  /// §VII-B mitigation: abort a pairing when we are the pairing initiator but
  /// were the *connection responder* and the connection initiator declares
  /// NoInputNoOutput — the page blocking signature.
  bool detect_page_blocking = false;
  /// PIN supplied during legacy (pre-SSP) pairing when no UserAgent
  /// overrides it. Real users overwhelmingly chose short numeric PINs —
  /// the weakness SSP was designed to retire (paper §II-C1).
  crypto::PinCode pin_code = "0000";
  /// Secure Simple Pairing support. false models a pre-2.1 stack: pairing
  /// falls back to the legacy PIN procedure (either side lacking SSP
  /// downgrades the pair of them).
  bool simple_pairing = true;
  /// Fault-recovery master switch (set by Simulation::set_fault_plan). While
  /// off — the default — the host schedules no watchdog events and never
  /// retries, so a fault-free run is byte-identical to a pre-fault-layer one.
  bool fault_recovery = false;
  /// Watchdog over an in-flight pair/profile operation: if it neither
  /// completes nor fails within this window the host fails it with
  /// Connection Timeout and drops the wedged ACL, instead of hanging forever
  /// on an HCI exchange whose reply was lost.
  SimTime pair_op_watchdog = 90 * kSecond;
};

/// Host-stack manipulation points used by the attacks (paper Figs. 9 & 13).
struct AttackHooks {
  bool ignore_link_key_request = false;
  SimTime ploc_delay = 0;
  /// Wedged-host model: neither accept nor reject inbound connection
  /// requests, leaving the half-open baseband link to the controller's
  /// connection-accept timer. Exercises the timeout/recovery path.
  bool ignore_connection_request = false;
};

/// Simulated human in front of the device. The default accepts every popup —
/// the paper's §V-B2 argument for why a page-blocked victim confirms: the
/// user *did* initiate a pairing, the popup is timely, and it carries no
/// value that could expose the spoof.
class UserAgent {
 public:
  virtual ~UserAgent() = default;
  /// `numeric_value` is set only when the popup displays a comparison value.
  virtual bool on_pairing_popup(const BdAddr& peer, std::optional<std::uint32_t> numeric_value) {
    (void)peer;
    (void)numeric_value;
    return true;
  }

  /// Legacy pairing PIN prompt. Return std::nullopt to use the host's
  /// configured pin_code; an empty string refuses the pairing.
  virtual std::optional<std::string> on_pin_request(const BdAddr& peer) {
    (void)peer;
    return std::nullopt;
  }
};

struct PopupRecord {
  BdAddr peer;
  bool shown_to_user = false;
  std::optional<std::uint32_t> numeric_value;
  bool accepted = false;
  SimTime at = 0;
};

class HostStack {
 public:
  using StatusCallback = std::function<void(hci::Status)>;
  using BoolCallback = std::function<void(bool)>;
  /// PBAP phone book entries or MAP message bodies; nullopt on failure.
  using ListCallback = std::function<void(std::optional<std::vector<std::string>>)>;

  struct Discovered {
    BdAddr address;
    ClassOfDevice class_of_device;
    std::string name;           // from the EIR complete-local-name, if any
    std::int8_t rssi = 0;       // 0 when the basic (pre-EIR) event arrived
  };

  struct AclInfo {
    hci::ConnectionHandle handle = hci::kInvalidHandle;
    BdAddr peer;
    bool initiator = false;
    bool authenticated = false;
    bool encrypted = false;
    /// The link survived but an operation over it failed or hung (fault
    /// recovery kicked in). Callers can treat it as best-effort.
    bool degraded = false;
  };

  HostStack(Scheduler& scheduler, transport::HciTransport& transport, HostConfig config);

  /// Initialize the controller: Reset, Read_BD_ADDR, scan enable, local
  /// name, COD, Simple Pairing mode. Run the scheduler afterwards.
  void power_on();

  // --- GAP operations -------------------------------------------------------

  /// Inquiry for `inquiry_length` x 1.28 s; callback gets all responders.
  void discover(std::uint8_t inquiry_length,
                std::function<void(std::vector<Discovered>)> callback);

  /// Change discoverability/connectability. kPageOnly hides the device from
  /// inquiry; kNone makes it non-connectable — the §II-B defense that
  /// disables the page procedure entirely (and with it, page blocking).
  void set_scan_mode(hci::ScanEnable mode);

  /// SDP query: does the peer advertise `uuid16`? Opens an SDP channel over
  /// the existing or a fresh ACL. Callback gets nullopt on failure.
  void discover_services(const BdAddr& peer, std::uint16_t uuid16,
                         std::function<void(std::optional<SdpClient::Result>)> callback);

  /// Ask the peer for its user-friendly name (LMP name request).
  void request_remote_name(const BdAddr& peer,
                           std::function<void(std::optional<std::string>)> callback);

  // Operations: pair and the four profile ops below share one slot. A
  // second op while one is in flight fails at once (kPairingNotAllowed,
  // false or nullopt); otherwise the callback fires exactly once, when the
  // op succeeds or finally fails (after any fault-recovery retries).

  /// Pair / authenticate with a peer. Reuses an existing ACL if present
  /// (the page blocking attack's entry point); otherwise pages first. On
  /// success the link is authenticated AND encrypted.
  void pair(const BdAddr& peer, StatusCallback callback);

  /// Establish an ACL connection WITHOUT pairing — the attacker's first
  /// page blocking step (connection initiator, never pairing initiator).
  void connect_only(const BdAddr& peer, StatusCallback callback);

  /// Open a PAN (tethering) connection: ensures authentication, then
  /// L2CAP/BNEP setup. The paper's link-key validation probe.
  void connect_pan(const BdAddr& peer, BoolCallback callback);

  /// Pull the peer's phone book over PBAP: ensures authentication, then
  /// opens the PBAP channel and requests the entries. This is the "mine
  /// sensitive information" end state of the paper's attack model (§III-B).
  void pull_phonebook(const BdAddr& peer, ListCallback callback);

  /// Read every message from the peer's MAP store: ensures authentication,
  /// lists the handles, then fetches each body. Callback gets nullopt on
  /// failure. The last of the paper's three §III "sensitive data" services.
  void read_messages(const BdAddr& peer, ListCallback callback);

  /// Open an HFP control/audio channel to the peer (ensures authentication).
  /// Afterwards hfp_send_at()/hfp_send_audio() operate on the open channel.
  void connect_hfp(const BdAddr& peer, BoolCallback callback);
  void hfp_send_at(const BdAddr& peer, const std::string& command);
  void hfp_send_audio(const BdAddr& peer, BytesView samples);
  [[nodiscard]] bool hfp_channel_open(const BdAddr& peer) const {
    return hfp_channels_.contains(peer);
  }

  /// Send an L2CAP echo (PLOC keep-alive dummy data).
  void send_echo(const BdAddr& peer, std::function<void()> on_response);

  void disconnect(const BdAddr& peer,
                  hci::Status reason = hci::Status::kRemoteUserTerminatedConnection);

  // --- state ---------------------------------------------------------------

  [[nodiscard]] bool has_acl(const BdAddr& peer) const;
  [[nodiscard]] std::vector<AclInfo> acls() const;
  [[nodiscard]] const BdAddr& address() const { return own_address_; }
  [[nodiscard]] const HostConfig& config() const { return config_; }
  [[nodiscard]] HostConfig& config() { return config_; }

  [[nodiscard]] SecurityManager& security() { return security_; }
  [[nodiscard]] const SecurityManager& security() const { return security_; }
  /// Replace the bond database wholesale — installing fake bonding info is
  /// exactly editing bt_config.conf (paper Fig. 10).
  void install_security(SecurityManager manager) { security_ = std::move(manager); }

  [[nodiscard]] AttackHooks& hooks() { return hooks_; }

  /// HCI dump control (Android's 'Bluetooth HCI snoop log' toggle).
  void enable_snoop(bool enabled);
  [[nodiscard]] bool snoop_enabled() const { return snoop_enabled_; }
  [[nodiscard]] hci::SnoopLog& snoop() { return snoop_; }
  [[nodiscard]] const hci::SnoopLog& snoop() const { return snoop_; }

  /// Attach (or clear, with nullptr) the simulation's observer. The host
  /// records HCI dispatch counts, link-key request handling (including the
  /// Fig. 9 stall), bond stores, PLOC windows and pair-operation spans.
  void set_observer(obs::Observer* observer) {
    obs_ = observer;
    obs_tid_ = observer != nullptr ? observer->device_tid(config_.device_name) : 0;
  }

  void set_user_agent(UserAgent* agent) { user_agent_ = agent; }
  [[nodiscard]] const std::vector<PopupRecord>& popup_history() const { return popups_; }

  [[nodiscard]] int ignored_link_key_requests() const { return ignored_link_key_requests_; }
  [[nodiscard]] const PanProfile& pan() const { return pan_; }
  [[nodiscard]] PbapProfile& pbap() { return pbap_; }
  [[nodiscard]] const PbapProfile& pbap() const { return pbap_; }
  [[nodiscard]] HfpProfile& hfp() { return hfp_; }
  [[nodiscard]] const HfpProfile& hfp() const { return hfp_; }
  [[nodiscard]] MapProfile& map() { return map_; }
  [[nodiscard]] const MapProfile& map() const { return map_; }
  [[nodiscard]] L2cap& l2cap() { return l2cap_; }

  /// Pairing events observed (peer, success) — test/bench instrumentation.
  [[nodiscard]] const std::vector<std::pair<BdAddr, bool>>& pairing_events() const {
    return pairing_events_;
  }

  /// Snapshot support (see src/snapshot/). quiescent() is the strict-capture
  /// precondition: no in-flight GAP/profile operation holds a completion
  /// callback and no PLOC stall is replaying queued packets. persist
  /// covers every serializable member; kRewind restores additionally clear
  /// the non-serializable residue (operation callbacks, a non-default user
  /// agent) so a forked trial starts from exactly the captured state.
  [[nodiscard]] bool quiescent() const;
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

 private:
  enum class OpStage : std::uint8_t { kConnecting, kAuthenticating, kEncrypting, kChannel };

  /// What an op does once the link is secure: nothing more (pair), or open
  /// the profile's channel. Each profile is named by its PSM.
  enum class ProfileTarget : std::uint16_t {
    kNone = 0,
    kPan = psm::kBnep,
    kPbap = psm::kPbap,
    kHfp = psm::kHfp,
    kMap = psm::kMap,
  };

  /// An op's result: PBAP entries or MAP bodies, nullopt for other ops and
  /// on failure.
  using OpResult = std::optional<std::vector<std::string>>;
  using OpDone = std::function<void(hci::Status, OpResult)>;

  /// The one in-flight op. `done` is its only continuation: every way out
  /// calls it exactly once, after the slot is released.
  struct PairOp {
    BdAddr peer;
    ProfileTarget profile = ProfileTarget::kNone;
    OpStage stage = OpStage::kConnecting;
    std::uint64_t obs_span = 0;  // pair() only
    OpDone done;
    EventHandle watchdog;  // armed only when fault_recovery is on
  };

  struct Acl {
    hci::ConnectionHandle handle = hci::kInvalidHandle;
    BdAddr peer;
    bool initiator = false;
    bool authenticated = false;
    bool encrypted = false;
    hci::IoCapability peer_io = hci::IoCapability::kDisplayYesNo;
    bool is_pairing_initiator = false;  // we sent Authentication_Requested
    bool degraded = false;              // see AclInfo::degraded
    SimTime last_activity = 0;
    EventHandle idle_timer;
  };

  // HCI plumbing.
  void send_command(const hci::HciPacket& packet);
  void on_packet(const hci::HciPacket& packet);
  void process_packet(const hci::HciPacket& packet);
  void dispatch_event(std::uint8_t code, BytesView params);

  // btu_hcif-style event handlers.
  void on_connection_request(const hci::ConnectionRequestEvt& evt);
  void on_connection_complete(const hci::ConnectionCompleteEvt& evt);
  void on_disconnection_complete(const hci::DisconnectionCompleteEvt& evt);
  void on_link_key_request(const hci::LinkKeyRequestEvt& evt);
  void on_pin_code_request(const hci::PinCodeRequestEvt& evt);
  void on_link_key_notification(const hci::LinkKeyNotificationEvt& evt);
  void on_io_capability_request(const hci::IoCapabilityRequestEvt& evt);
  void on_io_capability_response(const hci::IoCapabilityResponseEvt& evt);
  void on_user_confirmation_request(const hci::UserConfirmationRequestEvt& evt);
  void on_simple_pairing_complete(const hci::SimplePairingCompleteEvt& evt);
  void on_authentication_complete(const hci::AuthenticationCompleteEvt& evt);
  void on_encryption_change(const hci::EncryptionChangeEvt& evt);
  void on_inquiry_result(const hci::InquiryResultEvt& evt);
  void on_extended_inquiry_result(const hci::ExtendedInquiryResultEvt& evt);
  void on_inquiry_complete();
  void on_remote_name_complete(const hci::RemoteNameRequestCompleteEvt& evt);
  void on_command_complete(const hci::CommandCompleteEvt& evt);

  // The op path: start_op -> secure_link (connect, authenticate, encrypt)
  // -> start_profile_channel -> complete_op. finish_pair_op ends the link
  // stage (and may retry); complete_op delivers a profile channel's answer.
  void start_op(const BdAddr& peer, ProfileTarget profile, OpDone done);
  void secure_link(const BdAddr& peer);
  void continue_pair_after_connect(Acl& acl);
  void finish_pair_op(const BdAddr& peer, hci::Status status);
  void start_profile_channel(const BdAddr& peer);
  [[nodiscard]] bool op_awaits(ProfileTarget profile, const BdAddr& peer) const;
  void answer_op(ProfileTarget profile, const L2capChannel& channel, hci::Status status,
                 OpResult result = std::nullopt);
  void complete_op(hci::Status status, OpResult result);
  PairOp release_op();
  void deliver(PairOp op, hci::Status status, OpResult result);
  void on_map_reply(MapProfile::Reply reply);
  void touch(Acl& acl);
  void arm_idle_timer(Acl& acl);

  // Fault-recovery helpers. While config_.fault_recovery is off the watchdog
  // is never armed and no retry is ever scheduled.
  void adopt_pair_op(PairOp op);
  void arm_pair_watchdog();
  void retry_pair_op(PairOp op);
  void mark_degraded(const BdAddr& peer, const char* why);

  Acl* acl_by_peer(const BdAddr& peer);
  Acl* acl_by_handle(hci::ConnectionHandle handle);

  Scheduler& scheduler_;
  transport::HciTransport& transport_;
  HostConfig config_;
  BdAddr own_address_;
  obs::Observer* obs_ = nullptr;
  std::uint32_t obs_tid_ = 0;
  std::uint64_t obs_ploc_span_ = 0;

  SecurityManager security_;
  AttackHooks hooks_;
  L2cap l2cap_;
  SdpServer sdp_server_;
  SdpClient sdp_client_;
  PanProfile pan_;
  PbapProfile pbap_;
  HfpProfile hfp_;
  MapProfile map_;
  std::map<BdAddr, L2capChannel> hfp_channels_;
  // In-flight MAP exfiltration state (client role), live only while its
  // read_messages op holds the slot. Empty `handles` with `next_index` 0
  // means the handle list is outstanding; otherwise one message body is.
  struct MapReadState {
    L2capChannel channel;
    std::vector<std::uint16_t> handles;
    std::size_t next_index = 0;
    std::vector<std::string> bodies;
  };
  std::optional<MapReadState> map_read_;
  UserAgent default_user_;
  UserAgent* user_agent_ = &default_user_;

  // Ordered map: iteration order (acls(), has_acl scans) is part of the
  // determinism contract — it must not depend on hash-table layout.
  std::map<hci::ConnectionHandle, Acl> acls_;
  /// Peers whose Connection_Request this host answered with Accept and whose
  /// Connection_Complete is still outstanding. A successful
  /// Connection_Complete with no pending accept and no pending outgoing op
  /// is unsolicited (a controller bug or injected traffic) and is ignored —
  /// it must not fabricate host ACL state for a link that does not exist.
  /// Transient by construction (in-flight HCI exchange), so never captured
  /// in a strict snapshot and not serialized; cleared on kRewind restore.
  std::set<BdAddr> pending_accepts_;
  std::optional<PairOp> pair_op_;
  std::optional<std::pair<BdAddr, StatusCallback>> connect_op_;
  std::optional<std::function<void(std::vector<Discovered>)>> discovery_callback_;
  std::optional<std::pair<BdAddr, std::function<void(std::optional<std::string>)>>>
      name_request_;
  int detected_page_blocking_count_ = 0;

 public:
  [[nodiscard]] int detected_page_blocking_count() const { return detected_page_blocking_count_; }

 private:
  std::vector<Discovered> discovery_results_;

  // PLOC machinery: while active, inbound HCI packets queue here.
  bool ploc_active_ = false;
  std::deque<hci::HciPacket> ploc_queue_;

  // HCI dump.
  bool snoop_enabled_ = false;
  hci::SnoopLog snoop_;

  // Instrumentation.
  int ignored_link_key_requests_ = 0;
  std::vector<PopupRecord> popups_;
  std::vector<std::pair<BdAddr, bool>> pairing_events_;
};

}  // namespace blap::host
