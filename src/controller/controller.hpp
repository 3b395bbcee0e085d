// controller.hpp — the simulated Bluetooth BR/EDR controller.
//
// This is the chipset side of the architecture: it terminates the HCI
// (commands in, events out), owns the baseband (inquiry/page via the radio
// medium) and runs the Link Manager (SSP pairing, E1 challenge–response,
// encryption start). It is deliberately *unmodified* by either BLAP attack —
// the paper's point is that both attacks work purely above the controller —
// so there are no attack hooks here; all manipulation happens in the host.
//
// Security-relevant behaviours reproduced faithfully:
//   * the controller has no persistent key storage: every authentication
//     pulls the link key from the host over the HCI
//     (HCI_Link_Key_Request → HCI_Link_Key_Request_Reply, in plaintext);
//   * a freshly derived SSP link key is pushed to the host in plaintext
//     (HCI_Link_Key_Notification);
//   * an unanswered LMP challenge times out with LMP Response Timeout —
//     NOT Authentication Failure — which is why the extraction attack's
//     deliberate stall (paper §IV-C step 5) leaves the victim's bond intact.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/bdaddr.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "crypto/e0.hpp"
#include "crypto/e1.hpp"
#include "crypto/ssp_functions.hpp"
#include "controller/lmp.hpp"
#include "obs/obs.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"
#include "radio/radio_medium.hpp"
#include "transport/transport.hpp"

namespace blap::controller {

struct ControllerConfig {
  BdAddr address;
  ClassOfDevice class_of_device{ClassOfDevice::kMobilePhone};
  std::string name = "blap-device";
  /// Secure Connections support: pair on P-256 instead of P-192.
  bool secure_connections = false;
  /// Average page-scan interval; page-response latency is sampled uniformly
  /// in [0, interval). This is the knob behind the Table II baseline race.
  SimTime page_scan_interval = static_cast<SimTime>(1.28 * kSecond);
  SimTime page_timeout = 5 * kSecond;
  SimTime connection_accept_timeout = 5 * kSecond;
  /// LMP transactions may span user interaction (pairing popups), so real
  /// controllers allow tens of seconds before giving up on a peer.
  SimTime lmp_response_timeout = 30 * kSecond;

  // ——— Degraded-channel behaviour. These three knobs only ever act while
  // the radio medium carries an enabled FaultPlan; on a clean channel no
  // ARQ report or supervision timer is scheduled at all, keeping fault-free
  // runs byte-identical to a build without the fault layer. ———
  /// Baseband ARQ: how many retransmissions an unacknowledged frame gets
  /// before the sender gives up (and the supervision timer decides).
  unsigned arq_max_retransmissions = 4;
  /// Delay before the first retransmission; doubles per attempt.
  SimTime arq_backoff_base = 2 * kSlot;
  /// Link supervision timeout (spec default 0x7D00 slots = 20 s): if no
  /// frame is received for this long the link is declared dead and torn
  /// down with HCI_Disconnection_Complete reason kConnectionTimeout.
  SimTime supervision_timeout = 20 * kSecond;
};

class Controller final : public radio::RadioEndpoint {
 public:
  Controller(Scheduler& scheduler, radio::RadioMedium& medium,
             transport::HciTransport& transport, ControllerConfig config, Rng rng);
  ~Controller() override;

  // RadioEndpoint
  [[nodiscard]] BdAddr radio_address() const override { return config_.address; }
  [[nodiscard]] ClassOfDevice radio_class_of_device() const override {
    return config_.class_of_device;
  }
  [[nodiscard]] std::string radio_name() const override { return config_.name; }
  [[nodiscard]] bool inquiry_scan_enabled() const override;
  [[nodiscard]] bool page_scan_enabled() const override;
  [[nodiscard]] SimTime sample_page_response_latency(Rng& rng) override;
  void on_link_established(radio::LinkId link, const BdAddr& peer, bool initiator) override;
  void on_link_closed(radio::LinkId link, std::uint8_t reason) override;
  void on_air_frame(radio::LinkId link, const Bytes& frame) override;

  /// Reconfigure identity (models rewriting /persist/bdaddr.txt and
  /// bt_target.h before the stack restarts — the paper's spoofing step).
  /// Out of line: the medium's BD_ADDR index must hear about the change.
  void set_address(const BdAddr& address);
  void set_class_of_device(ClassOfDevice cod) { config_.class_of_device = cod; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Wire the simulation's observer (null = off). The trace lane is keyed
  /// by the device *name*, which — unlike the BD_ADDR — survives spoofing.
  void set_observer(obs::Observer* observer) {
    obs_ = observer;
    obs_tid_ = observer != nullptr ? observer->device_tid(config_.name) : 0;
  }

  /// Re-sync per-link fault machinery with the medium's current FaultPlan:
  /// arms supervision timers on live links when faults just came on,
  /// cancels them when the plan was cleared. Simulation::set_fault_plan
  /// calls this so a plan installed mid-scenario guards existing links.
  void refresh_fault_state();

  /// Snapshot support (see src/snapshot/). quiescent() is the strict-capture
  /// precondition: no inquiry in flight and every link fully connected with
  /// no pairing/authentication exchange or ARQ transmission open. The SSP
  /// curve is serialized by coordinate width (24 → P-192, 32 → P-256) since
  /// EcCurve instances are process-global singletons; a load refuses any
  /// other width, and a missing curve on an initiator's context.
  [[nodiscard]] bool quiescent() const;
  template <state::StateIo Io, state::ConstOnSave<Io> Self>
  static void persist(Io& io, Self& self);

  /// Replace the controller's random stream (the per-trial reseed path).
  void set_rng(Rng rng) { rng_ = rng; }

  /// One link's externally checkable state, for the cross-layer invariant
  /// monitor (src/invariants/). Exposes no key material.
  struct LinkAudit {
    hci::ConnectionHandle handle = hci::kInvalidHandle;
    radio::LinkId radio_link = 0;
    BdAddr peer;
    bool connected = false;  // LinkState::kConnected (host-visible)
    bool tx_busy = false;
    std::size_t tx_queue_depth = 0;
  };
  [[nodiscard]] std::vector<LinkAudit> audit_links() const;

 private:
  enum class LinkState : std::uint8_t {
    kAwaitingHostConnectionReq,  // responder: baseband up, LMP host conn pending
    kHostAcceptPending,          // responder: Connection_Request sent to host
    kConnecting,                 // initiator: waiting for LMP_accepted
    kConnected,
  };

  enum class AuthState : std::uint8_t {
    kIdle,
    kWaitLocalKey,        // verifier: asked own host for the link key
    kWaitSres,            // verifier: challenge sent, waiting for response
    kClaimWaitLocalKey,   // claimant: asked own host for key to answer au_rand
    kWaitMutualDone,      // initiator: waiting for peer's reverse challenge
    kScWaitMasterSres,    // SC claimant: answered, awaiting verifier's SRES
    kPairing,             // SSP / legacy pairing in progress
  };

  struct SspContext {
    bool initiator = false;
    const crypto::EcCurve* curve = nullptr;
    crypto::EcKeyPair local_keypair;
    crypto::EcPoint peer_public;
    bool have_peer_key = false;
    crypto::Rand128 local_nonce{};
    crypto::Rand128 peer_nonce{};
    bool have_peer_nonce = false;
    crypto::LinkKey peer_commitment{};
    bool have_commitment = false;
    crypto::IoCapTriplet local_iocap{};
    crypto::IoCapTriplet peer_iocap{};
    crypto::U256 dhkey;
    bool have_dhkey = false;
    bool local_confirmed = false;
    Bytes held_dhkey_check;  // responder: Ea arrived before local confirm
  };

  /// Legacy PIN pairing state (Vol 2, Part H §3: E22 init key + E21
  /// combination key exchange).
  struct LegacyContext {
    bool initiator = false;
    crypto::Rand128 in_rand{};
    bool have_in_rand = false;
    crypto::LinkKey kinit{};
    bool have_kinit = false;
    crypto::Rand128 local_lk_rand{};
    bool sent_comb = false;
  };

  struct Link {
    radio::LinkId radio_link = 0;
    hci::ConnectionHandle handle = hci::kInvalidHandle;
    BdAddr peer;
    bool initiator = false;
    LinkState state = LinkState::kConnected;
    // Authentication.
    AuthState auth = AuthState::kIdle;
    bool auth_requested_by_host = false;  // raise Authentication_Complete here
    crypto::LinkKey key{};
    bool have_key = false;
    crypto::Rand128 challenge{};        // our outstanding AU_RAND
    crypto::Rand128 pending_au_rand{};  // peer's challenge while we fetch key
    bool have_pending_au_rand = false;
    bool pending_au_rand_is_sc = false;  // peer challenged with kAuRandSc
    crypto::Sres sc_expected_sres{};     // SC claimant: verifier's expected SRES
    bool sc_in_use = false;              // this auth runs the h4/h5 procedure
    crypto::Aco aco{};
    bool have_aco = false;
    std::unique_ptr<SspContext> ssp;
    std::unique_ptr<LegacyContext> legacy;
    // Encryption.
    bool encrypted = false;
    crypto::EncryptionKey enc_key{};
    crypto::Rand128 pending_en_rand{};
    std::uint32_t tx_counter = 0;
    std::uint32_t rx_counter = 0;
    // In-order ARQ state (used only while faults are enabled). LMP and
    // encrypted ACL both depend on ordered delivery, so the baseband runs
    // stop-and-wait: a frame waits here until every frame ahead of it has
    // been ACKed or abandoned.
    std::deque<Bytes> tx_queue;
    bool tx_busy = false;
    // Timers.
    EventHandle lmp_timer;
    EventHandle accept_timer;
    EventHandle supervision_timer;  // armed only while faults are enabled
    // Open observability spans (0 = none).
    std::uint64_t obs_auth_span = 0;
    std::uint64_t obs_pair_span = 0;
    std::uint64_t obs_enc_span = 0;
  };

  // HCI plumbing.
  void on_command(const hci::HciPacket& packet);
  void send_event(const hci::HciPacket& packet);
  void command_complete(std::uint16_t opcode, hci::Status status);
  void command_complete_raw(std::uint16_t opcode, BytesView return_params);
  void command_status(std::uint16_t opcode, hci::Status status);

  // Command handlers.
  void handle_inquiry(const hci::InquiryCmd& cmd);
  void handle_create_connection(const hci::CreateConnectionCmd& cmd);
  void handle_accept_connection(const hci::AcceptConnectionRequestCmd& cmd);
  void handle_reject_connection(const hci::RejectConnectionRequestCmd& cmd);
  void handle_disconnect(const hci::DisconnectCmd& cmd);
  void handle_authentication_requested(const hci::AuthenticationRequestedCmd& cmd);
  void handle_link_key_reply(const hci::LinkKeyRequestReplyCmd& cmd);
  void handle_link_key_negative_reply(const hci::LinkKeyRequestNegativeReplyCmd& cmd);
  void handle_io_capability_reply(const hci::IoCapabilityRequestReplyCmd& cmd);
  void handle_pin_code_reply(const hci::PinCodeRequestReplyCmd& cmd);
  void handle_pin_code_negative_reply(const BdAddr& addr);
  void handle_user_confirmation(const BdAddr& addr, bool accepted);
  void handle_set_encryption(const hci::SetConnectionEncryptionCmd& cmd);
  void handle_remote_name_request(const hci::RemoteNameRequestCmd& cmd);

  // LMP receive path.
  void on_lmp(Link& link, const LmpPdu& pdu);
  void on_lmp_host_connection_req(Link& link);
  void on_lmp_accepted(Link& link, LmpOpcode about);
  void on_lmp_not_accepted(Link& link, const LmpNotAccepted& pdu);
  void on_lmp_au_rand(Link& link, const crypto::Rand128& rand);
  void on_lmp_sres(Link& link, const crypto::Sres& sres);
  void on_lmp_io_cap_req(Link& link, const LmpIoCap& iocap);
  void on_lmp_io_cap_res(Link& link, const LmpIoCap& iocap);
  void on_lmp_public_key(Link& link, const LmpPublicKey& key);
  void on_lmp_sp_confirm(Link& link, const crypto::LinkKey& commitment);
  void on_lmp_sp_number(Link& link, const crypto::Rand128& nonce);
  void on_lmp_dhkey_check(Link& link, const crypto::LinkKey& check);
  void on_lmp_encryption_mode_req(Link& link);
  void on_lmp_start_encryption_req(Link& link, const crypto::Rand128& en_rand);
  void on_lmp_in_rand(Link& link, const crypto::Rand128& in_rand);
  void on_lmp_comb_key(Link& link, const crypto::LinkKey& masked_contribution);

  // Legacy pairing helpers.
  void start_legacy_pairing_as_initiator(Link& link);
  void send_comb_key_contribution(Link& link);
  void finish_legacy_pairing(Link& link, const crypto::LinkKey& peer_lk_rand);

  // SSP helpers.
  void start_pairing_as_initiator(Link& link);
  void continue_initiator_after_iocap(Link& link);
  void send_public_key(Link& link);
  void maybe_raise_user_confirmation(Link& link);
  void send_dhkey_check(Link& link);
  void verify_peer_dhkey_check(Link& link, const crypto::LinkKey& check);
  void finish_pairing(Link& link, bool success);
  [[nodiscard]] crypto::LinkKeyType derived_key_type(const Link& link) const;

  // Auth helpers.
  void send_challenge(Link& link);
  void auth_failed(Link& link, hci::Status status);
  void auth_succeeded(Link& link);

  // Secure Connections authentication (h4/h5).
  void on_lmp_au_rand_sc(Link& link, const crypto::Rand128& rand);
  void on_lmp_sres_sc(Link& link, BytesView payload);
  void answer_sc_challenge(Link& link, const crypto::Rand128& rand);
  [[nodiscard]] crypto::LinkKey sc_device_key(const Link& link, bool we_are_verifier) const;

  // LMP send + timers.
  void send_lmp(Link& link, LmpOpcode opcode, Bytes payload = {});
  void arm_lmp_timer(Link& link);
  void disarm_lmp_timer(Link& link);
  void lmp_timeout(hci::ConnectionHandle handle);

  // Baseband ARQ + link supervision (active only under an enabled FaultPlan).
  void send_baseband(Link& link, Bytes air_frame);
  void arq_start_next(Link& link);
  void arq_transmit(hci::ConnectionHandle handle, unsigned attempt);
  void arq_on_report(hci::ConnectionHandle handle, unsigned attempt,
                     bool delivered);
  void arm_supervision_timer(Link& link);
  void supervision_timeout(hci::ConnectionHandle handle);

  // Link management.
  Link* link_by_handle(hci::ConnectionHandle handle);
  Link* link_by_peer(const BdAddr& peer);
  Link* link_by_radio(radio::LinkId id);
  void teardown_link(Link& link, hci::Status reason, bool notify_peer);

  // Observability helpers (no-ops while obs_ is null).
  void obs_begin_pair(Link& link, const char* kind);
  void obs_end_pair(Link& link, bool success);

  Scheduler& scheduler_;
  radio::RadioMedium& medium_;
  transport::HciTransport& transport_;
  ControllerConfig config_;
  Rng rng_;
  obs::Observer* obs_ = nullptr;
  std::uint32_t obs_tid_ = 0;

  hci::ScanEnable scan_enable_ = hci::ScanEnable::kInquiryAndPage;
  bool simple_pairing_mode_ = true;
  bool inquiring_ = false;

  // Ordered map: link_by_peer/link_by_radio scan in handle order so lookup
  // results (and every event they trigger) never depend on hash layout.
  std::map<hci::ConnectionHandle, Link> links_;
  hci::ConnectionHandle next_handle_ = 0x0001;
};

}  // namespace blap::controller
