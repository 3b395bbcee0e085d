#include "controller/controller.hpp"

#include <algorithm>

#include "chaos/failpoint.hpp"

namespace blap::controller {

namespace {
Bytes rand_bytes(const crypto::Rand128& r) { return Bytes(r.begin(), r.end()); }

crypto::Rand128 to_rand128(BytesView v) {
  crypto::Rand128 out{};
  std::copy_n(v.begin(), std::min<std::size_t>(v.size(), 16), out.begin());
  return out;
}
}  // namespace

Controller::Controller(Scheduler& scheduler, radio::RadioMedium& medium,
                       transport::HciTransport& transport, ControllerConfig config, Rng rng)
    : scheduler_(scheduler), medium_(medium), transport_(transport), config_(std::move(config)),
      rng_(rng) {
  medium_.attach(this);
  transport_.set_controller_receiver([this](const hci::HciPacket& p) { on_command(p); });
}

Controller::~Controller() { medium_.detach(this); }

void Controller::set_address(const BdAddr& address) {
  config_.address = address;
  medium_.notify_endpoint_changed(this);
}

bool Controller::inquiry_scan_enabled() const {
  return scan_enable_ == hci::ScanEnable::kInquiryOnly ||
         scan_enable_ == hci::ScanEnable::kInquiryAndPage;
}

bool Controller::page_scan_enabled() const {
  return scan_enable_ == hci::ScanEnable::kPageOnly ||
         scan_enable_ == hci::ScanEnable::kInquiryAndPage;
}

SimTime Controller::sample_page_response_latency(Rng& rng) {
  // The page completes at the next page-scan window; windows recur every
  // page_scan_interval, so the latency is uniform over one interval.
  return 1 + rng.uniform(config_.page_scan_interval);
}

// ---------------------------------------------------------------------------
// HCI plumbing
// ---------------------------------------------------------------------------

void Controller::send_event(const hci::HciPacket& packet) {
  if (obs_ != nullptr && obs_->metrics_on()) {
    obs_->count("hci.evt.total");
    if (const auto code = packet.event_code())
      obs_->count(strfmt("hci.evt.0x%02x", *code));
  }
  transport_.send(hci::Direction::kControllerToHost, packet);
}

void Controller::command_complete(std::uint16_t opcode, hci::Status status) {
  ByteWriter ret;
  ret.u8(static_cast<std::uint8_t>(status));
  command_complete_raw(opcode, ret.data());
}

void Controller::command_complete_raw(std::uint16_t opcode, BytesView return_params) {
  hci::CommandCompleteEvt evt;
  evt.command_opcode = opcode;
  evt.return_parameters = to_bytes(return_params);
  send_event(hci::encode(evt));
}

void Controller::command_status(std::uint16_t opcode, hci::Status status) {
  hci::CommandStatusEvt evt;
  evt.status = status;
  evt.command_opcode = opcode;
  send_event(hci::encode(evt));
}

void Controller::on_command(const hci::HciPacket& packet) {
  if (packet.type == hci::PacketType::kAclData) {
    // Outgoing ACL data from the host.
    if (obs_ != nullptr) obs_->count("hci.acl.tx");
    auto handle = packet.acl_handle();
    auto data = packet.acl_data();
    if (!handle || !data) return;
    Link* link = link_by_handle(*handle);
    if (link == nullptr || link->state != LinkState::kConnected) return;
    Bytes payload = to_bytes(*data);
    if (link->encrypted) {
      const BdAddr master = link->initiator ? config_.address : link->peer;
      crypto::E0Cipher cipher(link->enc_key, master, link->tx_counter++);
      cipher.crypt(payload);
    }
    send_baseband(*link, acl_air_frame(payload));
    return;
  }
  if (packet.type != hci::PacketType::kCommand) return;

  const auto opcode = packet.command_opcode();
  const auto params = packet.command_params();
  if (!opcode || !params) return;

  if (obs_ != nullptr && obs_->metrics_on()) {
    obs_->count("hci.cmd.total");
    switch (*opcode >> 10) {  // opcode group field
      case 0x01: obs_->count("hci.cmd.link_control"); break;
      case 0x03: obs_->count("hci.cmd.baseband"); break;
      case 0x04: obs_->count("hci.cmd.informational"); break;
      default: obs_->count("hci.cmd.other"); break;
    }
  }

  switch (*opcode) {
    case hci::op::kReset:
      links_.clear();
      scan_enable_ = hci::ScanEnable::kInquiryAndPage;
      medium_.notify_endpoint_changed(this);
      command_complete(*opcode, hci::Status::kSuccess);
      break;
    case hci::op::kReadBdAddr: {
      ByteWriter ret;
      ret.u8(0);
      config_.address.to_wire(ret);
      command_complete_raw(*opcode, ret.data());
      break;
    }
    case hci::op::kWriteScanEnable:
      if (auto cmd = pdu::decode<hci::WriteScanEnableCmd>(*params)) {
        scan_enable_ = cmd->scan_enable;
        medium_.notify_endpoint_changed(this);
        command_complete(*opcode, hci::Status::kSuccess);
      }
      break;
    case hci::op::kWriteClassOfDevice:
      if (auto cmd = pdu::decode<hci::WriteClassOfDeviceCmd>(*params)) {
        config_.class_of_device = cmd->class_of_device;
        command_complete(*opcode, hci::Status::kSuccess);
      }
      break;
    case hci::op::kWriteLocalName:
      if (auto cmd = pdu::decode<hci::WriteLocalNameCmd>(*params)) {
        config_.name = cmd->name;
        command_complete(*opcode, hci::Status::kSuccess);
      }
      break;
    case hci::op::kWriteSimplePairingMode:
      if (auto cmd = pdu::decode<hci::WriteSimplePairingModeCmd>(*params)) {
        simple_pairing_mode_ = cmd->enabled != 0;
        command_complete(*opcode, hci::Status::kSuccess);
      }
      break;
    case hci::op::kInquiry:
      if (auto cmd = pdu::decode<hci::InquiryCmd>(*params)) handle_inquiry(*cmd);
      break;
    case hci::op::kInquiryCancel:
      inquiring_ = false;
      command_complete(*opcode, hci::Status::kSuccess);
      break;
    case hci::op::kCreateConnection:
      if (auto cmd = pdu::decode<hci::CreateConnectionCmd>(*params)) handle_create_connection(*cmd);
      break;
    case hci::op::kAcceptConnectionRequest:
      if (auto cmd = pdu::decode<hci::AcceptConnectionRequestCmd>(*params))
        handle_accept_connection(*cmd);
      break;
    case hci::op::kRejectConnectionRequest:
      if (auto cmd = pdu::decode<hci::RejectConnectionRequestCmd>(*params))
        handle_reject_connection(*cmd);
      break;
    case hci::op::kDisconnect:
      if (auto cmd = pdu::decode<hci::DisconnectCmd>(*params)) handle_disconnect(*cmd);
      break;
    case hci::op::kAuthenticationRequested:
      if (auto cmd = pdu::decode<hci::AuthenticationRequestedCmd>(*params))
        handle_authentication_requested(*cmd);
      break;
    case hci::op::kLinkKeyRequestReply:
      if (auto cmd = pdu::decode<hci::LinkKeyRequestReplyCmd>(*params)) handle_link_key_reply(*cmd);
      break;
    case hci::op::kLinkKeyRequestNegativeReply:
      if (auto cmd = pdu::decode<hci::LinkKeyRequestNegativeReplyCmd>(*params))
        handle_link_key_negative_reply(*cmd);
      break;
    case hci::op::kIoCapabilityRequestReply:
      if (auto cmd = pdu::decode<hci::IoCapabilityRequestReplyCmd>(*params))
        handle_io_capability_reply(*cmd);
      break;
    case hci::op::kPinCodeRequestReply:
      if (auto cmd = pdu::decode<hci::PinCodeRequestReplyCmd>(*params)) handle_pin_code_reply(*cmd);
      break;
    case hci::op::kPinCodeRequestNegativeReply:
      if (auto cmd = pdu::decode<hci::PinCodeRequestNegativeReplyCmd>(*params)) {
        command_complete(*opcode, hci::Status::kSuccess);
        handle_pin_code_negative_reply(cmd->bdaddr);
      }
      break;
    case hci::op::kUserConfirmationRequestReply:
      if (auto cmd = pdu::decode<hci::UserConfirmationRequestReplyCmd>(*params)) {
        command_complete(*opcode, hci::Status::kSuccess);
        handle_user_confirmation(cmd->bdaddr, true);
      }
      break;
    case hci::op::kUserConfirmationRequestNegativeReply:
      if (auto cmd = pdu::decode<hci::UserConfirmationRequestNegativeReplyCmd>(*params)) {
        command_complete(*opcode, hci::Status::kSuccess);
        handle_user_confirmation(cmd->bdaddr, false);
      }
      break;
    case hci::op::kSetConnectionEncryption:
      if (auto cmd = pdu::decode<hci::SetConnectionEncryptionCmd>(*params))
        handle_set_encryption(*cmd);
      break;
    case hci::op::kRemoteNameRequest:
      if (auto cmd = pdu::decode<hci::RemoteNameRequestCmd>(*params))
        handle_remote_name_request(*cmd);
      break;
    default:
      command_status(*opcode, hci::Status::kSuccess);
      break;
  }
}

// ---------------------------------------------------------------------------
// Command handlers
// ---------------------------------------------------------------------------

void Controller::handle_inquiry(const hci::InquiryCmd& cmd) {
  command_status(hci::op::kInquiry, hci::Status::kSuccess);
  inquiring_ = true;
  const SimTime duration =
      static_cast<SimTime>(cmd.inquiry_length) * 1'280 * kMillisecond;
  medium_.start_inquiry(
      this, duration,
      [this](const radio::InquiryResponse& response) {
        if (!inquiring_) return;
        // BT 2.1+ responders answer with Extended Inquiry Response data
        // (their name, notably); pre-EIR responders get the basic event.
        if (!response.name.empty()) {
          hci::ExtendedInquiryResultEvt evt;
          evt.bdaddr = response.address;
          evt.class_of_device = response.class_of_device;
          evt.name = response.name;
          send_event(hci::encode(evt));
        } else {
          hci::InquiryResultEvt evt;
          evt.bdaddr = response.address;
          evt.class_of_device = response.class_of_device;
          send_event(hci::encode(evt));
        }
      },
      [this] {
        if (!inquiring_) return;
        inquiring_ = false;
        send_event(hci::encode(hci::InquiryCompleteEvt{hci::Status::kSuccess}));
      });
}

void Controller::handle_create_connection(const hci::CreateConnectionCmd& cmd) {
  if (link_by_peer(cmd.bdaddr) != nullptr) {
    command_status(hci::op::kCreateConnection, hci::Status::kConnectionAlreadyExists);
    return;
  }
  command_status(hci::op::kCreateConnection, hci::Status::kSuccess);
  const BdAddr target = cmd.bdaddr;
  if (obs_ != nullptr && obs_->tracing())
    obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kController,
                  "create_connection", strfmt("page %s", target.to_string().c_str()));
  // The paging hardware wedges before the first train. The host still gets
  // its Page Timeout — after the full configured window, like a real one.
  if (BLAP_FAILPOINT("controller.page.abort")) {
    scheduler_.schedule_in(config_.page_timeout, [this, target] {
      hci::ConnectionCompleteEvt evt;
      evt.status = hci::Status::kPageTimeout;
      evt.bdaddr = target;
      send_event(hci::encode(evt));
    });
    return;
  }
  medium_.page(this, target, config_.page_timeout,
               [this, target](std::optional<radio::LinkId> link_id) {
                 if (!link_id) {
                   hci::ConnectionCompleteEvt evt;
                   evt.status = hci::Status::kPageTimeout;
                   evt.bdaddr = target;
                   send_event(hci::encode(evt));
                   return;
                 }
                 // on_link_established(initiator=true) already created the
                 // Link entry; now run the LMP host connection handshake.
                 Link* link = link_by_radio(*link_id);
                 if (link == nullptr) return;
                 link->state = LinkState::kConnecting;
                 send_lmp(*link, LmpOpcode::kHostConnectionReq);
                 arm_lmp_timer(*link);
               });
}

void Controller::on_link_established(radio::LinkId link_id, const BdAddr& peer, bool initiator) {
  Link link;
  link.radio_link = link_id;
  link.handle = next_handle_++;
  link.peer = peer;
  link.initiator = initiator;
  link.state =
      initiator ? LinkState::kConnecting : LinkState::kAwaitingHostConnectionReq;
  Link& placed = links_.emplace(link.handle, std::move(link)).first->second;
  // Under a fault plan the link is supervised from its first slot: a link
  // that never carries a single frame must still die by timeout, not hang.
  arm_supervision_timer(placed);
}

void Controller::on_lmp_host_connection_req(Link& link) {
  if (link.state != LinkState::kAwaitingHostConnectionReq) return;
  link.state = LinkState::kHostAcceptPending;
  hci::ConnectionRequestEvt evt;
  evt.bdaddr = link.peer;
  // The paged initiator's COD is not carried on our baseband model; report
  // the peer's class as seen during inquiry would require caching — use the
  // generic value the host mostly ignores.
  evt.class_of_device = ClassOfDevice(0);
  send_event(hci::encode(evt));
  const hci::ConnectionHandle handle = link.handle;
  SimTime accept_window = config_.connection_accept_timeout;
  // The accept timer expires before the host had any real chance to answer.
  if (BLAP_FAILPOINT("controller.accept.timer_early")) accept_window = 1;
  link.accept_timer = scheduler_.schedule_in(accept_window, [this, handle] {
    Link* l = link_by_handle(handle);
    if (l == nullptr || l->state != LinkState::kHostAcceptPending) return;
    send_lmp(*l, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kHostConnectionReq,
                 static_cast<std::uint8_t>(hci::Status::kConnectionAcceptTimeout)}));
    teardown_link(*l, hci::Status::kConnectionAcceptTimeout, true);
  });
}

void Controller::handle_accept_connection(const hci::AcceptConnectionRequestCmd& cmd) {
  command_status(hci::op::kAcceptConnectionRequest, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr || link->state != LinkState::kHostAcceptPending) return;
  link->accept_timer.cancel();
  link->state = LinkState::kConnected;
  send_lmp(*link, LmpOpcode::kAccepted,
           Bytes{static_cast<std::uint8_t>(LmpOpcode::kHostConnectionReq)});
  hci::ConnectionCompleteEvt evt;
  evt.status = hci::Status::kSuccess;
  evt.handle = link->handle;
  evt.bdaddr = link->peer;
  send_event(hci::encode(evt));
}

void Controller::handle_reject_connection(const hci::RejectConnectionRequestCmd& cmd) {
  command_status(hci::op::kRejectConnectionRequest, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr || link->state != LinkState::kHostAcceptPending) return;
  link->accept_timer.cancel();
  send_lmp(*link, LmpOpcode::kNotAccepted,
           pdu::encode(LmpNotAccepted{LmpOpcode::kHostConnectionReq,
                                      static_cast<std::uint8_t>(cmd.reason)}));
  const hci::ConnectionHandle handle = link->handle;
  medium_.close_link(link->radio_link, this, static_cast<std::uint8_t>(cmd.reason));
  links_.erase(handle);  // responder raises no Connection_Complete on reject
}

void Controller::handle_disconnect(const hci::DisconnectCmd& cmd) {
  command_status(hci::op::kDisconnect, hci::Status::kSuccess);
  Link* link = link_by_handle(cmd.handle);
  if (link == nullptr) return;
  // One idempotent teardown path for every way a link dies: even a
  // supervision timeout landing in the same slot yields exactly one
  // Disconnection_Complete.
  teardown_link(*link, static_cast<hci::Status>(cmd.reason), true);
}

void Controller::on_link_closed(radio::LinkId link_id, std::uint8_t reason) {
  Link* link = link_by_radio(link_id);
  if (link == nullptr) return;
  const bool auth_pending = link->auth_requested_by_host && link->auth != AuthState::kIdle;
  const hci::ConnectionHandle handle = link->handle;
  const LinkState state = link->state;
  const BdAddr peer = link->peer;
  link->lmp_timer.cancel();
  link->accept_timer.cancel();
  link->supervision_timer.cancel();
  links_.erase(handle);

  if (state == LinkState::kConnecting) {
    // The baseband died before the host-level connection completed (e.g.
    // the responder rejected and tore the link down): the host is still
    // waiting on its Create_Connection, so report THAT as failed. Close
    // reasons are HCI error codes end-to-end (radio::close_reason); a bare
    // 0 carries no cause, so map it to the generic dead-baseband verdict —
    // Connection Timeout — instead of fabricating a Page Timeout (the page
    // demonstrably succeeded: this link existed).
    hci::ConnectionCompleteEvt evt;
    evt.status = reason == 0 ? hci::Status::kConnectionTimeout
                             : static_cast<hci::Status>(reason);
    evt.bdaddr = peer;
    send_event(hci::encode(evt));
    return;
  }
  if (state != LinkState::kConnected) return;  // responder-side pre-accept states

  if (auth_pending) {
    hci::AuthenticationCompleteEvt auth_evt;
    auth_evt.status = static_cast<hci::Status>(reason);
    auth_evt.handle = handle;
    send_event(hci::encode(auth_evt));
  }
  hci::DisconnectionCompleteEvt evt;
  evt.handle = handle;
  evt.reason = static_cast<hci::Status>(reason);
  send_event(hci::encode(evt));
}

void Controller::handle_authentication_requested(const hci::AuthenticationRequestedCmd& cmd) {
  Link* link = link_by_handle(cmd.handle);
  if (link == nullptr || link->state != LinkState::kConnected) {
    command_status(hci::op::kAuthenticationRequested,
                   hci::Status::kUnknownConnectionIdentifier);
    return;
  }
  command_status(hci::op::kAuthenticationRequested, hci::Status::kSuccess);
  link->auth_requested_by_host = true;
  link->auth = AuthState::kWaitLocalKey;
  if (obs_ != nullptr) {
    obs_->count("hci.link_key_requests");
    obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHci, "link_key_request",
                  "controller asks its host for the bond key");
  }
  // Pull the link key from the host — the moment the key crosses the HCI.
  send_event(hci::encode(hci::LinkKeyRequestEvt{link->peer}));
}

void Controller::handle_link_key_reply(const hci::LinkKeyRequestReplyCmd& cmd) {
  if (obs_ != nullptr) {
    // The extraction attack's whole premise: this reply carries the bond
    // key across the HCI in plaintext, visible to any dump/sniffer.
    obs_->count("hci.link_key_replies");
    obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHci,
                  "link_key_request_reply", "plaintext link key crosses the HCI");
  }
  command_complete(hci::op::kLinkKeyRequestReply, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr) return;
  link->key = cmd.link_key;
  link->have_key = true;
  if (link->auth == AuthState::kWaitLocalKey) {
    send_challenge(*link);
  } else if (link->auth == AuthState::kClaimWaitLocalKey && link->have_pending_au_rand) {
    // Answer the peer's outstanding challenge.
    link->have_pending_au_rand = false;
    if (link->pending_au_rand_is_sc) {
      link->pending_au_rand_is_sc = false;
      answer_sc_challenge(*link, link->pending_au_rand);
      return;
    }
    const auto out = crypto::e1(link->key, link->pending_au_rand, config_.address);
    link->aco = out.aco;
    link->have_aco = true;
    link->auth = AuthState::kIdle;
    send_lmp(*link, LmpOpcode::kSres, Bytes(out.sres.begin(), out.sres.end()));
    if (!link->auth_requested_by_host) {
      // Mutual authentication: now challenge the peer back.
      send_challenge(*link);
    }
  }
}

void Controller::handle_link_key_negative_reply(const hci::LinkKeyRequestNegativeReplyCmd& cmd) {
  command_complete(hci::op::kLinkKeyRequestNegativeReply, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr) return;
  if (link->auth == AuthState::kWaitLocalKey) {
    // No bond: run Secure Simple Pairing to create one — or, on a pre-2.1
    // stack, the legacy PIN procedure.
    if (!simple_pairing_mode_) {
      start_legacy_pairing_as_initiator(*link);
      return;
    }
    start_pairing_as_initiator(*link);
  } else if (link->auth == AuthState::kClaimWaitLocalKey) {
    link->have_pending_au_rand = false;
    link->auth = AuthState::kIdle;
    send_lmp(*link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{link->pending_au_rand_is_sc ? LmpOpcode::kAuRandSc
                                                                    : LmpOpcode::kAuRand,
                                        static_cast<std::uint8_t>(hci::Status::kPinOrKeyMissing)}));
    link->pending_au_rand_is_sc = false;
  }
}

void Controller::handle_set_encryption(const hci::SetConnectionEncryptionCmd& cmd) {
  Link* link = link_by_handle(cmd.handle);
  if (link == nullptr || !link->have_key || !link->have_aco) {
    command_status(hci::op::kSetConnectionEncryption,
                   hci::Status::kUnknownConnectionIdentifier);
    return;
  }
  command_status(hci::op::kSetConnectionEncryption, hci::Status::kSuccess);
  if (obs_ != nullptr && link->obs_enc_span == 0)
    link->obs_enc_span = obs_->begin_span(scheduler_.now(), obs_tid_,
                                          obs::Layer::kLmp, "encryption_start");
  send_lmp(*link, LmpOpcode::kEncryptionModeReq, Bytes{cmd.encryption_enable});
  arm_lmp_timer(*link);
}

void Controller::handle_remote_name_request(const hci::RemoteNameRequestCmd& cmd) {
  command_status(hci::op::kRemoteNameRequest, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr || link->state != LinkState::kConnected) {
    hci::RemoteNameRequestCompleteEvt evt;
    evt.status = hci::Status::kPageTimeout;
    evt.bdaddr = cmd.bdaddr;
    send_event(hci::encode(evt));
    return;
  }
  send_lmp(*link, LmpOpcode::kNameReq);
}

// ---------------------------------------------------------------------------
// LMP receive path
// ---------------------------------------------------------------------------

void Controller::on_air_frame(radio::LinkId link_id, const Bytes& frame) {
  Link* link = link_by_radio(link_id);
  if (link == nullptr) return;
  // Any received frame — even one that parses to garbage — proves the peer
  // is still transmitting; push the supervision deadline out.
  arm_supervision_timer(*link);

  if (auto acl = parse_acl_air_frame(frame)) {
    Bytes payload = std::move(*acl);
    if (link->encrypted) {
      const BdAddr master = link->initiator ? config_.address : link->peer;
      crypto::E0Cipher cipher(link->enc_key, master, link->rx_counter++);
      cipher.crypt(payload);
    }
    send_event(hci::make_acl(link->handle, payload));
    return;
  }

  auto pdu = LmpPdu::from_air_frame(frame);
  if (!pdu) return;
  BLAP_TRACE("lmp", "%s rx %s", config_.address.to_string().c_str(), to_string(pdu->opcode));
  on_lmp(*link, *pdu);
}

void Controller::on_lmp(Link& link, const LmpPdu& pdu) {
  disarm_lmp_timer(link);
  if (obs_ != nullptr) {
    obs_->count("lmp.rx");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kLmp,
                    strfmt("lmp_rx:%s", to_string(pdu.opcode)));
  }
  const hci::ConnectionHandle handle = link.handle;
  switch (pdu.opcode) {
    case LmpOpcode::kHostConnectionReq: on_lmp_host_connection_req(link); break;
    case LmpOpcode::kAccepted:
      if (!pdu.payload.empty()) on_lmp_accepted(link, static_cast<LmpOpcode>(pdu.payload[0]));
      break;
    case LmpOpcode::kNotAccepted:
      if (auto p = pdu::decode<LmpNotAccepted>(pdu.payload)) on_lmp_not_accepted(link, *p);
      break;
    case LmpOpcode::kAuRand: on_lmp_au_rand(link, to_rand128(pdu.payload)); break;
    case LmpOpcode::kSres: {
      crypto::Sres sres{};
      std::copy_n(pdu.payload.begin(), std::min<std::size_t>(4, pdu.payload.size()),
                  sres.begin());
      on_lmp_sres(link, sres);
      break;
    }
    case LmpOpcode::kIoCapabilityReq:
      if (auto p = pdu::decode<LmpIoCap>(pdu.payload)) on_lmp_io_cap_req(link, *p);
      break;
    case LmpOpcode::kIoCapabilityRes:
      if (auto p = pdu::decode<LmpIoCap>(pdu.payload)) on_lmp_io_cap_res(link, *p);
      break;
    case LmpOpcode::kEncapsulatedPublicKey:
      if (auto p = pdu::decode<LmpPublicKey>(pdu.payload)) on_lmp_public_key(link, *p);
      break;
    case LmpOpcode::kSimplePairingConfirm: {
      crypto::LinkKey commitment{};
      std::copy_n(pdu.payload.begin(), std::min<std::size_t>(16, pdu.payload.size()),
                  commitment.begin());
      on_lmp_sp_confirm(link, commitment);
      break;
    }
    case LmpOpcode::kSimplePairingNumber: on_lmp_sp_number(link, to_rand128(pdu.payload)); break;
    case LmpOpcode::kDhkeyCheck: {
      crypto::LinkKey check{};
      std::copy_n(pdu.payload.begin(), std::min<std::size_t>(16, pdu.payload.size()),
                  check.begin());
      on_lmp_dhkey_check(link, check);
      break;
    }
    case LmpOpcode::kEncryptionModeReq: on_lmp_encryption_mode_req(link); break;
    case LmpOpcode::kStartEncryptionReq:
      on_lmp_start_encryption_req(link, to_rand128(pdu.payload));
      break;
    case LmpOpcode::kAuRandSc: on_lmp_au_rand_sc(link, to_rand128(pdu.payload)); break;
    case LmpOpcode::kSresSc: on_lmp_sres_sc(link, pdu.payload); break;
    case LmpOpcode::kInRand: on_lmp_in_rand(link, to_rand128(pdu.payload)); break;
    case LmpOpcode::kCombKey: {
      crypto::LinkKey masked{};
      std::copy_n(pdu.payload.begin(), std::min<std::size_t>(16, pdu.payload.size()),
                  masked.begin());
      on_lmp_comb_key(link, masked);
      break;
    }
    case LmpOpcode::kNameReq: {
      Bytes name(config_.name.begin(), config_.name.end());
      send_lmp(link, LmpOpcode::kNameRes, std::move(name));
      break;
    }
    case LmpOpcode::kNameRes: {
      hci::RemoteNameRequestCompleteEvt evt;
      evt.bdaddr = link.peer;
      evt.remote_name.assign(pdu.payload.begin(), pdu.payload.end());
      send_event(hci::encode(evt));
      break;
    }
    case LmpOpcode::kSetupComplete:
    case LmpOpcode::kDetach:
    case LmpOpcode::kStopEncryptionReq:
    case LmpOpcode::kPing:
      break;
  }
  // Re-arm the response timer if this link is mid-authentication and waiting
  // on the peer (kWaitSres / kWaitMutualDone). Pairing stages arm explicitly
  // at each send; states waiting on our *own* host (kClaimWaitLocalKey, a
  // pending user confirmation) intentionally run without a peer timer.
  Link* still = link_by_handle(handle);
  if (still == nullptr) return;
  if (still->auth == AuthState::kWaitSres || still->auth == AuthState::kWaitMutualDone ||
      still->auth == AuthState::kScWaitMasterSres)
    arm_lmp_timer(*still);
}

void Controller::on_lmp_accepted(Link& link, LmpOpcode about) {
  switch (about) {
    case LmpOpcode::kHostConnectionReq: {
      if (link.state != LinkState::kConnecting) return;
      link.state = LinkState::kConnected;
      hci::ConnectionCompleteEvt evt;
      evt.status = hci::Status::kSuccess;
      evt.handle = link.handle;
      evt.bdaddr = link.peer;
      send_event(hci::encode(evt));
      break;
    }
    case LmpOpcode::kAuRand:
      // Peer's reverse challenge verified our response: mutual auth done.
      if (link.auth == AuthState::kWaitMutualDone) auth_succeeded(link);
      break;
    case LmpOpcode::kInRand:
      // Legacy pairing: the responder accepted our IN_RAND and computed the
      // same initialization key; exchange combination-key contributions.
      if (link.legacy != nullptr && link.legacy->initiator)
        send_comb_key_contribution(link);
      break;
    case LmpOpcode::kEncryptionModeReq: {
      // Continue with the start-encryption exchange.
      crypto::Rand128 en_rand = rng_.bytes<16>();
      link.pending_en_rand = en_rand;
      send_lmp(link, LmpOpcode::kStartEncryptionReq, rand_bytes(en_rand));
      arm_lmp_timer(link);
      break;
    }
    case LmpOpcode::kStartEncryptionReq: {
      link.enc_key = crypto::e3(link.key, link.pending_en_rand, link.aco);
      link.encrypted = true;
      link.tx_counter = link.rx_counter = 0;
      if (obs_ != nullptr) {
        obs_->count("lmp.encryption_starts");
        obs_->end_span(scheduler_.now(), link.obs_enc_span, "E0 key live");
        link.obs_enc_span = 0;
      }
      hci::EncryptionChangeEvt evt;
      evt.handle = link.handle;
      evt.encryption_enabled = 1;
      send_event(hci::encode(evt));
      break;
    }
    default: break;
  }
}

void Controller::on_lmp_not_accepted(Link& link, const LmpNotAccepted& pdu) {
  switch (pdu.rejected_opcode) {
    case LmpOpcode::kHostConnectionReq: {
      if (link.state != LinkState::kConnecting) return;
      hci::ConnectionCompleteEvt evt;
      evt.status = static_cast<hci::Status>(pdu.reason);
      evt.bdaddr = link.peer;
      send_event(hci::encode(evt));
      medium_.close_link(link.radio_link, this, pdu.reason);
      links_.erase(link.handle);
      break;
    }
    case LmpOpcode::kAuRand:
    case LmpOpcode::kSres:
    case LmpOpcode::kSresSc:
      auth_failed(link, static_cast<hci::Status>(pdu.reason));
      break;
    case LmpOpcode::kAuRandSc:
      // The peer does not support secure authentication: retry with E1.
      if (link.auth == AuthState::kWaitSres && link.sc_in_use) {
        link.sc_in_use = false;
        send_lmp(link, LmpOpcode::kAuRand, rand_bytes(link.challenge));
        arm_lmp_timer(link);
      } else {
        auth_failed(link, static_cast<hci::Status>(pdu.reason));
      }
      break;
    case LmpOpcode::kIoCapabilityReq:
      // The peer does not speak SSP: fall back to legacy PIN pairing.
      if (link.ssp != nullptr && link.ssp->initiator) {
        link.ssp.reset();
        start_legacy_pairing_as_initiator(link);
        break;
      }
      finish_pairing(link, false);
      break;
    case LmpOpcode::kSimplePairingNumber:
    case LmpOpcode::kSimplePairingConfirm:
    case LmpOpcode::kDhkeyCheck:
    case LmpOpcode::kEncapsulatedPublicKey:
      finish_pairing(link, false);
      break;
    case LmpOpcode::kInRand:
    case LmpOpcode::kCombKey:
      link.legacy.reset();
      auth_failed(link, static_cast<hci::Status>(pdu.reason));
      break;
    default: break;
  }
}

// ---------------------------------------------------------------------------
// LMP authentication (E1 challenge–response)
// ---------------------------------------------------------------------------

void Controller::send_challenge(Link& link) {
  if (obs_ != nullptr && link.obs_auth_span == 0)
    link.obs_auth_span =
        obs_->begin_span(scheduler_.now(), obs_tid_, obs::Layer::kLmp, "lmp_auth",
                         strfmt("challenge %s", link.peer.to_string().c_str()));
  link.challenge = rng_.bytes<16>();
  link.auth = AuthState::kWaitSres;
  // Secure Connections controllers first try the h4/h5 secure
  // authentication (mutual in one round trip); a peer that rejects it makes
  // us fall back to the legacy E1 procedure (see on_lmp_not_accepted).
  link.sc_in_use = config_.secure_connections;
  send_lmp(link, link.sc_in_use ? LmpOpcode::kAuRandSc : LmpOpcode::kAuRand,
           rand_bytes(link.challenge));
  arm_lmp_timer(link);
}

// ---------------------------------------------------------------------------
// Secure Connections secure authentication (h4/h5)
// ---------------------------------------------------------------------------

namespace {
/// Widen h5's 64-bit ACO to the 96-bit COF that E3 consumes (documented
/// substitution: real Secure Connections switches to AES-CCM keyed via h3;
/// BLAP keeps the single E3/E0 encryption path).
crypto::Aco extend_aco(const std::array<std::uint8_t, 8>& aco8) {
  crypto::Aco out{};
  std::copy(aco8.begin(), aco8.end(), out.begin());
  std::copy_n(aco8.begin(), 4, out.begin() + 8);
  return out;
}
}  // namespace

crypto::LinkKey Controller::sc_device_key(const Link& link, bool we_are_verifier) const {
  // h4 binds (verifier, claimant) addresses; both sides must agree on the
  // ordering, so it follows the challenge direction.
  const BdAddr& verifier = we_are_verifier ? config_.address : link.peer;
  const BdAddr& claimant = we_are_verifier ? link.peer : config_.address;
  return crypto::h4(link.key, verifier, claimant);
}

void Controller::on_lmp_au_rand_sc(Link& link, const crypto::Rand128& rand) {
  if (!config_.secure_connections) {
    // We cannot run the SC procedure: reject, the verifier falls back to E1.
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kAuRandSc,
                 static_cast<std::uint8_t>(hci::Status::kPairingNotAllowed)}));
    return;
  }
  if (link.have_key) {
    answer_sc_challenge(link, rand);
    return;
  }
  link.pending_au_rand = rand;
  link.have_pending_au_rand = true;
  link.pending_au_rand_is_sc = true;
  link.auth = AuthState::kClaimWaitLocalKey;
  send_event(hci::encode(hci::LinkKeyRequestEvt{link.peer}));
}

void Controller::answer_sc_challenge(Link& link, const crypto::Rand128& rand) {
  const crypto::LinkKey dev_key = sc_device_key(link, /*we_are_verifier=*/false);
  const crypto::Rand128 r_s = rng_.bytes<16>();
  const auto out = crypto::h5(dev_key, rand, r_s);
  link.sc_expected_sres = out.sres_master;
  link.aco = extend_aco(out.aco);
  link.have_aco = true;
  ByteWriter w;
  w.raw(r_s);
  w.raw(out.sres_slave);
  send_lmp(link, LmpOpcode::kSresSc, w.data());
  link.auth = AuthState::kScWaitMasterSres;
  arm_lmp_timer(link);
}

void Controller::on_lmp_sres_sc(Link& link, BytesView payload) {
  if (link.auth != AuthState::kWaitSres || !link.sc_in_use) return;
  ByteReader r(payload);
  auto r_s = r.array<16>();
  auto sres_s = r.array<4>();
  if (!r_s || !sres_s) return;
  const crypto::LinkKey dev_key = sc_device_key(link, /*we_are_verifier=*/true);
  const auto out = crypto::h5(dev_key, link.challenge, *r_s);
  if (!ct_equal(BytesView(out.sres_slave.data(), out.sres_slave.size()),
                BytesView(sres_s->data(), sres_s->size()))) {
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kSresSc,
                 static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
    auth_failed(link, hci::Status::kAuthenticationFailure);
    return;
  }
  link.aco = extend_aco(out.aco);
  link.have_aco = true;
  // Prove our side of the mutual authentication.
  send_lmp(link, LmpOpcode::kSres, Bytes(out.sres_master.begin(), out.sres_master.end()));
  link.auth = AuthState::kWaitMutualDone;
  arm_lmp_timer(link);
}

void Controller::on_lmp_au_rand(Link& link, const crypto::Rand128& rand) {
  if (link.have_key) {
    const auto out = crypto::e1(link.key, rand, config_.address);
    link.aco = out.aco;
    link.have_aco = true;
    send_lmp(link, LmpOpcode::kSres, Bytes(out.sres.begin(), out.sres.end()));
    if (!link.auth_requested_by_host && link.auth == AuthState::kIdle) {
      send_challenge(link);
    }
    return;
  }
  // Need the key from the host first.
  link.pending_au_rand = rand;
  link.have_pending_au_rand = true;
  link.auth = AuthState::kClaimWaitLocalKey;
  send_event(hci::encode(hci::LinkKeyRequestEvt{link.peer}));
}

void Controller::on_lmp_sres(Link& link, const crypto::Sres& sres) {
  if (link.auth == AuthState::kScWaitMasterSres) {
    // SC claimant: the verifier proves its side with SRES_master.
    if (!ct_equal(BytesView(sres.data(), sres.size()),
                  BytesView(link.sc_expected_sres.data(), link.sc_expected_sres.size()))) {
      send_lmp(link, LmpOpcode::kNotAccepted,
               pdu::encode(LmpNotAccepted{
                   LmpOpcode::kSres,
                   static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
      auth_failed(link, hci::Status::kAuthenticationFailure);
      return;
    }
    link.auth = AuthState::kIdle;
    send_lmp(link, LmpOpcode::kAccepted, Bytes{static_cast<std::uint8_t>(LmpOpcode::kAuRand)});
    return;
  }
  if (link.auth != AuthState::kWaitSres) return;
  const auto expected = crypto::e1(link.key, link.challenge, link.peer);
  if (!ct_equal(BytesView(sres.data(), sres.size()),
                BytesView(expected.sres.data(), expected.sres.size()))) {
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kAuRand,
                 static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
    auth_failed(link, hci::Status::kAuthenticationFailure);
    return;
  }
  link.aco = expected.aco;
  link.have_aco = true;
  if (link.auth_requested_by_host) {
    // Forward challenge verified; the peer now challenges us back.
    link.auth = AuthState::kWaitMutualDone;
    arm_lmp_timer(link);
  } else {
    // We were the reverse verifier: mutual authentication is complete.
    link.auth = AuthState::kIdle;
    send_lmp(link, LmpOpcode::kAccepted, Bytes{static_cast<std::uint8_t>(LmpOpcode::kAuRand)});
  }
}

void Controller::auth_failed(Link& link, hci::Status status) {
  if (obs_ != nullptr) {
    obs_->count("lmp.auth_failures");
    obs_->end_span(scheduler_.now(), link.obs_auth_span,
                   strfmt("FAILED (%s)", to_string(status)));
    link.obs_auth_span = 0;
    // A pairing attempt aborted below the SSP/legacy completion paths
    // (e.g. a mid-exchange NotAccepted) still closes its span here.
    obs_->end_span(scheduler_.now(), link.obs_pair_span,
                   strfmt("aborted (%s)", to_string(status)));
    link.obs_pair_span = 0;
  }
  link.auth = AuthState::kIdle;
  link.ssp.reset();
  if (link.auth_requested_by_host) {
    link.auth_requested_by_host = false;
    hci::AuthenticationCompleteEvt evt;
    evt.status = status;
    evt.handle = link.handle;
    send_event(hci::encode(evt));
  }
}

void Controller::auth_succeeded(Link& link) {
  if (obs_ != nullptr) {
    obs_->count("lmp.auth_successes");
    obs_->end_span(scheduler_.now(), link.obs_auth_span, "mutual auth OK");
    link.obs_auth_span = 0;
  }
  link.auth = AuthState::kIdle;
  if (link.auth_requested_by_host) {
    link.auth_requested_by_host = false;
    hci::AuthenticationCompleteEvt evt;
    evt.status = hci::Status::kSuccess;
    evt.handle = link.handle;
    send_event(hci::encode(evt));
  }
}

// ---------------------------------------------------------------------------
// Secure Simple Pairing
// ---------------------------------------------------------------------------

void Controller::obs_begin_pair(Link& link, const char* kind) {
  if (obs_ == nullptr) return;
  obs_->count("lmp.pairings_started");
  if (link.obs_pair_span == 0)
    link.obs_pair_span =
        obs_->begin_span(scheduler_.now(), obs_tid_, obs::Layer::kLmp, "pairing", kind);
}

void Controller::obs_end_pair(Link& link, bool success) {
  if (obs_ == nullptr) return;
  obs_->count(success ? "lmp.pairings_succeeded" : "lmp.pairings_failed");
  obs_->end_span(scheduler_.now(), link.obs_pair_span,
                 success ? "link key derived" : "FAILED");
  link.obs_pair_span = 0;
}

void Controller::start_pairing_as_initiator(Link& link) {
  link.auth = AuthState::kPairing;
  link.ssp = std::make_unique<SspContext>();
  link.ssp->initiator = true;
  link.ssp->curve =
      config_.secure_connections ? &crypto::EcCurve::p256() : &crypto::EcCurve::p192();
  obs_begin_pair(link, config_.secure_connections ? "ssp initiator (P-256)"
                                                  : "ssp initiator (P-192)");
  send_event(hci::encode(hci::IoCapabilityRequestEvt{link.peer}));
}

void Controller::handle_io_capability_reply(const hci::IoCapabilityRequestReplyCmd& cmd) {
  command_complete(hci::op::kIoCapabilityRequestReply, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr || link->ssp == nullptr) return;
  link->ssp->local_iocap = crypto::IoCapTriplet{static_cast<std::uint8_t>(cmd.io_capability),
                                                cmd.oob_data_present,
                                                cmd.authentication_requirements};
  if (link->ssp->initiator) {
    continue_initiator_after_iocap(*link);
  } else {
    // Responder: answer the peer's io_cap_req.
    send_lmp(*link, LmpOpcode::kIoCapabilityRes,
             pdu::encode(LmpIoCap{
                 link->ssp->local_iocap.io_capability, link->ssp->local_iocap.oob_data_present,
                 link->ssp->local_iocap.auth_req}));
  }
}

void Controller::continue_initiator_after_iocap(Link& link) {
  send_lmp(link, LmpOpcode::kIoCapabilityReq,
           pdu::encode(LmpIoCap{
               link.ssp->local_iocap.io_capability, link.ssp->local_iocap.oob_data_present,
               link.ssp->local_iocap.auth_req}));
  arm_lmp_timer(link);
}

void Controller::on_lmp_io_cap_req(Link& link, const LmpIoCap& iocap) {
  // A pre-SSP responder cannot run the SSP sub-protocol: reject, and the
  // initiator falls back to legacy PIN pairing.
  if (!simple_pairing_mode_) {
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kIoCapabilityReq,
                 static_cast<std::uint8_t>(hci::Status::kPairingNotAllowed)}));
    return;
  }
  // Peer initiates pairing toward us (we are the responder).
  if (link.ssp == nullptr) {
    link.auth = AuthState::kPairing;
    link.ssp = std::make_unique<SspContext>();
    link.ssp->initiator = false;
    obs_begin_pair(link, "ssp responder");
  }
  link.ssp->peer_iocap =
      crypto::IoCapTriplet{iocap.io_capability, iocap.oob_data_present,
                           iocap.authentication_requirements};
  // Tell the host about the peer's capabilities, then ask for ours.
  hci::IoCapabilityResponseEvt response;
  response.bdaddr = link.peer;
  response.io_capability = static_cast<hci::IoCapability>(iocap.io_capability);
  response.oob_data_present = iocap.oob_data_present;
  response.authentication_requirements = iocap.authentication_requirements;
  send_event(hci::encode(response));
  send_event(hci::encode(hci::IoCapabilityRequestEvt{link.peer}));
}

void Controller::on_lmp_io_cap_res(Link& link, const LmpIoCap& iocap) {
  if (link.ssp == nullptr || !link.ssp->initiator) return;
  link.ssp->peer_iocap =
      crypto::IoCapTriplet{iocap.io_capability, iocap.oob_data_present,
                           iocap.authentication_requirements};
  hci::IoCapabilityResponseEvt response;
  response.bdaddr = link.peer;
  response.io_capability = static_cast<hci::IoCapability>(iocap.io_capability);
  response.oob_data_present = iocap.oob_data_present;
  response.authentication_requirements = iocap.authentication_requirements;
  send_event(hci::encode(response));
  send_public_key(link);
}

void Controller::send_public_key(Link& link) {
  auto& ssp = *link.ssp;
  ssp.local_keypair = crypto::generate_keypair(*ssp.curve, rng_);
  LmpPublicKey pdu;
  pdu.x = crypto::coordinate_bytes(*ssp.curve, ssp.local_keypair.public_key.x);
  pdu.y = crypto::coordinate_bytes(*ssp.curve, ssp.local_keypair.public_key.y);
  send_lmp(link, LmpOpcode::kEncapsulatedPublicKey, pdu::encode(pdu));
  arm_lmp_timer(link);
}

void Controller::on_lmp_public_key(Link& link, const LmpPublicKey& key) {
  if (link.ssp == nullptr) return;
  auto& ssp = *link.ssp;
  if (!ssp.initiator && ssp.curve == nullptr) {
    // Responder adapts to the initiator's curve choice (by coordinate width).
    ssp.curve = key.x.size() == 32 ? &crypto::EcCurve::p256() : &crypto::EcCurve::p192();
  }
  auto px = crypto::U256::from_bytes_be(key.x);
  auto py = crypto::U256::from_bytes_be(key.y);
  if (!px || !py) {
    finish_pairing(link, false);
    return;
  }
  ssp.peer_public = crypto::EcPoint::affine(*px, *py);
  if (!ssp.curve->on_curve(ssp.peer_public)) {
    // Invalid-curve defense: refuse off-curve points outright.
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kEncapsulatedPublicKey,
                 static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
    finish_pairing(link, false);
    return;
  }
  ssp.have_peer_key = true;

  if (!ssp.initiator) {
    // Responder: reply with our key, then open Stage 1 with the commitment.
    ssp.local_keypair = crypto::generate_keypair(*ssp.curve, rng_);
    LmpPublicKey reply;
    reply.x = crypto::coordinate_bytes(*ssp.curve, ssp.local_keypair.public_key.x);
    reply.y = crypto::coordinate_bytes(*ssp.curve, ssp.local_keypair.public_key.y);
    send_lmp(link, LmpOpcode::kEncapsulatedPublicKey, pdu::encode(reply));

    auto dh = crypto::ecdh_shared_secret(*ssp.curve, ssp.local_keypair.private_key,
                                         ssp.peer_public);
    if (!dh) {
      finish_pairing(link, false);
      return;
    }
    ssp.dhkey = *dh;
    ssp.have_dhkey = true;

    ssp.local_nonce = rng_.bytes<16>();
    const crypto::LinkKey commitment =
        crypto::f1(*ssp.curve, ssp.local_keypair.public_key.x, ssp.peer_public.x,
                   ssp.local_nonce, 0);
    send_lmp(link, LmpOpcode::kSimplePairingConfirm,
             Bytes(commitment.begin(), commitment.end()));
  } else {
    auto dh = crypto::ecdh_shared_secret(*ssp.curve, ssp.local_keypair.private_key,
                                         ssp.peer_public);
    if (!dh) {
      finish_pairing(link, false);
      return;
    }
    ssp.dhkey = *dh;
    ssp.have_dhkey = true;
    arm_lmp_timer(link);  // waiting for the responder's commitment
  }
}

void Controller::on_lmp_sp_confirm(Link& link, const crypto::LinkKey& commitment) {
  if (link.ssp == nullptr || !link.ssp->initiator) return;
  auto& ssp = *link.ssp;
  ssp.peer_commitment = commitment;
  ssp.have_commitment = true;
  // Reveal our nonce.
  ssp.local_nonce = rng_.bytes<16>();
  send_lmp(link, LmpOpcode::kSimplePairingNumber, rand_bytes(ssp.local_nonce));
  arm_lmp_timer(link);
}

void Controller::on_lmp_sp_number(Link& link, const crypto::Rand128& nonce) {
  if (link.ssp == nullptr) return;
  auto& ssp = *link.ssp;
  ssp.peer_nonce = nonce;
  ssp.have_peer_nonce = true;

  if (!ssp.initiator) {
    // Responder received Na; reveal Nb.
    send_lmp(link, LmpOpcode::kSimplePairingNumber, rand_bytes(ssp.local_nonce));
    maybe_raise_user_confirmation(link);
    return;
  }

  // Initiator received Nb: verify the responder's commitment opens.
  const crypto::LinkKey expected = crypto::f1(*ssp.curve, ssp.peer_public.x,
                                              ssp.local_keypair.public_key.x, nonce, 0);
  if (!ssp.have_commitment ||
      !ct_equal(BytesView(expected.data(), expected.size()),
                BytesView(ssp.peer_commitment.data(), ssp.peer_commitment.size()))) {
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kSimplePairingNumber,
                 static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
    finish_pairing(link, false);
    return;
  }
  maybe_raise_user_confirmation(link);
}

void Controller::maybe_raise_user_confirmation(Link& link) {
  auto& ssp = *link.ssp;
  // Both sides now hold (Na, Nb) and compute the same numeric value. The
  // controller always raises User_Confirmation_Request; whether a human sees
  // it is the host's (UI model's) business — that split is what the SSP
  // downgrade abuses.
  const crypto::Rand128& na = ssp.initiator ? ssp.local_nonce : ssp.peer_nonce;
  const crypto::Rand128& nb = ssp.initiator ? ssp.peer_nonce : ssp.local_nonce;
  const crypto::U256& init_x =
      ssp.initiator ? ssp.local_keypair.public_key.x : ssp.peer_public.x;
  const crypto::U256& resp_x =
      ssp.initiator ? ssp.peer_public.x : ssp.local_keypair.public_key.x;
  const std::uint32_t value = crypto::g(*ssp.curve, init_x, resp_x, na, nb);
  hci::UserConfirmationRequestEvt evt;
  evt.bdaddr = link.peer;
  evt.numeric_value = crypto::g_display(value);
  send_event(hci::encode(evt));
}

void Controller::handle_user_confirmation(const BdAddr& addr, bool accepted) {
  Link* link = link_by_peer(addr);
  if (link == nullptr || link->ssp == nullptr) return;
  if (!accepted) {
    send_lmp(*link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kSimplePairingNumber,
                 static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
    finish_pairing(*link, false);
    return;
  }
  link->ssp->local_confirmed = true;
  if (link->ssp->initiator) {
    send_dhkey_check(*link);
  } else if (!link->ssp->held_dhkey_check.empty()) {
    // The initiator's check arrived while we waited for our host.
    crypto::LinkKey check{};
    std::copy_n(link->ssp->held_dhkey_check.begin(), 16, check.begin());
    link->ssp->held_dhkey_check.clear();
    verify_peer_dhkey_check(*link, check);
  }
}

void Controller::send_dhkey_check(Link& link) {
  auto& ssp = *link.ssp;
  const crypto::Rand128 r{};  // Numeric Comparison / Just Works: R = 0
  // Each side sends f3 over (own nonce, peer nonce, own IOcap, own addr,
  // peer addr); the receiver verifies the mirrored computation.
  const crypto::LinkKey check = crypto::f3(*ssp.curve, ssp.dhkey, ssp.local_nonce,
                                           ssp.peer_nonce, r, ssp.local_iocap, config_.address,
                                           link.peer);
  send_lmp(link, LmpOpcode::kDhkeyCheck, Bytes(check.begin(), check.end()));
  if (ssp.initiator) arm_lmp_timer(link);
}

void Controller::on_lmp_dhkey_check(Link& link, const crypto::LinkKey& check) {
  if (link.ssp == nullptr) return;
  auto& ssp = *link.ssp;
  if (!ssp.initiator && !ssp.local_confirmed) {
    // Host has not confirmed yet; hold the check until it does.
    ssp.held_dhkey_check = Bytes(check.begin(), check.end());
    return;
  }
  verify_peer_dhkey_check(link, check);
}

void Controller::verify_peer_dhkey_check(Link& link, const crypto::LinkKey& check) {
  auto& ssp = *link.ssp;
  const crypto::Rand128 r{};
  const crypto::LinkKey expected =
      crypto::f3(*ssp.curve, ssp.dhkey, ssp.peer_nonce, ssp.local_nonce, r, ssp.peer_iocap,
                 link.peer, config_.address);
  if (!ct_equal(BytesView(expected.data(), expected.size()),
                BytesView(check.data(), check.size()))) {
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{
                 LmpOpcode::kDhkeyCheck,
                 static_cast<std::uint8_t>(hci::Status::kAuthenticationFailure)}));
    finish_pairing(link, false);
    return;
  }
  if (!ssp.initiator) {
    // Responder replies with its own check and is done.
    send_dhkey_check(link);
    finish_pairing(link, true);
  } else {
    finish_pairing(link, true);
  }
}

crypto::LinkKeyType Controller::derived_key_type(const Link& link) const {
  const auto& ssp = *link.ssp;
  const bool p256 = ssp.curve == &crypto::EcCurve::p256();
  // blap-lint: spec-ok — key-TYPE derivation (Core v5.3 Vol 2 Part H §7.4)
  // is controller business; ui_model owns only the host-side UI decisions.
  const bool just_works =
      ssp.local_iocap.io_capability ==
          static_cast<std::uint8_t>(hci::IoCapability::kNoInputNoOutput) ||
      ssp.peer_iocap.io_capability ==
          static_cast<std::uint8_t>(hci::IoCapability::kNoInputNoOutput);
  if (p256)
    return just_works ? crypto::LinkKeyType::kUnauthenticatedCombinationP256
                      : crypto::LinkKeyType::kAuthenticatedCombinationP256;
  return just_works ? crypto::LinkKeyType::kUnauthenticatedCombinationP192
                    : crypto::LinkKeyType::kAuthenticatedCombinationP192;
}

void Controller::finish_pairing(Link& link, bool success) {
  if (link.ssp == nullptr) return;
  if (!success) {
    obs_end_pair(link, false);
    hci::SimplePairingCompleteEvt evt;
    evt.status = hci::Status::kAuthenticationFailure;
    evt.bdaddr = link.peer;
    send_event(hci::encode(evt));
    auth_failed(link, hci::Status::kAuthenticationFailure);
    return;
  }
  auto& ssp = *link.ssp;
  const crypto::Rand128& na = ssp.initiator ? ssp.local_nonce : ssp.peer_nonce;
  const crypto::Rand128& nb = ssp.initiator ? ssp.peer_nonce : ssp.local_nonce;
  const BdAddr init_addr = ssp.initiator ? config_.address : link.peer;
  const BdAddr resp_addr = ssp.initiator ? link.peer : config_.address;
  link.key = crypto::f2(*ssp.curve, ssp.dhkey, na, nb, init_addr, resp_addr);
  link.have_key = true;

  hci::SimplePairingCompleteEvt pairing_evt;
  pairing_evt.status = hci::Status::kSuccess;
  pairing_evt.bdaddr = link.peer;
  send_event(hci::encode(pairing_evt));

  obs_end_pair(link, true);
  if (obs_ != nullptr) {
    obs_->count("hci.link_key_notifications");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHci, "link_key_notification",
                    strfmt("new SSP key for %s", link.peer.to_string().c_str()));
  }
  hci::LinkKeyNotificationEvt key_evt;
  key_evt.bdaddr = link.peer;
  key_evt.link_key = link.key;
  key_evt.key_type = derived_key_type(link);
  send_event(hci::encode(key_evt));

  const bool was_initiator = ssp.initiator;
  link.ssp.reset();
  link.auth = AuthState::kIdle;
  if (link.auth_requested_by_host && was_initiator) {
    // Continue with LMP authentication on the fresh key (Fig. 2a bottom).
    send_challenge(link);
  }
}

// ---------------------------------------------------------------------------
// Legacy (pre-SSP) PIN pairing: E22 initialization key, E21 combination key
// ---------------------------------------------------------------------------

namespace {
crypto::LinkKey xor16(const crypto::LinkKey& a, const crypto::LinkKey& b) {
  crypto::LinkKey out{};
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}
}  // namespace

void Controller::start_legacy_pairing_as_initiator(Link& link) {
  link.auth = AuthState::kPairing;
  link.legacy = std::make_unique<LegacyContext>();
  link.legacy->initiator = true;
  obs_begin_pair(link, "legacy pin initiator");
  send_event(hci::encode(hci::PinCodeRequestEvt{link.peer}));
}

void Controller::handle_pin_code_reply(const hci::PinCodeRequestReplyCmd& cmd) {
  command_complete(hci::op::kPinCodeRequestReply, hci::Status::kSuccess);
  Link* link = link_by_peer(cmd.bdaddr);
  if (link == nullptr || link->legacy == nullptr) return;
  auto& legacy = *link->legacy;
  const Bytes pin(cmd.pin.begin(), cmd.pin.end());
  if (legacy.initiator) {
    // Kinit binds the *initiator's* BD_ADDR; both sides use it.
    legacy.in_rand = rng_.bytes<16>();
    legacy.have_in_rand = true;
    legacy.kinit = crypto::e22(legacy.in_rand, pin, config_.address);
    legacy.have_kinit = true;
    send_lmp(*link, LmpOpcode::kInRand, rand_bytes(legacy.in_rand));
    arm_lmp_timer(*link);
  } else {
    if (!legacy.have_in_rand) return;
    legacy.kinit = crypto::e22(legacy.in_rand, pin, link->peer);
    legacy.have_kinit = true;
    send_lmp(*link, LmpOpcode::kAccepted,
             Bytes{static_cast<std::uint8_t>(LmpOpcode::kInRand)});
  }
}

void Controller::handle_pin_code_negative_reply(const BdAddr& addr) {
  Link* link = link_by_peer(addr);
  if (link == nullptr || link->legacy == nullptr) return;
  send_lmp(*link, LmpOpcode::kNotAccepted,
           pdu::encode(LmpNotAccepted{LmpOpcode::kInRand,
                                      static_cast<std::uint8_t>(hci::Status::kPairingNotAllowed)}));
  link->legacy.reset();
  obs_end_pair(*link, false);
  auth_failed(*link, hci::Status::kPairingNotAllowed);
}

void Controller::on_lmp_in_rand(Link& link, const crypto::Rand128& in_rand) {
  // We are the legacy-pairing responder: remember IN_RAND and ask the host
  // (i.e. the user) for the PIN.
  link.auth = AuthState::kPairing;
  link.legacy = std::make_unique<LegacyContext>();
  link.legacy->initiator = false;
  link.legacy->in_rand = in_rand;
  link.legacy->have_in_rand = true;
  obs_begin_pair(link, "legacy pin responder");
  send_event(hci::encode(hci::PinCodeRequestEvt{link.peer}));
}

void Controller::send_comb_key_contribution(Link& link) {
  auto& legacy = *link.legacy;
  legacy.local_lk_rand = rng_.bytes<16>();
  legacy.sent_comb = true;
  // The contribution travels masked with Kinit — this XOR is all that
  // protects legacy pairing, which is why a sniffed exchange brute-forces
  // (paper refs [14], [15]).
  const crypto::LinkKey masked = xor16(legacy.local_lk_rand, legacy.kinit);
  send_lmp(link, LmpOpcode::kCombKey, Bytes(masked.begin(), masked.end()));
  if (legacy.initiator) arm_lmp_timer(link);
}

void Controller::on_lmp_comb_key(Link& link, const crypto::LinkKey& masked_contribution) {
  if (link.legacy == nullptr || !link.legacy->have_kinit) return;
  auto& legacy = *link.legacy;
  const crypto::LinkKey peer_lk_rand = xor16(masked_contribution, legacy.kinit);
  if (!legacy.sent_comb) send_comb_key_contribution(link);
  finish_legacy_pairing(link, peer_lk_rand);
}

void Controller::finish_legacy_pairing(Link& link, const crypto::LinkKey& peer_lk_rand) {
  auto& legacy = *link.legacy;
  // Each side contributes E21(LK_RAND, own address); the combination key is
  // the XOR of the two contributions.
  const crypto::LinkKey local_contribution = crypto::e21(legacy.local_lk_rand, config_.address);
  const crypto::LinkKey peer_contribution = crypto::e21(peer_lk_rand, link.peer);
  link.key = crypto::combination_key(local_contribution, peer_contribution);
  link.have_key = true;

  obs_end_pair(link, true);
  if (obs_ != nullptr) {
    obs_->count("hci.link_key_notifications");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHci, "link_key_notification",
                    strfmt("new legacy combination key for %s", link.peer.to_string().c_str()));
  }
  hci::LinkKeyNotificationEvt key_evt;
  key_evt.bdaddr = link.peer;
  key_evt.link_key = link.key;
  key_evt.key_type = crypto::LinkKeyType::kCombination;
  send_event(hci::encode(key_evt));

  const bool was_initiator = legacy.initiator;
  link.legacy.reset();
  link.auth = AuthState::kIdle;
  if (link.auth_requested_by_host && was_initiator) send_challenge(link);
}

// ---------------------------------------------------------------------------
// Encryption
// ---------------------------------------------------------------------------

void Controller::on_lmp_encryption_mode_req(Link& link) {
  send_lmp(link, LmpOpcode::kAccepted,
           Bytes{static_cast<std::uint8_t>(LmpOpcode::kEncryptionModeReq)});
}

void Controller::on_lmp_start_encryption_req(Link& link, const crypto::Rand128& en_rand) {
  if (!link.have_key || !link.have_aco) {
    send_lmp(link, LmpOpcode::kNotAccepted,
             pdu::encode(LmpNotAccepted{LmpOpcode::kStartEncryptionReq,
                                        static_cast<std::uint8_t>(hci::Status::kPinOrKeyMissing)}));
    return;
  }
  link.enc_key = crypto::e3(link.key, en_rand, link.aco);
  link.encrypted = true;
  link.tx_counter = link.rx_counter = 0;
  if (obs_ != nullptr) {
    obs_->count("lmp.encryption_starts");
    obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kLmp, "encryption_on",
                  "responder side: E0 key live");
  }
  send_lmp(link, LmpOpcode::kAccepted,
           Bytes{static_cast<std::uint8_t>(LmpOpcode::kStartEncryptionReq)});
  hci::EncryptionChangeEvt evt;
  evt.handle = link.handle;
  evt.encryption_enabled = 1;
  send_event(hci::encode(evt));
}

// ---------------------------------------------------------------------------
// LMP send machinery, timers, link management
// ---------------------------------------------------------------------------

void Controller::send_lmp(Link& link, LmpOpcode opcode, Bytes payload) {
  LmpPdu pdu;
  pdu.opcode = opcode;
  pdu.payload = std::move(payload);
  if (obs_ != nullptr) {
    obs_->count("lmp.tx");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kLmp,
                    strfmt("lmp_tx:%s", to_string(opcode)));
  }
  BLAP_TRACE("lmp", "%s tx %s", config_.address.to_string().c_str(), to_string(opcode));
  // The PDU dies between the LM and the baseband TX buffer — no ARQ entry,
  // no report. A peer mid-transaction recovers via its LMP response
  // timeout; otherwise supervision owns the verdict.
  if (BLAP_FAILPOINT("controller.lmp.tx_lost")) return;
  send_baseband(link, pdu.to_air_frame());
}

void Controller::send_baseband(Link& link, Bytes air_frame) {
  // Clean channel: the frame always arrives, so asking for a delivery
  // report would only burn scheduler events — skip ARQ entirely.
  if (!medium_.faults_enabled()) {
    medium_.send_frame(link.radio_link, this, std::move(air_frame));
    return;
  }
  // Stop-and-wait ARQ: LMP and encrypted ACL both depend on in-order
  // delivery, so frame N+1 must not fly until frame N is ACKed or
  // abandoned — a retransmission overtaken by a newer frame would desync
  // the peer's LMP state machine.
  link.tx_queue.push_back(std::move(air_frame));
  if (!link.tx_busy) arq_start_next(link);
}

void Controller::arq_start_next(Link& link) {
  if (link.tx_queue.empty()) {
    link.tx_busy = false;
    return;
  }
  link.tx_busy = true;
  arq_transmit(link.handle, 0);
}

void Controller::arq_transmit(hci::ConnectionHandle handle, unsigned attempt) {
  Link* link = link_by_handle(handle);
  if (link == nullptr || link->tx_queue.empty()) return;
  medium_.send_frame(link->radio_link, this, link->tx_queue.front(),
                     [this, handle, attempt](bool delivered) {
                       arq_on_report(handle, attempt, delivered);
                     });
}

void Controller::arq_on_report(hci::ConnectionHandle handle, unsigned attempt, bool delivered) {
  // The ACK bookkeeping drops the report on the floor: the ARQ engine
  // stalls with tx_busy held, and the supervision timeout is what
  // eventually clears the link.
  if (BLAP_FAILPOINT("controller.arq.report_lost")) return;
  // A phantom NAK: the frame actually arrived but the report says it did
  // not — the retransmission must not desync the peer (duplicate delivery).
  if (BLAP_FAILPOINT("controller.arq.phantom_nak")) delivered = false;
  Link* link = link_by_handle(handle);
  if (link == nullptr) return;          // torn down while the frame flew
  if (link->tx_queue.empty()) return;   // queue flushed (fault plan cleared)
  if (delivered) {
    if (obs_ != nullptr && attempt > 0) obs_->count("arq.recovered");
    link->tx_queue.pop_front();
    arq_start_next(*link);
    return;
  }
  if (attempt >= config_.arq_max_retransmissions) {
    // Out of retries: abandon this frame and move on to the next. Do NOT
    // tear the link down here — a retry burst losing one frame is not link
    // death. The supervision timer owns that verdict.
    if (obs_ != nullptr) {
      obs_->count("arq.exhausted");
      if (obs_->tracing())
        obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kController, "arq_exhausted",
                      strfmt("frame dropped after %u retransmissions", attempt));
    }
    BLAP_DEBUG("arq", "%s: frame on handle 0x%04x lost after %u retransmissions",
               config_.address.to_string().c_str(), handle, attempt);
    link->tx_queue.pop_front();
    arq_start_next(*link);
    return;
  }
  if (obs_ != nullptr) {
    obs_->count("arq.retransmissions");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kController, "arq_retx",
                    strfmt("handle 0x%04x attempt %u", handle, attempt + 1));
  }
  // Exponential backoff: 1x, 2x, 4x... the base delay. Deterministic (no
  // jitter draw) so a trial's retransmission timeline is a pure function of
  // the fault plan.
  const SimTime backoff = config_.arq_backoff_base << attempt;
  scheduler_.schedule_in(backoff, [this, handle, attempt] {
    Link* live = link_by_handle(handle);
    if (live == nullptr || live->tx_queue.empty()) return;  // died during backoff
    arq_transmit(handle, attempt + 1);
  });
}

void Controller::arm_supervision_timer(Link& link) {
  if (!medium_.faults_enabled()) return;
  link.supervision_timer.cancel();
  const hci::ConnectionHandle handle = link.handle;
  SimTime timeout = config_.supervision_timeout;
  // The supervision counter is misprogrammed: it expires almost at once and
  // kills a healthy link. Recovery is the host's reconnect machinery.
  if (BLAP_FAILPOINT("controller.supervision.timer_early")) timeout = 1;
  link.supervision_timer =
      scheduler_.schedule_in(timeout, [this, handle] { supervision_timeout(handle); });
}

void Controller::supervision_timeout(hci::ConnectionHandle handle) {
  Link* link = link_by_handle(handle);
  if (link == nullptr) return;
  BLAP_INFO("controller", "%s: supervision timeout on handle 0x%04x — link presumed dead",
            config_.address.to_string().c_str(), handle);
  if (obs_ != nullptr) {
    obs_->count("controller.supervision_timeouts");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kController,
                    "supervision_timeout",
                    strfmt("no frame received for %llu us",
                           static_cast<unsigned long long>(config_.supervision_timeout)));
  }
  // Genuine supervision teardown: Disconnection_Complete with the spec's
  // Connection Timeout reason. The radio-level close also informs the peer
  // (a detach indication in our model); its own supervision timer would
  // reach the same verdict moments later anyway.
  teardown_link(*link, hci::Status::kConnectionTimeout, true);
}

void Controller::refresh_fault_state() {
  for (auto& [handle, link] : links_) {
    if (medium_.faults_enabled()) {
      arm_supervision_timer(link);
    } else {
      link.supervision_timer.cancel();
      // The channel is clean again: flush anything still waiting on an ACK
      // straight onto the medium, in order. In-flight report callbacks see
      // the empty queue and stand down.
      while (!link.tx_queue.empty()) {
        medium_.send_frame(link.radio_link, this, std::move(link.tx_queue.front()));
        link.tx_queue.pop_front();
      }
      link.tx_busy = false;
    }
  }
}

void Controller::arm_lmp_timer(Link& link) {
  link.lmp_timer.cancel();
  const hci::ConnectionHandle handle = link.handle;
  SimTime timeout = config_.lmp_response_timeout;
  // The LMP response timer fires while the peer's reply is still in flight.
  if (BLAP_FAILPOINT("controller.lmp.timer_early")) timeout = 1;
  link.lmp_timer = scheduler_.schedule_in(timeout, [this, handle] { lmp_timeout(handle); });
}

void Controller::disarm_lmp_timer(Link& link) { link.lmp_timer.cancel(); }

void Controller::lmp_timeout(hci::ConnectionHandle handle) {
  Link* link = link_by_handle(handle);
  if (link == nullptr) return;
  BLAP_INFO("lmp", "%s: LMP response timeout on handle 0x%04x — dropping link",
            config_.address.to_string().c_str(), handle);
  // The peer stalled mid-transaction. Tear the link down with a timeout —
  // crucially NOT an authentication failure, so the host keeps any bond.
  if (obs_ != nullptr) {
    obs_->count("lmp.response_timeouts");
    obs_->end_span(scheduler_.now(), link->obs_auth_span,
                   "LMP response timeout (bond preserved)");
    link->obs_auth_span = 0;
    obs_->end_span(scheduler_.now(), link->obs_pair_span, "LMP response timeout");
    link->obs_pair_span = 0;
  }
  if (link->auth_requested_by_host) {
    hci::AuthenticationCompleteEvt evt;
    evt.status = hci::Status::kLmpResponseTimeout;
    evt.handle = handle;
    send_event(hci::encode(evt));
    link->auth_requested_by_host = false;
  }
  teardown_link(*link, hci::Status::kConnectionTimeout, true);
}

void Controller::teardown_link(Link& link, hci::Status reason, bool notify_peer) {
  // Detach the map node FIRST. Teardown can re-enter — a supervision
  // timeout delivered in the same slot as a local close used to find the
  // entry still live and notify the host twice (and leave this reference
  // dangling after the inner erase). With the node extracted, any nested
  // teardown for the same handle sees an empty map and returns: one
  // Disconnection_Complete per link, ever. References into the extracted
  // node remain valid for the rest of this frame.
  auto node = links_.extract(link.handle);
  if (node.empty()) return;
  // Replays exactly that race: the supervision timer expires at teardown
  // entry, after the node left the map.
  if (BLAP_FAILPOINT("controller.teardown.supervision_race"))
    supervision_timeout(link.handle);
  const hci::ConnectionHandle handle = link.handle;
  const radio::LinkId radio_link = link.radio_link;
  const BdAddr peer = link.peer;
  const LinkState state = link.state;
  link.lmp_timer.cancel();
  link.accept_timer.cancel();
  link.supervision_timer.cancel();
  if (notify_peer) medium_.close_link(radio_link, this, static_cast<std::uint8_t>(reason));
  if (state == LinkState::kConnecting) {
    // The link died (e.g. LMP response timeout under total loss) before the
    // host-level connection completed: the host never learned this handle,
    // so a Disconnection_Complete would be silently dropped and the host's
    // operation would hang forever. Its Create_Connection failed — say so.
    hci::ConnectionCompleteEvt evt;
    evt.status = reason;
    evt.bdaddr = peer;
    send_event(hci::encode(evt));
    return;
  }
  if (state == LinkState::kConnected) {
    hci::DisconnectionCompleteEvt evt;
    evt.handle = handle;
    evt.reason = reason;
    send_event(hci::encode(evt));
  }
}

std::vector<Controller::LinkAudit> Controller::audit_links() const {
  std::vector<LinkAudit> out;
  out.reserve(links_.size());
  for (const auto& [handle, link] : links_) {
    LinkAudit audit;
    audit.handle = handle;
    audit.radio_link = link.radio_link;
    audit.peer = link.peer;
    audit.connected = link.state == LinkState::kConnected;
    audit.tx_busy = link.tx_busy;
    audit.tx_queue_depth = link.tx_queue.size();
    out.push_back(audit);
  }
  return out;
}

Controller::Link* Controller::link_by_handle(hci::ConnectionHandle handle) {
  auto it = links_.find(handle);
  return it == links_.end() ? nullptr : &it->second;
}

Controller::Link* Controller::link_by_peer(const BdAddr& peer) {
  for (auto& [handle, link] : links_)
    if (link.peer == peer) return &link;
  return nullptr;
}

Controller::Link* Controller::link_by_radio(radio::LinkId id) {
  for (auto& [handle, link] : links_)
    if (link.radio_link == id) return &link;
  return nullptr;
}

namespace {

// Sub-lists of the SSP context.
template <state::StateIo Io, class V>
void u256_fields(Io& io, V& v) {
  std::array<std::uint64_t, crypto::U256::kLimbs> limbs = v.limbs();
  io.field(limbs);
  if constexpr (Io::kLoading) v = crypto::U256(limbs);
}

template <state::StateIo Io, class Point>
void point_fields(Io& io, Point& point) {
  u256_fields(io, point.x);
  u256_fields(io, point.y);
  io.field(point.infinity);
}

template <state::StateIo Io, class Triplet>
void iocap_fields(Io& io, Triplet& triplet) {
  io.field(triplet.io_capability);
  io.field(triplet.oob_data_present);
  io.field(triplet.auth_req);
}

/// The curve a stored coordinate size names. Only a responder that has not
/// yet seen the initiator's key has none: an initiator's context always
/// carries its curve (start_pairing_as_initiator), and send_public_key
/// dereferences it.
const crypto::EcCurve* curve_of(state::StateReader& r, std::uint8_t coordinate_size,
                                bool initiator) {
  if (coordinate_size == 24) return &crypto::EcCurve::p192();
  if (coordinate_size == 32) return &crypto::EcCurve::p256();
  if (coordinate_size != 0 || initiator)
    r.refuse(1, "invalid SSP curve byte " + std::to_string(coordinate_size) +
                    (initiator ? " in an initiator context" : ""));
  return nullptr;
}

}  // namespace

bool Controller::quiescent() const {
  if (inquiring_) return false;
  for (const auto& [handle, link] : links_) {
    if (link.state != LinkState::kConnected) return false;
    if (link.auth != AuthState::kIdle) return false;
    if (link.ssp != nullptr || link.legacy != nullptr) return false;
    if (!link.tx_queue.empty() || link.tx_busy) return false;
  }
  return true;
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void Controller::persist(Io& io, Self& self) {
  auto& config = self.config_;
  io.field(config.address);
  io.field(config.class_of_device);
  io.field(config.name);
  io.field(config.secure_connections);
  io.field(config.page_scan_interval);
  io.field(config.page_timeout);
  io.field(config.connection_accept_timeout);
  io.field(config.lmp_response_timeout);
  io.field(config.arq_max_retransmissions);
  io.field(config.arq_backoff_base);
  io.field(config.supervision_timeout);

  io.field(self.rng_);
  io.field(self.scan_enable_);
  io.field(self.simple_pairing_mode_);
  io.field(self.inquiring_);
  io.field(self.next_handle_);

  const auto link_fields = [&io](auto& link) {
    io.field(link.radio_link);
    io.field(link.handle);
    io.field(link.peer);
    io.field(link.initiator);
    io.field(link.state);
    io.field(link.auth);
    io.field(link.auth_requested_by_host);
    // blap-taint: declassified — snapshot key section: link keys are part of the
    // length-framed controller state a fork/replay trial must restore bit-exactly
    io.field(link.key);
    io.field(link.have_key);
    io.field(link.challenge);
    io.field(link.pending_au_rand);
    io.field(link.have_pending_au_rand);
    io.field(link.pending_au_rand_is_sc);
    io.field(link.sc_expected_sres);
    io.field(link.sc_in_use);
    io.field(link.aco);
    io.field(link.have_aco);

    io.opt(link.ssp, [&io](auto& ssp) {
      io.field(ssp.initiator);
      std::uint8_t coordinate_size =
          ssp.curve != nullptr ? static_cast<std::uint8_t>(ssp.curve->coordinate_size()) : 0;
      io.field(coordinate_size);
      if constexpr (Io::kLoading) ssp.curve = curve_of(io, coordinate_size, ssp.initiator);
      u256_fields(io, ssp.local_keypair.private_key);
      point_fields(io, ssp.local_keypair.public_key);
      point_fields(io, ssp.peer_public);
      io.field(ssp.have_peer_key);
      io.field(ssp.local_nonce);
      io.field(ssp.peer_nonce);
      io.field(ssp.have_peer_nonce);
      // blap-taint: declassified — snapshot key section (SSP commitment)
      io.field(ssp.peer_commitment);
      io.field(ssp.have_commitment);
      iocap_fields(io, ssp.local_iocap);
      iocap_fields(io, ssp.peer_iocap);
      u256_fields(io, ssp.dhkey);
      io.field(ssp.have_dhkey);
      io.field(ssp.local_confirmed);
      io.field(ssp.held_dhkey_check);
    });

    io.opt(link.legacy, [&io](auto& legacy) {
      io.field(legacy.initiator);
      io.field(legacy.in_rand);
      io.field(legacy.have_in_rand);
      // blap-taint: declassified — snapshot key section (legacy Kinit)
      io.field(legacy.kinit);
      io.field(legacy.have_kinit);
      io.field(legacy.local_lk_rand);
      io.field(legacy.sent_comb);
    });

    io.field(link.encrypted);
    // blap-taint: declassified — snapshot key section (E0 session key)
    io.field(link.enc_key);
    io.field(link.pending_en_rand);
    io.field(link.tx_counter);
    io.field(link.rx_counter);
    io.seq(link.tx_queue);
    io.field(link.tx_busy);
    io.field(link.obs_auth_span);
    io.field(link.obs_pair_span);
    io.field(link.obs_enc_span);
  };
  if constexpr (Io::kLoading) {
    // Links load into a new map, committed only if the reader is still ok.
    // Timers are EventHandles: in kInPlace mode the live handles on the
    // existing link entry stay armed; after a rewind every handle is stale
    // by construction and a default handle is the correct restored value.
    std::map<hci::ConnectionHandle, Link> restored;
    io.map(restored, state::Duplicates::kFirstWins, [&](auto& handle, Link& link) {
      link_fields(link);
      handle = link.handle;
      const auto live = self.links_.find(handle);
      if (io.mode() == state::RestoreMode::kInPlace && live != self.links_.end()) {
        link.lmp_timer = live->second.lmp_timer;
        link.accept_timer = live->second.accept_timer;
        link.supervision_timer = live->second.supervision_timer;
      }
    });
    if (io.ok()) self.links_ = std::move(restored);
    // The medium's section restored before this one and indexed our
    // *pre-restore* address and scan bits; re-sync now that they are final.
    self.medium_.notify_endpoint_changed(&self);
  } else {
    io.map(self.links_, state::Duplicates::kFirstWins,
           [&](auto&, const Link& link) { link_fields(link); });
  }
}

template void Controller::persist(state::StateWriter&, const Controller&);
template void Controller::persist(state::StateReader&, Controller&);

}  // namespace blap::controller
