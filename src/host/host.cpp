#include "host/host.hpp"

#include "chaos/failpoint.hpp"

namespace blap::host {

namespace {
// A profile op whose channel or setup the peer refused. Profile callbacks
// see only success or failure, so the code itself is never surfaced.
constexpr hci::Status kProfileRefused = hci::Status::kPairingNotAllowed;
}  // namespace

HostStack::HostStack(Scheduler& scheduler, transport::HciTransport& transport, HostConfig config)
    : scheduler_(scheduler), transport_(transport), config_(std::move(config)),
      l2cap_([this](hci::ConnectionHandle handle, BytesView payload) {
        Acl* acl = acl_by_handle(handle);
        if (acl != nullptr) touch(*acl);
        transport_.send(hci::Direction::kHostToController, hci::make_acl(handle, payload));
      }),
      sdp_client_(l2cap_) {
  transport_.set_host_receiver([this](const hci::HciPacket& p) { on_packet(p); });
  // The HCI dump tap records traffic in both directions at the transport —
  // exactly where Android's snoop module and a hardware analyzer sit.
  transport_.add_tap([this](hci::Direction direction, const hci::HciPacket& packet) {
    if (!snoop_enabled_) return;
    hci::SnoopRecord record;
    record.timestamp_us = scheduler_.now();
    record.direction = direction;
    record.packet = packet;
    snoop_.append(std::move(record));
  });

  l2cap_.set_auth_oracle([this](hci::ConnectionHandle handle) {
    Acl* acl = acl_by_handle(handle);
    return acl != nullptr && (acl->authenticated || acl->encrypted);
  });
  l2cap_.set_mitm_oracle([this](hci::ConnectionHandle handle) {
    Acl* acl = acl_by_handle(handle);
    if (acl == nullptr || !(acl->authenticated || acl->encrypted)) return false;
    const BondRecord* bond = security_.bond_for(acl->peer);
    if (bond == nullptr) return false;
    // Only keys derived with user verification qualify for level 3.
    return bond->key_type == crypto::LinkKeyType::kAuthenticatedCombinationP192 ||
           bond->key_type == crypto::LinkKeyType::kAuthenticatedCombinationP256;
  });

  // SDP: requests -> server, responses -> client (shared PSM, both roles).
  L2cap::Service sdp_service;
  sdp_service.requires_authentication = false;
  sdp_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (!sdp_server_.handle(l2cap_, channel, data)) sdp_client_.on_response(data);
  };
  l2cap_.register_service(psm::kSdp, std::move(sdp_service));

  // PAN/BNEP: setup requests -> server, setup responses -> the op in flight.
  L2cap::Service pan_service;
  pan_service.requires_authentication = true;
  pan_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (pan_.handle_server(l2cap_, channel, data)) return;
    if (auto accepted = PanProfile::parse_response(data))
      answer_op(ProfileTarget::kPan, channel, *accepted ? hci::Status::kSuccess : kProfileRefused);
  };
  l2cap_.register_service(psm::kBnep, std::move(pan_service));

  // PBAP: phone book pulls, authenticated only — the paper's §III target
  // data. A default phone book marks the device's "sensitive" content.
  // Pull requests -> server, pull responses -> the op in flight.
  L2cap::Service pbap_service;
  pbap_service.requires_authentication = true;
  pbap_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (pbap_.handle_server(l2cap_, channel, data)) return;
    if (auto entries = PbapProfile::parse_response(data))
      answer_op(ProfileTarget::kPbap, channel, hci::Status::kSuccess, std::move(entries));
  };
  l2cap_.register_service(psm::kPbap, std::move(pbap_service));
  pbap_.set_phonebook({"BEGIN:VCARD N:Alice TEL:+1-202-555-0101 END:VCARD",
                       "BEGIN:VCARD N:Bob TEL:+1-202-555-0102 END:VCARD",
                       "BEGIN:VCARD N:Charlie TEL:+1-202-555-0103 END:VCARD"});

  // HFP: AT control + call audio, authenticated only. Channels are tracked
  // per peer on both roles so either side can send RING/audio afterwards.
  L2cap::Service hfp_service;
  hfp_service.requires_authentication = true;
  hfp_service.on_open = [this](const L2capChannel& channel) {
    if (Acl* acl = acl_by_handle(channel.acl_handle)) hfp_channels_[acl->peer] = channel;
  };
  hfp_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    hfp_.handle(l2cap_, channel, data);
  };
  l2cap_.register_service(psm::kHfp, std::move(hfp_service));

  // MAP: message store access, authenticated only. Requests -> server,
  // list and get replies -> the read in flight.
  L2cap::Service map_service;
  map_service.requires_authentication = true;
  map_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (map_.handle_server(l2cap_, channel, data)) return;
    if (auto reply = MapProfile::parse_response(data)) on_map_reply(std::move(*reply));
  };
  l2cap_.register_service(psm::kMap, std::move(map_service));
  map_.add_message(0x0001, "FROM:+1-202-555-0199 BODY:Meeting moved to 3pm");
  map_.add_message(0x0002, "FROM:bank BODY:Your one-time code is 482913");

  sdp_server_.add_service(uuid16::kSdpServer);
  sdp_server_.add_service(uuid16::kPanu);
  sdp_server_.add_service(uuid16::kNap);
  sdp_server_.add_service(uuid16::kPbap);
  sdp_server_.add_service(uuid16::kHandsFree);
  sdp_server_.add_service(uuid16::kMap);
}

void HostStack::power_on() {
  send_command(hci::encode(hci::ResetCmd{}));
  send_command(hci::encode(hci::ReadBdAddrCmd{}));
  send_command(hci::encode(hci::WriteLocalNameCmd{config_.device_name}));
  send_command(hci::encode(hci::WriteSimplePairingModeCmd{
      static_cast<std::uint8_t>(config_.simple_pairing ? 0x01 : 0x00)}));
  send_command(hci::encode(hci::WriteScanEnableCmd{hci::ScanEnable::kInquiryAndPage}));
}

void HostStack::send_command(const hci::HciPacket& packet) {
  if (obs_ != nullptr) obs_->count("host.cmds_sent");
  transport_.send(hci::Direction::kHostToController, packet);
}

void HostStack::enable_snoop(bool enabled) {
  if (enabled && !config_.hci_dump_available) {
    BLAP_WARN("host", "%s: platform provides no HCI dump facility", config_.device_name.c_str());
    return;
  }
  snoop_enabled_ = enabled;
}

// ---------------------------------------------------------------------------
// GAP operations
// ---------------------------------------------------------------------------

void HostStack::discover(std::uint8_t inquiry_length,
                         std::function<void(std::vector<Discovered>)> callback) {
  discovery_callback_ = std::move(callback);
  discovery_results_.clear();
  hci::InquiryCmd cmd;
  cmd.inquiry_length = inquiry_length;
  send_command(hci::encode(cmd));
}

void HostStack::set_scan_mode(hci::ScanEnable mode) {
  send_command(hci::encode(hci::WriteScanEnableCmd{mode}));
}

void HostStack::discover_services(const BdAddr& peer, std::uint16_t uuid16,
                                  std::function<void(std::optional<SdpClient::Result>)> callback) {
  Acl* acl = acl_by_peer(peer);
  if (acl != nullptr) {
    sdp_client_.search(acl->handle, uuid16, std::move(callback));
    return;
  }
  // SDP needs no authentication, only an ACL: connect first.
  connect_only(peer, [this, peer, uuid16, callback = std::move(callback)](hci::Status status) {
    Acl* connected = acl_by_peer(peer);
    if (status != hci::Status::kSuccess || connected == nullptr) {
      if (callback) callback(std::nullopt);
      return;
    }
    sdp_client_.search(connected->handle, uuid16, callback);
  });
}

void HostStack::request_remote_name(const BdAddr& peer,
                                    std::function<void(std::optional<std::string>)> callback) {
  name_request_ = {peer, std::move(callback)};
  hci::RemoteNameRequestCmd cmd;
  cmd.bdaddr = peer;
  send_command(hci::encode(cmd));
}

void HostStack::on_remote_name_complete(const hci::RemoteNameRequestCompleteEvt& evt) {
  if (!name_request_ || !(name_request_->first == evt.bdaddr)) return;
  auto callback = std::move(name_request_->second);
  name_request_.reset();
  if (!callback) return;
  if (evt.status == hci::Status::kSuccess) callback(evt.remote_name);
  else callback(std::nullopt);
}

void HostStack::pair(const BdAddr& peer, StatusCallback callback) {
  start_op(peer, ProfileTarget::kNone, [cb = std::move(callback)](hci::Status status, OpResult) {
    if (cb) cb(status);
  });
}

void HostStack::start_op(const BdAddr& peer, ProfileTarget profile, OpDone done) {
  if (pair_op_) {
    done(hci::Status::kPairingNotAllowed, std::nullopt);  // one op at a time
    return;
  }
  PairOp op;
  op.peer = peer;
  op.profile = profile;
  op.done = std::move(done);
  if (profile == ProfileTarget::kNone && obs_ != nullptr) {
    obs_->count("host.pair_ops");
    if (obs_->tracing())
      op.obs_span = obs_->begin_span(scheduler_.now(), obs_tid_, obs::Layer::kHost, "pair_op",
                                     strfmt("target %s", peer.to_string().c_str()));
  }
  // A profile op over a link that is already authenticated goes straight
  // to its channel (the profile's GAP security requirement is met); pair()
  // always authenticates.
  const Acl* acl = acl_by_peer(peer);
  const bool secure = profile != ProfileTarget::kNone && acl != nullptr &&
                      (acl->authenticated || acl->encrypted);
  adopt_pair_op(std::move(op));
  if (secure) start_profile_channel(peer);
  else secure_link(peer);
}

void HostStack::secure_link(const BdAddr& peer) {
  // THE CRITICAL GAP BEHAVIOUR (paper §V-B): if an ACL to this BD_ADDR
  // already exists, skip connection establishment and send the pairing
  // request down the existing link — without verifying who created it.
  if (Acl* existing = acl_by_peer(peer)) {
    continue_pair_after_connect(*existing);
    return;
  }
  hci::CreateConnectionCmd cmd;
  cmd.bdaddr = peer;
  send_command(hci::encode(cmd));
}

void HostStack::continue_pair_after_connect(Acl& acl) {
  if (!pair_op_ || !(pair_op_->peer == acl.peer)) return;
  pair_op_->stage = OpStage::kAuthenticating;
  acl.is_pairing_initiator = true;
  touch(acl);
  send_command(hci::encode(hci::AuthenticationRequestedCmd{acl.handle}));
}

void HostStack::connect_only(const BdAddr& peer, StatusCallback callback) {
  if (acl_by_peer(peer) != nullptr) {
    if (callback) callback(hci::Status::kConnectionAlreadyExists);
    return;
  }
  connect_op_ = {peer, std::move(callback)};
  hci::CreateConnectionCmd cmd;
  cmd.bdaddr = peer;
  send_command(hci::encode(cmd));
}

void HostStack::connect_pan(const BdAddr& peer, BoolCallback callback) {
  start_op(peer, ProfileTarget::kPan, [cb = std::move(callback)](hci::Status status, OpResult) {
    if (cb) cb(status == hci::Status::kSuccess);
  });
}

void HostStack::pull_phonebook(const BdAddr& peer, ListCallback callback) {
  start_op(peer, ProfileTarget::kPbap, [cb = std::move(callback)](hci::Status, OpResult result) {
    if (cb) cb(std::move(result));
  });
}

void HostStack::read_messages(const BdAddr& peer, ListCallback callback) {
  start_op(peer, ProfileTarget::kMap, [cb = std::move(callback)](hci::Status, OpResult result) {
    if (cb) cb(std::move(result));
  });
}

void HostStack::connect_hfp(const BdAddr& peer, BoolCallback callback) {
  start_op(peer, ProfileTarget::kHfp, [cb = std::move(callback)](hci::Status status, OpResult) {
    if (cb) cb(status == hci::Status::kSuccess);
  });
}

void HostStack::hfp_send_at(const BdAddr& peer, const std::string& command) {
  auto it = hfp_channels_.find(peer);
  if (it == hfp_channels_.end()) return;
  hfp_.send_at(l2cap_, it->second, command);
}

void HostStack::hfp_send_audio(const BdAddr& peer, BytesView samples) {
  auto it = hfp_channels_.find(peer);
  if (it == hfp_channels_.end()) return;
  hfp_.send_audio(l2cap_, it->second, samples);
}

void HostStack::start_profile_channel(const BdAddr& peer) {
  Acl* acl = acl_by_peer(peer);
  if (acl == nullptr || !pair_op_ || pair_op_->profile == ProfileTarget::kNone) return;
  pair_op_->stage = OpStage::kChannel;
  const ProfileTarget profile = pair_op_->profile;
  l2cap_.connect_channel(
      acl->handle, static_cast<std::uint16_t>(profile),
      [this, peer, profile](std::optional<L2capChannel> channel) {
        if (!channel) {
          if (op_awaits(profile, peer)) complete_op(kProfileRefused, std::nullopt);
          return;
        }
        // What each profile sends once its channel opens. The request goes
        // out even if the op failed meanwhile; its answer then finds no op.
        switch (profile) {
          case ProfileTarget::kPan:
            pan_.setup(l2cap_, *channel);
            break;
          case ProfileTarget::kPbap:
            pbap_.pull(l2cap_, *channel);
            break;
          case ProfileTarget::kMap:
            if (op_awaits(profile, peer)) map_read_ = MapReadState{*channel, {}, 0, {}};
            map_.request_list(l2cap_, *channel);
            break;
          case ProfileTarget::kHfp:
            // HFP sends nothing: the open channel is the result.
            hfp_channels_[peer] = *channel;
            if (op_awaits(profile, peer)) complete_op(hci::Status::kSuccess, std::nullopt);
            break;
          case ProfileTarget::kNone:
            break;
        }
      });
}

bool HostStack::op_awaits(ProfileTarget profile, const BdAddr& peer) const {
  return pair_op_ && pair_op_->profile == profile && pair_op_->peer == peer;
}

void HostStack::answer_op(ProfileTarget profile, const L2capChannel& channel, hci::Status status,
                          OpResult result) {
  const Acl* acl = acl_by_handle(channel.acl_handle);
  if (acl != nullptr && op_awaits(profile, acl->peer)) complete_op(status, std::move(result));
}

void HostStack::on_map_reply(MapProfile::Reply reply) {
  // A read lives only while its op holds the slot, but a loaded snapshot
  // can carry one without an op: check both.
  if (!map_read_ || !pair_op_) return;
  MapReadState& read = *map_read_;
  const bool list_outstanding = read.handles.empty() && read.next_index == 0;
  if (auto* handles = std::get_if<std::vector<std::uint16_t>>(&reply)) {
    if (!list_outstanding) return;
    read.handles = std::move(*handles);
  } else if (list_outstanding) {
    return;
  } else if (auto& body = std::get<std::optional<std::string>>(reply)) {
    read.bodies.push_back(std::move(*body));
  }
  if (read.next_index < read.handles.size()) {
    map_.request_message(l2cap_, read.channel, read.handles[read.next_index++]);
    return;
  }
  complete_op(hci::Status::kSuccess, std::move(read.bodies));  // done: deliver the loot
}

void HostStack::send_echo(const BdAddr& peer, std::function<void()> on_response) {
  Acl* acl = acl_by_peer(peer);
  if (acl == nullptr) return;
  const Bytes ping = {'p', 'i', 'n', 'g'};
  l2cap_.echo(acl->handle, ping, std::move(on_response));
}

void HostStack::disconnect(const BdAddr& peer, hci::Status reason) {
  Acl* acl = acl_by_peer(peer);
  if (acl == nullptr) return;
  hci::DisconnectCmd cmd;
  cmd.handle = acl->handle;
  cmd.reason = reason;
  send_command(hci::encode(cmd));
}

bool HostStack::has_acl(const BdAddr& peer) const {
  for (const auto& [handle, acl] : acls_)
    if (acl.peer == peer) return true;
  return false;
}

std::vector<HostStack::AclInfo> HostStack::acls() const {
  std::vector<AclInfo> out;
  for (const auto& [handle, acl] : acls_)
    out.push_back(AclInfo{acl.handle, acl.peer, acl.initiator, acl.authenticated, acl.encrypted,
                          acl.degraded});
  return out;
}

HostStack::Acl* HostStack::acl_by_peer(const BdAddr& peer) {
  for (auto& [handle, acl] : acls_)
    if (acl.peer == peer) return &acl;
  return nullptr;
}

HostStack::Acl* HostStack::acl_by_handle(hci::ConnectionHandle handle) {
  auto it = acls_.find(handle);
  return it == acls_.end() ? nullptr : &it->second;
}

void HostStack::touch(Acl& acl) {
  acl.last_activity = scheduler_.now();
  arm_idle_timer(acl);
}

void HostStack::arm_idle_timer(Acl& acl) {
  acl.idle_timer.cancel();
  const hci::ConnectionHandle handle = acl.handle;
  SimTime idle_window = config_.acl_idle_timeout;
  // The idle bookkeeping mistimes the window: a link in active use is
  // checked (and possibly dropped) almost immediately.
  if (BLAP_FAILPOINT("host.acl.idle_early")) idle_window = 1000;
  acl.idle_timer = scheduler_.schedule_in(idle_window, [this, handle] {
    Acl* live = acl_by_handle(handle);
    if (live == nullptr) return;
    const bool busy = l2cap_.channel_count(handle) > 0 ||
                      (pair_op_ && pair_op_->peer == live->peer);
    if (busy) {
      arm_idle_timer(*live);
      return;
    }
    BLAP_DEBUG("host", "%s: dropping idle ACL to %s", config_.device_name.c_str(),
               live->peer.to_string().c_str());
    hci::DisconnectCmd cmd;
    cmd.handle = handle;
    cmd.reason = hci::Status::kRemoteUserTerminatedConnection;
    send_command(hci::encode(cmd));
  });
}

// ---------------------------------------------------------------------------
// Fault recovery
// ---------------------------------------------------------------------------

void HostStack::adopt_pair_op(PairOp op) {
  pair_op_ = std::move(op);
  arm_pair_watchdog();
}

void HostStack::arm_pair_watchdog() {
  if (!config_.fault_recovery || !pair_op_) return;
  pair_op_->watchdog.cancel();
  const BdAddr peer = pair_op_->peer;
  SimTime watchdog_window = config_.pair_op_watchdog;
  // The watchdog fires while the pairing is still making healthy progress:
  // the op fails with a timeout and (with recovery on) retries from clean.
  if (BLAP_FAILPOINT("host.pair.watchdog_early")) watchdog_window = 1000;
  pair_op_->watchdog = scheduler_.schedule_in(watchdog_window, [this, peer] {
    // The op may have completed (or been replaced) since the timer was set.
    if (!pair_op_ || !(pair_op_->peer == peer)) return;
    if (obs_ != nullptr) {
      obs_->count("host.watchdogs_fired");
      if (obs_->tracing())
        obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHost, "pair_watchdog",
                      strfmt("operation to %s hung, failing with Connection Timeout",
                             peer.to_string().c_str()));
    }
    BLAP_WARN("host", "%s: pair operation to %s hung for %llu us — watchdog teardown",
              config_.device_name.c_str(), peer.to_string().c_str(),
              static_cast<unsigned long long>(config_.pair_op_watchdog));
    mark_degraded(peer, "pair operation hung");
    finish_pair_op(peer, hci::Status::kConnectionTimeout);
    // Drop the wedged ACL so a retry (scheduled by finish_pair_op) starts
    // from a clean page instead of reusing a dead link.
    if (acl_by_peer(peer) != nullptr) disconnect(peer);
  });
}

void HostStack::mark_degraded(const BdAddr& peer, const char* why) {
  Acl* acl = acl_by_peer(peer);
  if (acl == nullptr || acl->degraded) return;
  acl->degraded = true;
  if (obs_ != nullptr) {
    obs_->count("host.acls_degraded");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHost, "acl_degraded",
                    strfmt("%s: %s", peer.to_string().c_str(), why));
  }
  BLAP_INFO("host", "%s: ACL to %s degraded (%s)", config_.device_name.c_str(),
            peer.to_string().c_str(), why);
}

void HostStack::retry_pair_op(PairOp op) {
  // The queued retry is abandoned (the stack was tearing the profile down
  // while the backoff ran), or another operation claimed the slot during
  // the backoff: either way the original operation fails with a timeout
  // instead of queueing behind it. The failpoint is consulted first.
  if (BLAP_FAILPOINT("host.pair.retry_abandoned") || pair_op_) {
    deliver(std::move(op), hci::Status::kConnectionTimeout, std::nullopt);
    return;
  }
  const BdAddr peer = op.peer;
  op.stage = OpStage::kConnecting;
  adopt_pair_op(std::move(op));
  BLAP_INFO("host", "%s: retrying pair operation to %s", config_.device_name.c_str(),
            peer.to_string().c_str());
  secure_link(peer);
}

// ---------------------------------------------------------------------------
// HCI receive path (btu_hcif)
// ---------------------------------------------------------------------------

void HostStack::on_packet(const hci::HciPacket& packet) {
  if (ploc_active_) {
    ploc_queue_.push_back(packet);
    return;
  }
  // PLOC hook (paper Fig. 13): stall processing when a Connection_Complete
  // arrives, queueing it and everything after it for ploc_delay.
  if (hooks_.ploc_delay > 0 && packet.type == hci::PacketType::kEvent &&
      packet.event_code() == hci::ev::kConnectionComplete) {
    BLAP_INFO("host", "%s: entering PLOC for %llu us", config_.device_name.c_str(),
              static_cast<unsigned long long>(hooks_.ploc_delay));
    ploc_active_ = true;
    if (obs_ != nullptr) {
      obs_->count("host.ploc_entries");
      if (obs_->tracing())
        obs_ploc_span_ = obs_->begin_span(scheduler_.now(), obs_tid_, obs::Layer::kHost, "ploc",
                                          "Fig. 13 hook: HCI processing stalled");
    }
    ploc_queue_.push_back(packet);
    scheduler_.schedule_in(hooks_.ploc_delay, [this] {
      ploc_active_ = false;
      BLAP_INFO("host", "%s: leaving PLOC (%zu queued events)", config_.device_name.c_str(),
                ploc_queue_.size());
      if (obs_ != nullptr && obs_ploc_span_ != 0) {
        obs_->end_span(scheduler_.now(), obs_ploc_span_,
                       strfmt("%zu queued packets replayed", ploc_queue_.size()));
        obs_ploc_span_ = 0;
      }
      while (!ploc_queue_.empty() && !ploc_active_) {
        const hci::HciPacket queued = ploc_queue_.front();
        ploc_queue_.pop_front();
        process_packet(queued);
      }
    });
    return;
  }
  process_packet(packet);
}

void HostStack::process_packet(const hci::HciPacket& packet) {
  if (packet.type == hci::PacketType::kAclData) {
    auto handle = packet.acl_handle();
    auto data = packet.acl_data();
    if (!handle || !data) return;
    Acl* acl = acl_by_handle(*handle);
    if (acl != nullptr) touch(*acl);
    l2cap_.on_acl_data(*handle, *data);
    return;
  }
  if (packet.type != hci::PacketType::kEvent) return;
  auto code = packet.event_code();
  auto params = packet.event_params();
  if (!code || !params) return;
  dispatch_event(*code, *params);
}

void HostStack::dispatch_event(std::uint8_t code, BytesView params) {
  if (obs_ != nullptr) obs_->count("host.events_dispatched");
  switch (code) {
    case hci::ev::kConnectionRequest:
      if (auto evt = pdu::decode<hci::ConnectionRequestEvt>(params)) on_connection_request(*evt);
      break;
    case hci::ev::kConnectionComplete:
      if (auto evt = pdu::decode<hci::ConnectionCompleteEvt>(params)) on_connection_complete(*evt);
      break;
    case hci::ev::kDisconnectionComplete:
      if (auto evt = pdu::decode<hci::DisconnectionCompleteEvt>(params))
        on_disconnection_complete(*evt);
      break;
    case hci::ev::kLinkKeyRequest:
      if (auto evt = pdu::decode<hci::LinkKeyRequestEvt>(params)) on_link_key_request(*evt);
      break;
    case hci::ev::kPinCodeRequest:
      if (auto evt = pdu::decode<hci::PinCodeRequestEvt>(params)) on_pin_code_request(*evt);
      break;
    case hci::ev::kLinkKeyNotification:
      if (auto evt = pdu::decode<hci::LinkKeyNotificationEvt>(params))
        on_link_key_notification(*evt);
      break;
    case hci::ev::kIoCapabilityRequest:
      if (auto evt = pdu::decode<hci::IoCapabilityRequestEvt>(params))
        on_io_capability_request(*evt);
      break;
    case hci::ev::kIoCapabilityResponse:
      if (auto evt = pdu::decode<hci::IoCapabilityResponseEvt>(params))
        on_io_capability_response(*evt);
      break;
    case hci::ev::kUserConfirmationRequest:
      if (auto evt = pdu::decode<hci::UserConfirmationRequestEvt>(params))
        on_user_confirmation_request(*evt);
      break;
    case hci::ev::kSimplePairingComplete:
      if (auto evt = pdu::decode<hci::SimplePairingCompleteEvt>(params))
        on_simple_pairing_complete(*evt);
      break;
    case hci::ev::kAuthenticationComplete:
      if (auto evt = pdu::decode<hci::AuthenticationCompleteEvt>(params))
        on_authentication_complete(*evt);
      break;
    case hci::ev::kEncryptionChange:
      if (auto evt = pdu::decode<hci::EncryptionChangeEvt>(params)) on_encryption_change(*evt);
      break;
    case hci::ev::kInquiryResult:
      if (auto evt = pdu::decode<hci::InquiryResultEvt>(params)) on_inquiry_result(*evt);
      break;
    case hci::ev::kExtendedInquiryResult:
      if (auto evt = pdu::decode<hci::ExtendedInquiryResultEvt>(params))
        on_extended_inquiry_result(*evt);
      break;
    case hci::ev::kInquiryComplete:
      on_inquiry_complete();
      break;
    case hci::ev::kRemoteNameRequestComplete:
      if (auto evt = pdu::decode<hci::RemoteNameRequestCompleteEvt>(params))
        on_remote_name_complete(*evt);
      break;
    case hci::ev::kCommandComplete:
      if (auto evt = pdu::decode<hci::CommandCompleteEvt>(params)) on_command_complete(*evt);
      break;
    default:
      break;
  }
}

void HostStack::on_command_complete(const hci::CommandCompleteEvt& evt) {
  if (evt.command_opcode == hci::op::kReadBdAddr && evt.return_parameters.size() >= 7) {
    ByteReader r(evt.return_parameters);
    (void)r.u8();  // status
    if (auto addr = BdAddr::from_wire(r)) own_address_ = *addr;
  }
}

void HostStack::on_connection_request(const hci::ConnectionRequestEvt& evt) {
  if (hooks_.ignore_connection_request) {
    // Wedged host: neither accept nor reject. The controller's
    // connection-accept timer owns the half-open link from here.
    if (obs_ != nullptr) obs_->count("host.connection_requests_ignored");
    BLAP_INFO("host", "%s: IGNORING HCI_Connection_Request from %s (fault hook)",
              config_.device_name.c_str(), evt.bdaddr.to_string().c_str());
    return;
  }
  if (!config_.auto_accept_connections) {
    hci::RejectConnectionRequestCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(hci::encode(cmd));
    return;
  }
  // Policy glitch: the host rejects a connection it would normally accept;
  // the initiator sees its Create_Connection fail and may retry.
  if (BLAP_FAILPOINT("host.connect.reject")) {
    hci::RejectConnectionRequestCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(hci::encode(cmd));
    return;
  }
  hci::AcceptConnectionRequestCmd cmd;
  cmd.bdaddr = evt.bdaddr;
  pending_accepts_.insert(evt.bdaddr);
  send_command(hci::encode(cmd));
}

void HostStack::on_connection_complete(const hci::ConnectionCompleteEvt& evt) {
  const bool was_pending_accept = pending_accepts_.erase(evt.bdaddr) > 0;
  if (evt.status != hci::Status::kSuccess) {
    if (pair_op_ && pair_op_->peer == evt.bdaddr && pair_op_->stage == OpStage::kConnecting)
      finish_pair_op(evt.bdaddr, evt.status);
    if (connect_op_ && connect_op_->first == evt.bdaddr) {
      auto callback = std::move(connect_op_->second);
      connect_op_.reset();
      if (callback) callback(evt.status);
    }
    return;
  }
  // Unsolicited success: this host never sent Create_Connection for the peer
  // and never accepted a Connection_Request from it. Fabricating an ACL here
  // would desynchronize the host's link table from the controller's (fuzz
  // finding: link-table-agreement). Real stacks drop the event on the floor.
  const bool initiated = (pair_op_ && pair_op_->peer == evt.bdaddr) ||
                         (connect_op_ && connect_op_->first == evt.bdaddr);
  if (!initiated && !was_pending_accept) {
    if (obs_ != nullptr) obs_->count("host.unsolicited_connection_complete");
    BLAP_INFO("host", "%s: ignoring unsolicited Connection_Complete for %s (handle %u)",
              config_.device_name.c_str(), evt.bdaddr.to_string().c_str(),
              static_cast<unsigned>(evt.handle));
    return;
  }
  // A retransmitted/duplicated Connection_Complete for a handle that is
  // already up must not clobber the live ACL's auth/encryption state.
  if (acl_by_handle(evt.handle) != nullptr) return;
  Acl acl;
  acl.handle = evt.handle;
  acl.peer = evt.bdaddr;
  acl.initiator = (pair_op_ && pair_op_->peer == evt.bdaddr) ||
                  (connect_op_ && connect_op_->first == evt.bdaddr);
  acls_[evt.handle] = std::move(acl);
  touch(acls_[evt.handle]);
  if (pair_op_ && pair_op_->peer == evt.bdaddr && pair_op_->stage == OpStage::kConnecting)
    continue_pair_after_connect(acls_[evt.handle]);
  if (connect_op_ && connect_op_->first == evt.bdaddr) {
    auto callback = std::move(connect_op_->second);
    connect_op_.reset();
    if (callback) callback(hci::Status::kSuccess);
  }
}

void HostStack::on_disconnection_complete(const hci::DisconnectionCompleteEvt& evt) {
  Acl* acl = acl_by_handle(evt.handle);
  if (acl == nullptr) return;
  const BdAddr peer = acl->peer;
  acl->idle_timer.cancel();
  l2cap_.on_disconnected(evt.handle);
  hfp_channels_.erase(peer);
  acls_.erase(evt.handle);
  if (pair_op_ && pair_op_->peer == peer) {
    // An in-flight pairing/auth died with the link. The reason is whatever
    // the controller reported (timeout, remote termination...) — real stacks
    // do NOT purge the bond here.
    finish_pair_op(peer, evt.reason == hci::Status::kSuccess
                             ? hci::Status::kConnectionTimeout
                             : evt.reason);
  }
}

void HostStack::on_link_key_request(const hci::LinkKeyRequestEvt& evt) {
  if (hooks_.ignore_link_key_request) {
    // Paper Fig. 9: btu_hcif_link_key_request_evt() call skipped. The
    // controller never gets an answer; the peer's LMP challenge times out.
    ++ignored_link_key_requests_;
    if (obs_ != nullptr) {
      obs_->count("host.link_key_requests_ignored");
      if (obs_->tracing())
        obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kSecurity,
                      "link_key_request_stalled",
                      strfmt("Fig. 9 hook: no reply for %s, peer LMP challenge will time out",
                             evt.bdaddr.to_string().c_str()));
    }
    BLAP_INFO("host", "%s: IGNORING HCI_Link_Key_Request for %s (attack hook)",
              config_.device_name.c_str(), evt.bdaddr.to_string().c_str());
    return;
  }
  if (auto key = security_.link_key_for(evt.bdaddr)) {
    if (obs_ != nullptr) obs_->count("host.link_key_replies");
    hci::LinkKeyRequestReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    cmd.link_key = *key;
    send_command(hci::encode(cmd));  // the plaintext key crosses the HCI here
  } else {
    if (obs_ != nullptr) obs_->count("host.link_key_negative_replies");
    hci::LinkKeyRequestNegativeReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(hci::encode(cmd));
  }
}

void HostStack::on_pin_code_request(const hci::PinCodeRequestEvt& evt) {
  std::string pin = config_.pin_code;
  if (auto user_pin = user_agent_->on_pin_request(evt.bdaddr)) pin = *user_pin;
  if (pin.empty() || pin.size() > 16) {
    hci::PinCodeRequestNegativeReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(hci::encode(cmd));
    return;
  }
  hci::PinCodeRequestReplyCmd cmd;
  cmd.bdaddr = evt.bdaddr;
  cmd.pin = pin;
  send_command(hci::encode(cmd));
}

void HostStack::on_link_key_notification(const hci::LinkKeyNotificationEvt& evt) {
  if (obs_ != nullptr) {
    obs_->count("security.bonds_stored");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kSecurity, "bond_stored",
                    strfmt("key for %s (type %u)", evt.bdaddr.to_string().c_str(),
                           static_cast<unsigned>(evt.key_type)));
  }
  BondRecord record;
  record.address = evt.bdaddr;
  record.name = "";  // filled by later name discovery in real stacks
  record.link_key = evt.link_key;
  record.key_type = evt.key_type;
  record.services = {Uuid::from_uuid16(uuid16::kPanu), Uuid::from_uuid16(uuid16::kNap)};
  security_.store_bond(std::move(record));
}

void HostStack::on_io_capability_request(const hci::IoCapabilityRequestEvt& evt) {
  hci::IoCapabilityRequestReplyCmd cmd;
  cmd.bdaddr = evt.bdaddr;
  cmd.io_capability = config_.io_capability;
  cmd.authentication_requirements = config_.auth_requirements;
  send_command(hci::encode(cmd));
}

void HostStack::on_io_capability_response(const hci::IoCapabilityResponseEvt& evt) {
  Acl* acl = acl_by_peer(evt.bdaddr);
  if (acl == nullptr) return;
  acl->peer_io = evt.io_capability;
  // §VII-B detector: we initiated the pairing, the peer initiated the
  // *connection*, and that connection initiator is NoInputNoOutput — the
  // page blocking + SSP downgrade signature. Drop the pairing.
  // blap-lint: spec-ok — this IS the §VII-B detector; it inspects the raw IO
  // capability by design rather than routing through the association model.
  if (config_.detect_page_blocking && acl->is_pairing_initiator && !acl->initiator &&
      evt.io_capability == hci::IoCapability::kNoInputNoOutput) {
    ++detected_page_blocking_count_;
    BLAP_WARN("host", "%s: page blocking signature on %s — aborting pairing",
              config_.device_name.c_str(), evt.bdaddr.to_string().c_str());
    const BdAddr peer = acl->peer;
    disconnect(peer, hci::Status::kPairingNotAllowed);
    finish_pair_op(peer, hci::Status::kPairingNotAllowed);
  }
}

void HostStack::on_user_confirmation_request(const hci::UserConfirmationRequestEvt& evt) {
  Acl* acl = acl_by_peer(evt.bdaddr);
  const bool is_initiator = acl != nullptr && acl->is_pairing_initiator;
  const hci::IoCapability peer_io =
      acl != nullptr ? acl->peer_io : hci::IoCapability::kDisplayYesNo;

  const ConfirmationBehavior behavior =
      confirmation_behavior(config_.version, config_.io_capability, peer_io, is_initiator);

  PopupRecord record;
  record.peer = evt.bdaddr;
  record.at = scheduler_.now();

  bool accept = true;
  if (behavior.automatic_confirmation || !behavior.shows_popup) {
    record.shown_to_user = false;
    accept = true;
  } else {
    record.shown_to_user = true;
    if (behavior.shows_numeric_value) record.numeric_value = evt.numeric_value;
    accept = user_agent_->on_pairing_popup(evt.bdaddr, record.numeric_value);
  }
  record.accepted = accept;
  popups_.push_back(record);

  if (accept) {
    hci::UserConfirmationRequestReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(hci::encode(cmd));
  } else {
    hci::UserConfirmationRequestNegativeReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(hci::encode(cmd));
  }
}

void HostStack::on_simple_pairing_complete(const hci::SimplePairingCompleteEvt& evt) {
  pairing_events_.emplace_back(evt.bdaddr, evt.status == hci::Status::kSuccess);
}

void HostStack::on_authentication_complete(const hci::AuthenticationCompleteEvt& evt) {
  Acl* acl = acl_by_handle(evt.handle);
  const BdAddr peer = acl != nullptr ? acl->peer : BdAddr{};
  if (evt.status == hci::Status::kSuccess) {
    if (acl != nullptr) {
      acl->authenticated = true;
      touch(*acl);
    }
    if (pair_op_ && pair_op_->peer == peer && pair_op_->stage == OpStage::kAuthenticating) {
      pair_op_->stage = OpStage::kEncrypting;
      send_command(hci::encode(hci::SetConnectionEncryptionCmd{evt.handle, 0x01}));
    }
    return;
  }
  // Bond-purge policy: only cryptographic failures invalidate the key.
  if (obs_ != nullptr) {
    obs_->count("security.auth_failures");
    if (obs_->tracing())
      obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kSecurity, "auth_failed",
                    strfmt("%s: %s", peer.to_string().c_str(), to_string(evt.status)));
  }
  if (acl != nullptr) security_.on_authentication_result(peer, evt.status);
  if (pair_op_ && acl != nullptr && pair_op_->peer == peer) finish_pair_op(peer, evt.status);
}

void HostStack::on_encryption_change(const hci::EncryptionChangeEvt& evt) {
  Acl* acl = acl_by_handle(evt.handle);
  if (acl == nullptr) return;
  if (evt.status == hci::Status::kSuccess && evt.encryption_enabled) {
    acl->encrypted = true;
    acl->authenticated = true;  // encryption start implies authentication
    touch(*acl);
  }
  if (pair_op_ && pair_op_->peer == acl->peer && pair_op_->stage == OpStage::kEncrypting) {
    if (pair_op_->profile != ProfileTarget::kNone) {
      start_profile_channel(acl->peer);
    } else {
      finish_pair_op(acl->peer, evt.status);
    }
  }
}

void HostStack::on_inquiry_result(const hci::InquiryResultEvt& evt) {
  if (!discovery_callback_) return;
  for (const auto& existing : discovery_results_)
    if (existing.address == evt.bdaddr) return;
  discovery_results_.push_back(Discovered{evt.bdaddr, evt.class_of_device, "", 0});
}

void HostStack::on_extended_inquiry_result(const hci::ExtendedInquiryResultEvt& evt) {
  if (!discovery_callback_) return;
  for (auto& existing : discovery_results_) {
    if (existing.address == evt.bdaddr) {
      if (existing.name.empty()) existing.name = evt.name;  // upgrade in place
      return;
    }
  }
  discovery_results_.push_back(Discovered{evt.bdaddr, evt.class_of_device, evt.name, evt.rssi});
}

void HostStack::on_inquiry_complete() {
  if (!discovery_callback_) return;
  auto callback = std::move(*discovery_callback_);
  discovery_callback_.reset();
  callback(discovery_results_);
}

void HostStack::finish_pair_op(const BdAddr& peer, hci::Status status) {
  if (!pair_op_ || !(pair_op_->peer == peer)) return;
  PairOp op = release_op();
  if (status == hci::Status::kSuccess) {
    security_.note_pairing_success(peer);
  } else if (config_.fault_recovery) {
    if (auto backoff = security_.note_pairing_failure(peer, status)) {
      // Transient channel failure with retry budget left: re-run the whole
      // operation after an exponential backoff instead of surfacing the
      // error. The caller's callback fires once, with the final outcome.
      if (obs_ != nullptr) {
        obs_->count("host.pairing_retries");
        if (obs_->tracing())
          obs_->instant(scheduler_.now(), obs_tid_, obs::Layer::kHost, "pair_retry",
                        strfmt("%s after %s, backoff %llu us", peer.to_string().c_str(),
                               to_string(status), static_cast<unsigned long long>(*backoff)));
      }
      mark_degraded(peer, to_string(status));
      // The op travels by value; retry_pair_op re-validates the pair_op_
      // slot when the backoff fires.
      scheduler_.schedule_in(*backoff, [this, op = std::move(op)]() mutable {
        retry_pair_op(std::move(op));
      });
      return;
    }
  }
  deliver(std::move(op), status, std::nullopt);
}

// A profile channel's answer ends the op as it stands: unlike
// finish_pair_op there is no retry and no retry-budget bookkeeping.
void HostStack::complete_op(hci::Status status, OpResult result) {
  deliver(release_op(), status, std::move(result));
}

HostStack::PairOp HostStack::release_op() {
  PairOp op = std::move(*pair_op_);
  pair_op_.reset();
  map_read_.reset();  // a MAP read lives only as long as its op
  // A watchdog left armed would fail whichever later op to this peer is in
  // flight when it fires.
  op.watchdog.cancel();
  return op;
}

void HostStack::deliver(PairOp op, hci::Status status, OpResult result) {
  if (obs_ != nullptr && op.obs_span != 0)
    obs_->end_span(scheduler_.now(), op.obs_span, to_string(status));
  op.done(status, std::move(result));
}

bool HostStack::quiescent() const {
  return !pair_op_.has_value() && !connect_op_.has_value() &&
         !discovery_callback_.has_value() && !name_request_.has_value() &&
         !map_read_.has_value() && !ploc_active_ && ploc_queue_.empty() &&
         l2cap_.quiescent() && sdp_client_.quiescent();
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void HostStack::persist(Io& io, Self& self) {
  // Config (trials mutate io_capability, hci_dump_available, simple_pairing,
  // fault_recovery, ... — all of it is restored).
  auto& config = self.config_;
  io.field(config.device_name);
  io.field(config.version);
  io.field(config.io_capability);
  io.field(config.auth_requirements);
  io.field(config.auto_accept_connections);
  io.field(config.acl_idle_timeout);
  io.field(config.hci_dump_available);
  io.field(config.detect_page_blocking);
  // blap-taint: declassified — snapshot key section (legacy PIN)
  io.field(config.pin_code);
  io.field(config.simple_pairing);
  io.field(config.fault_recovery);
  io.field(config.pair_op_watchdog);

  io.field(self.own_address_);
  io.field(self.hooks_.ignore_link_key_request);
  io.field(self.hooks_.ploc_delay);
  io.field(self.hooks_.ignore_connection_request);

  io.field(self.security_);
  io.field(self.l2cap_);
  io.field(self.sdp_server_);
  io.field(self.pan_);
  io.field(self.pbap_);
  io.field(self.hfp_);
  io.field(self.map_);
  io.map(self.hfp_channels_, state::Duplicates::kFirstWins, [&io](auto& peer, auto& channel) {
    io.field(peer);
    io.field(channel);
  });
  io.opt(self.map_read_, [&io](auto& read) {
    io.field(read.channel);
    io.seq(read.handles);
    io.field(read.next_index);
    io.seq(read.bodies);
  });

  bool default_agent = self.user_agent_ == &self.default_user_;
  io.field(default_agent);
  if constexpr (Io::kLoading)
    if (io.mode() == state::RestoreMode::kRewind && default_agent)
      self.user_agent_ = &self.default_user_;

  const auto acl_fields = [&io](auto& acl) {
    io.field(acl.handle);
    io.field(acl.peer);
    io.field(acl.initiator);
    io.field(acl.authenticated);
    io.field(acl.encrypted);
    io.field(acl.peer_io);
    io.field(acl.is_pairing_initiator);
    io.field(acl.degraded);
    io.field(acl.last_activity);
  };
  if constexpr (Io::kLoading) {
    // ACLs load into a new map, committed only if the reader is still ok:
    // in kInPlace mode the armed idle timers keep their handles, read from
    // the old map; in kRewind mode every handle is stale by construction
    // (the scheduler was rewound), so a default EventHandle is correct.
    std::map<hci::ConnectionHandle, Acl> restored;
    io.map(restored, state::Duplicates::kFirstWins, [&](auto& handle, Acl& acl) {
      acl_fields(acl);
      handle = acl.handle;
      const auto live = self.acls_.find(handle);
      if (io.mode() == state::RestoreMode::kInPlace && live != self.acls_.end())
        acl.idle_timer = live->second.idle_timer;
    });
    if (io.ok()) self.acls_ = std::move(restored);
  } else {
    io.map(self.acls_, state::Duplicates::kFirstWins,
           [&](auto&, const Acl& acl) { acl_fields(acl); });
  }

  io.field(self.detected_page_blocking_count_);
  io.seq(self.discovery_results_, [&io](auto& found) {
    io.field(found.address);
    io.field(found.class_of_device);
    io.field(found.name);
    io.field(found.rssi);
  });
  io.field(self.ploc_active_);
  io.seq(self.ploc_queue_, [&io](auto& packet) {
    io.field(packet.type);
    io.field(packet.payload);
  });
  io.field(self.snoop_enabled_);
  io.field(self.snoop_);
  io.field(self.ignored_link_key_requests_);
  io.seq(self.popups_, [&io](auto& popup) {
    io.field(popup.peer);
    io.field(popup.shown_to_user);
    io.opt(popup.numeric_value);
    io.field(popup.accepted);
    io.field(popup.at);
  });
  io.seq(self.pairing_events_, [&io](auto& event) {
    io.field(event.first);
    io.field(event.second);
  });

  // Callback-holding residue from the aborted trial: a strict capture point
  // had none of it, so dropping it restores the captured state.
  if constexpr (Io::kLoading) {
    if (io.mode() != state::RestoreMode::kRewind) return;
    self.pair_op_.reset();
    self.connect_op_.reset();
    self.pending_accepts_.clear();
    self.discovery_callback_.reset();
    self.name_request_.reset();
    self.sdp_client_.reset_pending();
    self.obs_ploc_span_ = 0;
  }
}

template void HostStack::persist(state::StateWriter&, const HostStack&);
template void HostStack::persist(state::StateReader&, HostStack&);

}  // namespace blap::host
