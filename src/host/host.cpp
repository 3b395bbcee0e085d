#include "host/host.hpp"

#include "chaos/failpoint.hpp"

namespace blap::host {

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

  // PAN/BNEP: setup requests -> server, setup responses -> client.
  L2cap::Service pan_service;
  pan_service.requires_authentication = true;
  pan_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (!pan_.handle_server(l2cap_, channel, data)) pan_.on_client_data(data);
  };
  l2cap_.register_service(psm::kBnep, std::move(pan_service));

  // PBAP: phone book pulls, authenticated only — the paper's §III target
  // data. A default phone book marks the device's "sensitive" content.
  L2cap::Service pbap_service;
  pbap_service.requires_authentication = true;
  pbap_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (!pbap_.handle_server(l2cap_, channel, data)) pbap_.on_client_data(data);
  };
  l2cap_.register_service(psm_ext::kPbap, std::move(pbap_service));
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
  l2cap_.register_service(psm_ext2::kHfp, std::move(hfp_service));

  // MAP: message store access, authenticated only.
  L2cap::Service map_service;
  map_service.requires_authentication = true;
  map_service.on_data = [this](const L2capChannel& channel, BytesView data) {
    if (!map_.handle_server(l2cap_, channel, data)) map_.on_client_data(data);
  };
  l2cap_.register_service(psm_ext3::kMap, std::move(map_service));
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
  send_command(hci::ResetCmd{}.encode());
  send_command(hci::ReadBdAddrCmd{}.encode());
  send_command(hci::WriteLocalNameCmd{config_.device_name}.encode());
  send_command(hci::WriteSimplePairingModeCmd{
      static_cast<std::uint8_t>(config_.simple_pairing ? 0x01 : 0x00)}.encode());
  send_command(hci::WriteScanEnableCmd{hci::ScanEnable::kInquiryAndPage}.encode());
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
  send_command(cmd.encode());
}

void HostStack::set_scan_mode(hci::ScanEnable mode) {
  send_command(hci::WriteScanEnableCmd{mode}.encode());
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
  send_command(cmd.encode());
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
  if (pair_op_) {
    if (callback) callback(hci::Status::kPairingNotAllowed);  // one op at a time
    return;
  }
  PairOp op;
  op.peer = peer;
  op.stage = OpStage::kConnecting;
  op.callback = std::move(callback);
  if (obs_ != nullptr) {
    obs_->count("host.pair_ops");
    if (obs_->tracing())
      op.obs_span = obs_->begin_span(scheduler_.now(), obs_tid_, obs::Layer::kHost, "pair_op",
                                     strfmt("target %s", peer.to_string().c_str()));
  }
  adopt_pair_op(std::move(op));

  // THE CRITICAL GAP BEHAVIOUR (paper §V-B): if an ACL to this BD_ADDR
  // already exists, skip connection establishment and send the pairing
  // request down the existing link — without verifying who created it.
  if (Acl* existing = acl_by_peer(peer)) {
    continue_pair_after_connect(*existing);
    return;
  }
  hci::CreateConnectionCmd cmd;
  cmd.bdaddr = peer;
  send_command(cmd.encode());
}

void HostStack::continue_pair_after_connect(Acl& acl) {
  if (!pair_op_ || !(pair_op_->peer == acl.peer)) return;
  pair_op_->stage = OpStage::kAuthenticating;
  acl.is_pairing_initiator = true;
  touch(acl);
  send_command(hci::AuthenticationRequestedCmd{acl.handle}.encode());
}

void HostStack::connect_only(const BdAddr& peer, StatusCallback callback) {
  if (acl_by_peer(peer) != nullptr) {
    if (callback) callback(hci::Status::kConnectionAlreadyExists);
    return;
  }
  connect_op_ = {peer, std::move(callback)};
  hci::CreateConnectionCmd cmd;
  cmd.bdaddr = peer;
  send_command(cmd.encode());
}

void HostStack::connect_pan(const BdAddr& peer, BoolCallback callback) {
  if (pair_op_) {
    if (callback) callback(false);
    return;
  }
  PairOp op;
  op.peer = peer;
  op.profile = ProfileTarget::kPan;
  op.pan_callback = std::move(callback);
  Acl* acl = acl_by_peer(peer);
  if (acl != nullptr && (acl->authenticated || acl->encrypted)) {
    op.stage = OpStage::kChannel;
    adopt_pair_op(std::move(op));
    start_profile_channel(peer);
    return;
  }
  // Authenticate first (the profile's GAP security requirement).
  op.stage = OpStage::kConnecting;
  adopt_pair_op(std::move(op));
  if (acl != nullptr) {
    continue_pair_after_connect(*acl);
  } else {
    hci::CreateConnectionCmd cmd;
    cmd.bdaddr = peer;
    send_command(cmd.encode());
  }
}

void HostStack::pull_phonebook(const BdAddr& peer, PbapProfile::PullCallback callback) {
  if (pair_op_) {
    if (callback) callback(std::nullopt);
    return;
  }
  PairOp op;
  op.peer = peer;
  op.profile = ProfileTarget::kPbap;
  op.pbap_callback = std::move(callback);
  Acl* acl = acl_by_peer(peer);
  if (acl != nullptr && (acl->authenticated || acl->encrypted)) {
    op.stage = OpStage::kChannel;
    adopt_pair_op(std::move(op));
    start_profile_channel(peer);
    return;
  }
  op.stage = OpStage::kConnecting;
  adopt_pair_op(std::move(op));
  if (acl != nullptr) {
    continue_pair_after_connect(*acl);
  } else {
    hci::CreateConnectionCmd cmd;
    cmd.bdaddr = peer;
    send_command(cmd.encode());
  }
}

void HostStack::read_messages(
    const BdAddr& peer, std::function<void(std::optional<std::vector<std::string>>)> callback) {
  if (pair_op_) {
    if (callback) callback(std::nullopt);
    return;
  }
  PairOp op;
  op.peer = peer;
  op.profile = ProfileTarget::kMap;
  op.map_callback = std::move(callback);
  Acl* acl = acl_by_peer(peer);
  if (acl != nullptr && (acl->authenticated || acl->encrypted)) {
    op.stage = OpStage::kChannel;
    adopt_pair_op(std::move(op));
    start_profile_channel(peer);
    return;
  }
  op.stage = OpStage::kConnecting;
  adopt_pair_op(std::move(op));
  if (acl != nullptr) {
    continue_pair_after_connect(*acl);
  } else {
    hci::CreateConnectionCmd cmd;
    cmd.bdaddr = peer;
    send_command(cmd.encode());
  }
}

void HostStack::continue_map_read(const BdAddr& peer) {
  if (!map_read_ || !pair_op_ || pair_op_->profile != ProfileTarget::kMap) return;
  if (map_read_->next_index >= map_read_->handles.size()) {
    // Done: deliver the loot.
    auto callback = std::move(pair_op_->map_callback);
    auto bodies = std::move(map_read_->bodies);
    map_read_.reset();
    pair_op_.reset();
    if (callback) callback(std::move(bodies));
    return;
  }
  const std::uint16_t handle = map_read_->handles[map_read_->next_index++];
  map_.set_get_callback([this, peer](std::optional<std::string> body) {
    if (!map_read_) return;
    if (body) map_read_->bodies.push_back(std::move(*body));
    continue_map_read(peer);
  });
  map_.request_message(l2cap_, map_read_->channel, handle);
}

void HostStack::connect_hfp(const BdAddr& peer, BoolCallback callback) {
  if (pair_op_) {
    if (callback) callback(false);
    return;
  }
  PairOp op;
  op.peer = peer;
  op.profile = ProfileTarget::kHfp;
  op.hfp_callback = std::move(callback);
  Acl* acl = acl_by_peer(peer);
  if (acl != nullptr && (acl->authenticated || acl->encrypted)) {
    op.stage = OpStage::kChannel;
    adopt_pair_op(std::move(op));
    start_profile_channel(peer);
    return;
  }
  op.stage = OpStage::kConnecting;
  adopt_pair_op(std::move(op));
  if (acl != nullptr) {
    continue_pair_after_connect(*acl);
  } else {
    hci::CreateConnectionCmd cmd;
    cmd.bdaddr = peer;
    send_command(cmd.encode());
  }
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

  auto fail = [this, peer, profile] {
    if (!pair_op_ || !(pair_op_->peer == peer)) return;
    PairOp op = std::move(*pair_op_);
    pair_op_.reset();
    if (profile == ProfileTarget::kPan && op.pan_callback) op.pan_callback(false);
    if (profile == ProfileTarget::kPbap && op.pbap_callback) op.pbap_callback(std::nullopt);
    if (profile == ProfileTarget::kHfp && op.hfp_callback) op.hfp_callback(false);
    if (profile == ProfileTarget::kMap && op.map_callback) op.map_callback(std::nullopt);
  };

  if (profile == ProfileTarget::kPan) {
    pan_.set_client_callback([this, peer](bool connected) {
      if (pair_op_ && pair_op_->profile == ProfileTarget::kPan && pair_op_->peer == peer) {
        auto callback = std::move(pair_op_->pan_callback);
        pair_op_.reset();
        if (callback) callback(connected);
      }
    });
    l2cap_.connect_channel(acl->handle, psm::kBnep,
                           [this, fail](std::optional<L2capChannel> channel) {
                             if (!channel) {
                               fail();
                               return;
                             }
                             pan_.setup(l2cap_, *channel);
                           });
    return;
  }

  if (profile == ProfileTarget::kHfp) {
    l2cap_.connect_channel(acl->handle, psm_ext2::kHfp,
                           [this, peer, fail](std::optional<L2capChannel> channel) {
                             if (!channel) {
                               fail();
                               return;
                             }
                             hfp_channels_[peer] = *channel;
                             if (pair_op_ && pair_op_->profile == ProfileTarget::kHfp &&
                                 pair_op_->peer == peer) {
                               auto callback = std::move(pair_op_->hfp_callback);
                               pair_op_.reset();
                               if (callback) callback(true);
                             }
                           });
    return;
  }

  if (profile == ProfileTarget::kMap) {
    l2cap_.connect_channel(
        acl->handle, psm_ext3::kMap, [this, peer, fail](std::optional<L2capChannel> channel) {
          if (!channel) {
            fail();
            return;
          }
          map_read_ = MapReadState{*channel, {}, 0, {}};
          map_.set_list_callback([this, peer](std::optional<std::vector<std::uint16_t>> handles) {
            if (!map_read_) return;
            if (!handles) {
              map_read_.reset();
              if (pair_op_ && pair_op_->profile == ProfileTarget::kMap) {
                auto callback = std::move(pair_op_->map_callback);
                pair_op_.reset();
                if (callback) callback(std::nullopt);
              }
              return;
            }
            map_read_->handles = std::move(*handles);
            continue_map_read(peer);
          });
          map_.request_list(l2cap_, *channel);
        });
    return;
  }

  // PBAP: pull the phone book once the channel opens.
  pbap_.set_client_callback(
      [this, peer](std::optional<std::vector<std::string>> entries) {
        if (pair_op_ && pair_op_->profile == ProfileTarget::kPbap && pair_op_->peer == peer) {
          auto callback = std::move(pair_op_->pbap_callback);
          pair_op_.reset();
          if (callback) callback(std::move(entries));
        }
      });
  l2cap_.connect_channel(acl->handle, psm_ext::kPbap,
                         [this, fail](std::optional<L2capChannel> channel) {
                           if (!channel) {
                             fail();
                             return;
                           }
                           pbap_.pull(l2cap_, *channel);
                         });
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
  send_command(cmd.encode());
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
    send_command(cmd.encode());
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
  // while the backoff ran): the original operation fails with a timeout —
  // exactly the slot-reclaimed path below, deliberately.
  if (BLAP_FAILPOINT("host.pair.retry_abandoned")) {
    dispatch_pair_result(std::move(op), hci::Status::kConnectionTimeout);
    return;
  }
  if (pair_op_) {
    // Another operation claimed the slot during the backoff; surface the
    // original failure instead of queueing behind it.
    dispatch_pair_result(std::move(op), hci::Status::kConnectionTimeout);
    return;
  }
  if (op.profile == ProfileTarget::kMap) map_read_.reset();  // stale read state
  const BdAddr peer = op.peer;
  op.stage = OpStage::kConnecting;
  adopt_pair_op(std::move(op));
  BLAP_INFO("host", "%s: retrying pair operation to %s", config_.device_name.c_str(),
            peer.to_string().c_str());
  if (Acl* acl = acl_by_peer(peer)) {
    continue_pair_after_connect(*acl);
  } else {
    hci::CreateConnectionCmd cmd;
    cmd.bdaddr = peer;
    send_command(cmd.encode());
  }
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
      if (auto evt = hci::ConnectionRequestEvt::decode(params)) on_connection_request(*evt);
      break;
    case hci::ev::kConnectionComplete:
      if (auto evt = hci::ConnectionCompleteEvt::decode(params)) on_connection_complete(*evt);
      break;
    case hci::ev::kDisconnectionComplete:
      if (auto evt = hci::DisconnectionCompleteEvt::decode(params))
        on_disconnection_complete(*evt);
      break;
    case hci::ev::kLinkKeyRequest:
      if (auto evt = hci::LinkKeyRequestEvt::decode(params)) on_link_key_request(*evt);
      break;
    case hci::ev::kPinCodeRequest:
      if (auto evt = hci::PinCodeRequestEvt::decode(params)) on_pin_code_request(*evt);
      break;
    case hci::ev::kLinkKeyNotification:
      if (auto evt = hci::LinkKeyNotificationEvt::decode(params)) on_link_key_notification(*evt);
      break;
    case hci::ev::kIoCapabilityRequest:
      if (auto evt = hci::IoCapabilityRequestEvt::decode(params)) on_io_capability_request(*evt);
      break;
    case hci::ev::kIoCapabilityResponse:
      if (auto evt = hci::IoCapabilityResponseEvt::decode(params))
        on_io_capability_response(*evt);
      break;
    case hci::ev::kUserConfirmationRequest:
      if (auto evt = hci::UserConfirmationRequestEvt::decode(params))
        on_user_confirmation_request(*evt);
      break;
    case hci::ev::kSimplePairingComplete:
      if (auto evt = hci::SimplePairingCompleteEvt::decode(params))
        on_simple_pairing_complete(*evt);
      break;
    case hci::ev::kAuthenticationComplete:
      if (auto evt = hci::AuthenticationCompleteEvt::decode(params))
        on_authentication_complete(*evt);
      break;
    case hci::ev::kEncryptionChange:
      if (auto evt = hci::EncryptionChangeEvt::decode(params)) on_encryption_change(*evt);
      break;
    case hci::ev::kInquiryResult:
      if (auto evt = hci::InquiryResultEvt::decode(params)) on_inquiry_result(*evt);
      break;
    case hci::ev::kExtendedInquiryResult:
      if (auto evt = hci::ExtendedInquiryResultEvt::decode(params))
        on_extended_inquiry_result(*evt);
      break;
    case hci::ev::kInquiryComplete:
      on_inquiry_complete();
      break;
    case hci::ev::kRemoteNameRequestComplete:
      if (auto evt = hci::RemoteNameRequestCompleteEvt::decode(params))
        on_remote_name_complete(*evt);
      break;
    case hci::ev::kCommandComplete:
      if (auto evt = hci::CommandCompleteEvt::decode(params)) on_command_complete(*evt);
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
    send_command(cmd.encode());
    return;
  }
  // Policy glitch: the host rejects a connection it would normally accept;
  // the initiator sees its Create_Connection fail and may retry.
  if (BLAP_FAILPOINT("host.connect.reject")) {
    hci::RejectConnectionRequestCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(cmd.encode());
    return;
  }
  hci::AcceptConnectionRequestCmd cmd;
  cmd.bdaddr = evt.bdaddr;
  pending_accepts_.insert(evt.bdaddr);
  send_command(cmd.encode());
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
    send_command(cmd.encode());  // the plaintext key crosses the HCI here
  } else {
    if (obs_ != nullptr) obs_->count("host.link_key_negative_replies");
    hci::LinkKeyRequestNegativeReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(cmd.encode());
  }
}

void HostStack::on_pin_code_request(const hci::PinCodeRequestEvt& evt) {
  std::string pin = config_.pin_code;
  if (auto user_pin = user_agent_->on_pin_request(evt.bdaddr)) pin = *user_pin;
  if (pin.empty() || pin.size() > 16) {
    hci::PinCodeRequestNegativeReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(cmd.encode());
    return;
  }
  hci::PinCodeRequestReplyCmd cmd;
  cmd.bdaddr = evt.bdaddr;
  cmd.pin = pin;
  send_command(cmd.encode());
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
  send_command(cmd.encode());
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
    send_command(cmd.encode());
  } else {
    hci::UserConfirmationRequestNegativeReplyCmd cmd;
    cmd.bdaddr = evt.bdaddr;
    send_command(cmd.encode());
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
      send_command(hci::SetConnectionEncryptionCmd{evt.handle, 0x01}.encode());
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
  PairOp op = std::move(*pair_op_);
  pair_op_.reset();
  op.watchdog.cancel();
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
  dispatch_pair_result(std::move(op), status);
}

void HostStack::dispatch_pair_result(PairOp op, hci::Status status) {
  if (obs_ != nullptr && op.obs_span != 0)
    obs_->end_span(scheduler_.now(), op.obs_span, to_string(status));
  switch (op.profile) {
    case ProfileTarget::kPan:
      if (op.pan_callback) op.pan_callback(status == hci::Status::kSuccess);
      break;
    case ProfileTarget::kPbap:
      if (op.pbap_callback) op.pbap_callback(std::nullopt);  // never reached the pull
      break;
    case ProfileTarget::kHfp:
      if (op.hfp_callback) op.hfp_callback(false);
      break;
    case ProfileTarget::kMap:
      map_read_.reset();
      if (op.map_callback) op.map_callback(std::nullopt);
      break;
    case ProfileTarget::kNone:
      if (op.callback) op.callback(status);
      break;
  }
}

bool HostStack::quiescent() const {
  return !pair_op_.has_value() && !connect_op_.has_value() &&
         !discovery_callback_.has_value() && !name_request_.has_value() &&
         !map_read_.has_value() && !ploc_active_ && ploc_queue_.empty() &&
         l2cap_.quiescent() && sdp_client_.quiescent() && pan_.quiescent() &&
         pbap_.quiescent() && map_.quiescent();
}

void HostStack::save_state(state::StateWriter& w) const {
  // Config (trials mutate io_capability, hci_dump_available, simple_pairing,
  // fault_recovery, ... — all of it is restored).
  w.str(config_.device_name);
  w.u8(static_cast<std::uint8_t>(config_.version));
  w.u8(static_cast<std::uint8_t>(config_.io_capability));
  w.u8(config_.auth_requirements);
  w.boolean(config_.auto_accept_connections);
  w.u64(config_.acl_idle_timeout);
  w.boolean(config_.hci_dump_available);
  w.boolean(config_.detect_page_blocking);
  w.str(config_.pin_code);
  w.boolean(config_.simple_pairing);
  w.boolean(config_.fault_recovery);
  w.u64(config_.pair_op_watchdog);

  w.fixed(own_address_.bytes());
  w.boolean(hooks_.ignore_link_key_request);
  w.u64(hooks_.ploc_delay);
  w.boolean(hooks_.ignore_connection_request);

  security_.save_state(w);
  l2cap_.save_state(w);
  sdp_server_.save_state(w);
  pan_.save_state(w);
  pbap_.save_state(w);
  hfp_.save_state(w);
  map_.save_state(w);

  w.u64(hfp_channels_.size());
  for (const auto& [peer, channel] : hfp_channels_) {
    w.fixed(peer.bytes());
    w.u16(channel.acl_handle);
    w.u16(channel.local_cid);
    w.u16(channel.remote_cid);
    w.u16(channel.psm);
  }

  w.boolean(map_read_.has_value());
  if (map_read_.has_value()) {
    w.u16(map_read_->channel.acl_handle);
    w.u16(map_read_->channel.local_cid);
    w.u16(map_read_->channel.remote_cid);
    w.u16(map_read_->channel.psm);
    w.u64(map_read_->handles.size());
    for (const std::uint16_t handle : map_read_->handles) w.u16(handle);
    w.u64(map_read_->next_index);
    w.u64(map_read_->bodies.size());
    for (const std::string& body : map_read_->bodies) w.str(body);
  }

  w.boolean(user_agent_ == &default_user_);

  w.u64(acls_.size());
  for (const auto& [handle, acl] : acls_) {
    w.u16(acl.handle);
    w.fixed(acl.peer.bytes());
    w.boolean(acl.initiator);
    w.boolean(acl.authenticated);
    w.boolean(acl.encrypted);
    w.u8(static_cast<std::uint8_t>(acl.peer_io));
    w.boolean(acl.is_pairing_initiator);
    w.boolean(acl.degraded);
    w.u64(acl.last_activity);
  }

  w.u32(static_cast<std::uint32_t>(detected_page_blocking_count_));
  w.u64(discovery_results_.size());
  for (const Discovered& found : discovery_results_) {
    w.fixed(found.address.bytes());
    w.u32(found.class_of_device.raw());
    w.str(found.name);
    w.u8(static_cast<std::uint8_t>(found.rssi));
  }

  w.boolean(ploc_active_);
  w.u64(ploc_queue_.size());
  for (const hci::HciPacket& packet : ploc_queue_) {
    w.u8(static_cast<std::uint8_t>(packet.type));
    w.bytes(packet.payload);
  }

  w.boolean(snoop_enabled_);
  snoop_.save_state(w);

  w.u32(static_cast<std::uint32_t>(ignored_link_key_requests_));
  w.u64(popups_.size());
  for (const PopupRecord& popup : popups_) {
    w.fixed(popup.peer.bytes());
    w.boolean(popup.shown_to_user);
    w.boolean(popup.numeric_value.has_value());
    if (popup.numeric_value.has_value()) w.u32(*popup.numeric_value);
    w.boolean(popup.accepted);
    w.u64(popup.at);
  }
  w.u64(pairing_events_.size());
  for (const auto& [peer, success] : pairing_events_) {
    w.fixed(peer.bytes());
    w.boolean(success);
  }
}

void HostStack::load_state(state::StateReader& r, state::RestoreMode mode) {
  r.str(config_.device_name);
  config_.version = static_cast<BtVersion>(r.u8());
  config_.io_capability = static_cast<hci::IoCapability>(r.u8());
  config_.auth_requirements = r.u8();
  config_.auto_accept_connections = r.boolean();
  config_.acl_idle_timeout = r.u64();
  config_.hci_dump_available = r.boolean();
  config_.detect_page_blocking = r.boolean();
  r.str(config_.pin_code);
  config_.simple_pairing = r.boolean();
  config_.fault_recovery = r.boolean();
  config_.pair_op_watchdog = r.u64();

  own_address_ = BdAddr(r.fixed<BdAddr::kSize>());
  hooks_.ignore_link_key_request = r.boolean();
  hooks_.ploc_delay = r.u64();
  hooks_.ignore_connection_request = r.boolean();

  security_.load_state(r);
  l2cap_.load_state(r, mode);
  sdp_server_.load_state(r);
  pan_.load_state(r);
  pbap_.load_state(r);
  hfp_.load_state(r);
  map_.load_state(r);

  r.read_map(hfp_channels_, /*last_wins=*/false, [&r](BdAddr& peer, L2capChannel& channel) {
    peer = BdAddr(r.fixed<BdAddr::kSize>());
    channel.acl_handle = r.u16();
    channel.local_cid = r.u16();
    channel.remote_cid = r.u16();
    channel.psm = r.u16();
  });

  map_read_.reset();
  if (r.boolean()) {
    MapReadState read;
    read.channel.acl_handle = r.u16();
    read.channel.local_cid = r.u16();
    read.channel.remote_cid = r.u16();
    read.channel.psm = r.u16();
    r.read_vector(read.handles, [&r](std::uint16_t& handle) { handle = r.u16(); });
    read.next_index = static_cast<std::size_t>(r.u64());
    r.read_vector(read.bodies, [&r](std::string& body) { r.str(body); });
    map_read_ = std::move(read);
  }

  const bool default_agent = r.boolean();
  if (mode == state::RestoreMode::kRewind && default_agent) user_agent_ = &default_user_;

  // ACLs: in kInPlace mode the armed idle timers keep their handles; in
  // kRewind mode every handle is stale by construction (the scheduler was
  // rewound), so a default EventHandle is the correct restored value.
  std::map<hci::ConnectionHandle, Acl> restored;
  const std::uint64_t acl_count = r.u64();
  for (std::uint64_t i = 0; i < acl_count && r.ok(); ++i) {
    Acl acl;
    acl.handle = r.u16();
    acl.peer = BdAddr(r.fixed<BdAddr::kSize>());
    acl.initiator = r.boolean();
    acl.authenticated = r.boolean();
    acl.encrypted = r.boolean();
    acl.peer_io = static_cast<hci::IoCapability>(r.u8());
    acl.is_pairing_initiator = r.boolean();
    acl.degraded = r.boolean();
    acl.last_activity = r.u64();
    if (mode == state::RestoreMode::kInPlace) {
      if (const auto it = acls_.find(acl.handle); it != acls_.end())
        acl.idle_timer = it->second.idle_timer;
    }
    restored.emplace(acl.handle, std::move(acl));
  }
  if (r.ok()) acls_ = std::move(restored);

  detected_page_blocking_count_ = static_cast<int>(r.u32());
  r.read_vector(discovery_results_, [&r](Discovered& found) {
    found.address = BdAddr(r.fixed<BdAddr::kSize>());
    found.class_of_device = ClassOfDevice(r.u32());
    r.str(found.name);
    found.rssi = static_cast<std::int8_t>(r.u8());
  });

  ploc_active_ = r.boolean();
  r.read_vector(ploc_queue_, [&r](hci::HciPacket& packet) {
    packet.type = static_cast<hci::PacketType>(r.u8());
    r.bytes(packet.payload);
  });

  snoop_enabled_ = r.boolean();
  snoop_.load_state(r, mode);

  ignored_link_key_requests_ = static_cast<int>(r.u32());
  r.read_vector(popups_, [&r](PopupRecord& popup) {
    popup.peer = BdAddr(r.fixed<BdAddr::kSize>());
    popup.shown_to_user = r.boolean();
    popup.numeric_value.reset();
    if (r.boolean()) popup.numeric_value = r.u32();
    popup.accepted = r.boolean();
    popup.at = r.u64();
  });
  r.read_vector(pairing_events_, [&r](std::pair<BdAddr, bool>& event) {
    event.first = BdAddr(r.fixed<BdAddr::kSize>());
    event.second = r.boolean();
  });

  if (mode == state::RestoreMode::kRewind) {
    // Callback-holding residue from the aborted trial: a strict capture
    // point had none of it, so dropping it restores the captured state.
    pair_op_.reset();
    connect_op_.reset();
    pending_accepts_.clear();
    discovery_callback_.reset();
    name_request_.reset();
    sdp_client_.reset_pending();
    pan_.reset_pending();
    pbap_.reset_pending();
    map_.reset_pending();
    obs_ploc_span_ = 0;
  }
}

}  // namespace blap::host
