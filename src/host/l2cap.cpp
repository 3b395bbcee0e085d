#include "host/l2cap.hpp"

#include "common/log.hpp"

namespace blap::host {

namespace {
constexpr std::uint16_t kSignalingCid = 0x0001;
constexpr std::uint8_t kConnectReq = 0x02;
constexpr std::uint8_t kConnectRsp = 0x03;
constexpr std::uint8_t kDisconnectReq = 0x06;
constexpr std::uint8_t kEchoReq = 0x08;
constexpr std::uint8_t kEchoRsp = 0x09;
constexpr std::uint16_t kResultSuccess = 0x0000;
constexpr std::uint16_t kResultPsmNotSupported = 0x0002;
constexpr std::uint16_t kResultSecurityBlock = 0x0003;
}  // namespace

void L2cap::register_service(std::uint16_t psm_value, Service service) {
  services_[psm_value] = std::move(service);
}

std::uint16_t L2cap::allocate_cid() {
  if (next_cid_ == 0) next_cid_ = 0x0040;
  return next_cid_++;
}

void L2cap::connect_channel(hci::ConnectionHandle handle, std::uint16_t psm_value,
                            ConnectCallback callback) {
  const std::uint8_t id = next_id_++;
  const std::uint16_t scid = allocate_cid();
  L2capChannel channel;
  channel.acl_handle = handle;
  channel.local_cid = scid;
  channel.psm = psm_value;
  channels_[{handle, scid}] = channel;
  pending_[{handle, id}] = PendingConnect{psm_value, std::move(callback)};

  ByteWriter payload;
  payload.u16(psm_value).u16(scid);
  send_signaling(handle, kConnectReq, id, payload.data());
}

void L2cap::send(const L2capChannel& channel, BytesView data) {
  ByteWriter w;
  w.u16(channel.remote_cid).raw(data);
  sender_(channel.acl_handle, w.data());
}

void L2cap::echo(hci::ConnectionHandle handle, BytesView payload,
                 std::function<void()> on_response) {
  const std::uint8_t id = next_id_++;
  pending_echo_[{handle, id}] = std::move(on_response);
  send_signaling(handle, kEchoReq, id, payload);
}

void L2cap::send_signaling(hci::ConnectionHandle handle, std::uint8_t code, std::uint8_t id,
                           BytesView payload) {
  ByteWriter w;
  w.u16(kSignalingCid);
  w.u8(code).u8(id).u16(static_cast<std::uint16_t>(payload.size())).raw(payload);
  sender_(handle, w.data());
}

void L2cap::on_acl_data(hci::ConnectionHandle handle, BytesView payload) {
  ByteReader r(payload);
  auto cid = r.u16();
  if (!cid) return;
  if (*cid == kSignalingCid) {
    handle_signaling(handle, r.rest());
    return;
  }
  auto it = channels_.find({handle, *cid});
  if (it == channels_.end()) return;
  auto service = services_.find(it->second.psm);
  if (service != services_.end() && service->second.on_data)
    service->second.on_data(it->second, r.rest());
}

void L2cap::handle_signaling(hci::ConnectionHandle handle, BytesView payload) {
  ByteReader r(payload);
  auto code = r.u8();
  auto id = r.u8();
  auto len = r.u16();
  if (!code || !id || !len) return;
  auto body = r.bytes(*len);
  if (!body) return;
  ByteReader br(*body);

  switch (*code) {
    case kConnectReq: {
      auto psm_value = br.u16();
      auto scid = br.u16();
      if (!psm_value || !scid) return;
      auto service = services_.find(*psm_value);
      std::uint16_t result = kResultSuccess;
      std::uint16_t dcid = 0;
      if (service == services_.end()) {
        result = kResultPsmNotSupported;
      } else if (service->second.requires_authentication &&
                 (!auth_oracle_ || !auth_oracle_(handle))) {
        result = kResultSecurityBlock;
      } else if (service->second.minimum_security == SecurityLevel::kMitmProtected &&
                 (!mitm_oracle_ || !mitm_oracle_(handle))) {
        // Level 3: an unauthenticated (Just Works) key does not qualify.
        result = kResultSecurityBlock;
      } else {
        dcid = allocate_cid();
        L2capChannel channel;
        channel.acl_handle = handle;
        channel.local_cid = dcid;
        channel.remote_cid = *scid;
        channel.psm = *psm_value;
        channels_[{handle, dcid}] = channel;
      }
      ByteWriter response;
      response.u16(dcid).u16(*scid).u16(result);
      send_signaling(handle, kConnectRsp, *id, response.data());
      if (result == kResultSuccess && service->second.on_open)
        service->second.on_open(channels_[{handle, dcid}]);
      break;
    }
    case kConnectRsp: {
      auto dcid = br.u16();
      auto scid = br.u16();
      auto result = br.u16();
      if (!dcid || !scid || !result) return;
      auto pending = pending_.find({handle, *id});
      if (pending == pending_.end()) return;
      auto callback = std::move(pending->second.callback);
      pending_.erase(pending);
      auto chan = channels_.find({handle, *scid});
      if (*result != kResultSuccess || chan == channels_.end()) {
        if (chan != channels_.end()) channels_.erase(chan);
        if (callback) callback(std::nullopt);
        return;
      }
      chan->second.remote_cid = *dcid;
      if (callback) callback(chan->second);
      break;
    }
    case kDisconnectReq: {
      auto dcid = br.u16();
      if (dcid) channels_.erase({handle, *dcid});
      break;
    }
    case kEchoReq:
      send_signaling(handle, kEchoRsp, *id, *body);
      break;
    case kEchoRsp: {
      auto pending = pending_echo_.find({handle, *id});
      if (pending != pending_echo_.end()) {
        auto callback = std::move(pending->second);
        pending_echo_.erase(pending);
        if (callback) callback();
      }
      break;
    }
    default:
      break;
  }
}

void L2cap::on_disconnected(hci::ConnectionHandle handle) {
  std::erase_if(channels_, [handle](const auto& kv) { return kv.first.first == handle; });
  std::erase_if(pending_, [handle](const auto& kv) { return kv.first.first == handle; });
  std::erase_if(pending_echo_, [handle](const auto& kv) { return kv.first.first == handle; });
}

std::size_t L2cap::channel_count(hci::ConnectionHandle handle) const {
  std::size_t count = 0;
  for (const auto& [key, channel] : channels_)
    if (key.first == handle) ++count;
  return count;
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void L2cap::persist(Io& io, Self& self) {
  io.map(self.channels_, state::Duplicates::kFirstWins, [&io](auto& key, auto& channel) {
    io.field(channel);
    if constexpr (Io::kLoading) key = {channel.acl_handle, channel.local_cid};
  });
  io.field(self.next_cid_);
  io.field(self.next_id_);
  if constexpr (Io::kLoading) {
    if (io.mode() != state::RestoreMode::kRewind) return;
    self.pending_.clear();
    self.pending_echo_.clear();
  }
}

template void L2cap::persist(state::StateWriter&, const L2cap&);
template void L2cap::persist(state::StateReader&, L2cap&);

}  // namespace blap::host
