#include "hci/packets.hpp"

#include "common/log.hpp"

namespace blap::hci {

const char* to_string(Status status) {
  switch (status) {
    case Status::kSuccess: return "Success";
    case Status::kUnknownConnectionIdentifier: return "Unknown Connection Identifier";
    case Status::kPageTimeout: return "Page Timeout";
    case Status::kAuthenticationFailure: return "Authentication Failure";
    case Status::kPinOrKeyMissing: return "PIN or Key Missing";
    case Status::kConnectionTimeout: return "Connection Timeout";
    case Status::kConnectionAlreadyExists: return "Connection Already Exists";
    case Status::kConnectionAcceptTimeout: return "Connection Accept Timeout Exceeded";
    case Status::kRemoteUserTerminatedConnection: return "Remote User Terminated Connection";
    case Status::kConnectionTerminatedByLocalHost: return "Connection Terminated By Local Host";
    case Status::kPairingNotAllowed: return "Pairing Not Allowed";
    case Status::kLmpResponseTimeout: return "LMP Response Timeout";
  }
  return "Unknown Status";
}

const char* to_string(IoCapability capability) {
  switch (capability) {
    case IoCapability::kDisplayOnly: return "DisplayOnly";
    case IoCapability::kDisplayYesNo: return "DisplayYesNo";
    case IoCapability::kKeyboardOnly: return "KeyboardOnly";
    case IoCapability::kNoInputNoOutput: return "NoInputNoOutput";
  }
  return "?";
}

Bytes HciPacket::to_wire() const {
  Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

std::optional<HciPacket> HciPacket::from_wire(BytesView wire) {
  if (wire.empty()) return std::nullopt;
  const std::uint8_t type_byte = wire[0];
  if (type_byte < 0x01 || type_byte > 0x04) return std::nullopt;
  HciPacket packet;
  packet.type = static_cast<PacketType>(type_byte);
  packet.payload.assign(wire.begin() + 1, wire.end());
  return packet;
}

std::optional<std::uint16_t> HciPacket::command_opcode() const {
  if (type != PacketType::kCommand || payload.size() < 3) return std::nullopt;
  return static_cast<std::uint16_t>(payload[0] | (payload[1] << 8));
}

std::optional<BytesView> HciPacket::command_params() const {
  if (type != PacketType::kCommand || payload.size() < 3) return std::nullopt;
  const std::size_t len = payload[2];
  if (payload.size() < 3 + len) return std::nullopt;
  return BytesView(payload).subspan(3, len);
}

std::optional<std::uint8_t> HciPacket::event_code() const {
  if (type != PacketType::kEvent || payload.size() < 2) return std::nullopt;
  return payload[0];
}

std::optional<BytesView> HciPacket::event_params() const {
  if (type != PacketType::kEvent || payload.size() < 2) return std::nullopt;
  const std::size_t len = payload[1];
  if (payload.size() < 2 + len) return std::nullopt;
  return BytesView(payload).subspan(2, len);
}

std::optional<ConnectionHandle> HciPacket::acl_handle() const {
  if (type != PacketType::kAclData || payload.size() < 4) return std::nullopt;
  return static_cast<ConnectionHandle>((payload[0] | (payload[1] << 8)) & 0x0FFF);
}

std::optional<std::uint8_t> HciPacket::acl_pb_flag() const {
  if (type != PacketType::kAclData || payload.size() < 4) return std::nullopt;
  return static_cast<std::uint8_t>((payload[1] >> 4) & 0x03);
}

std::optional<std::uint8_t> HciPacket::acl_bc_flag() const {
  if (type != PacketType::kAclData || payload.size() < 4) return std::nullopt;
  return static_cast<std::uint8_t>((payload[1] >> 6) & 0x03);
}

std::optional<BytesView> HciPacket::acl_data() const {
  if (type != PacketType::kAclData || payload.size() < 4) return std::nullopt;
  const std::size_t len = static_cast<std::size_t>(payload[2] | (payload[3] << 8));
  if (payload.size() < 4 + len) return std::nullopt;
  return BytesView(payload).subspan(4, len);
}

std::string HciPacket::describe() const {
  switch (type) {
    case PacketType::kCommand:
      if (auto op = command_opcode())
        return strfmt("Command %s (%zu bytes)", opcode_name(*op), payload.size());
      return "Command <truncated>";
    case PacketType::kEvent:
      if (auto code = event_code())
        return strfmt("Event %s (%zu bytes)", event_name(*code), payload.size());
      return "Event <truncated>";
    case PacketType::kAclData:
      if (auto handle = acl_handle())
        return strfmt("ACL handle=0x%04x (%zu bytes)", *handle, payload.size());
      return "ACL <truncated>";
    case PacketType::kScoData:
      return strfmt("SCO (%zu bytes)", payload.size());
  }
  return "?";
}

BdAddr LinkKeyField::peer(BytesView payload) const {
  ByteReader r(payload.subspan(header));
  return *BdAddr::from_wire(r);
}

HciPacket make_command(std::uint16_t op, BytesView params) {
  ByteWriter w;
  w.u16(op).u8(static_cast<std::uint8_t>(params.size())).raw(params);
  return HciPacket{PacketType::kCommand, std::move(w).take()};
}

HciPacket make_event(std::uint8_t code, BytesView params) {
  ByteWriter w;
  w.u8(code).u8(static_cast<std::uint8_t>(params.size())).raw(params);
  return HciPacket{PacketType::kEvent, std::move(w).take()};
}

HciPacket make_acl(ConnectionHandle handle, BytesView data) {
  return make_acl_fragment(handle, 0, 0, data);
}

HciPacket make_acl_fragment(ConnectionHandle handle, std::uint8_t pb_flag,
                            std::uint8_t bc_flag, BytesView data) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>((handle & 0x0FFF) | ((pb_flag & 0x03) << 12) |
                                   ((bc_flag & 0x03) << 14)));
  w.u16(static_cast<std::uint16_t>(data.size()));
  w.raw(data);
  return HciPacket{PacketType::kAclData, std::move(w).take()};
}

}  // namespace blap::hci
