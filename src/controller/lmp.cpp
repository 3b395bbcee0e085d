#include "controller/lmp.hpp"

namespace blap::controller {

const char* to_string(LmpOpcode opcode) {
  switch (opcode) {
    case LmpOpcode::kHostConnectionReq: return "LMP_host_connection_req";
    case LmpOpcode::kAccepted: return "LMP_accepted";
    case LmpOpcode::kNotAccepted: return "LMP_not_accepted";
    case LmpOpcode::kSetupComplete: return "LMP_setup_complete";
    case LmpOpcode::kDetach: return "LMP_detach";
    case LmpOpcode::kAuRand: return "LMP_au_rand";
    case LmpOpcode::kSres: return "LMP_sres";
    case LmpOpcode::kIoCapabilityReq: return "LMP_io_capability_req";
    case LmpOpcode::kIoCapabilityRes: return "LMP_io_capability_res";
    case LmpOpcode::kEncapsulatedPublicKey: return "LMP_encapsulated (public key)";
    case LmpOpcode::kSimplePairingConfirm: return "LMP_Simple_Pairing_Confirm";
    case LmpOpcode::kSimplePairingNumber: return "LMP_Simple_Pairing_Number";
    case LmpOpcode::kDhkeyCheck: return "LMP_DHkey_Check";
    case LmpOpcode::kEncryptionModeReq: return "LMP_encryption_mode_req";
    case LmpOpcode::kStartEncryptionReq: return "LMP_start_encryption_req";
    case LmpOpcode::kStopEncryptionReq: return "LMP_stop_encryption_req";
    case LmpOpcode::kNameReq: return "LMP_name_req";
    case LmpOpcode::kNameRes: return "LMP_name_res";
    case LmpOpcode::kPing: return "LMP_ping";
    case LmpOpcode::kInRand: return "LMP_in_rand";
    case LmpOpcode::kCombKey: return "LMP_comb_key";
    case LmpOpcode::kAuRandSc: return "LMP_au_rand (secure authentication)";
    case LmpOpcode::kSresSc: return "LMP_sres (secure authentication)";
  }
  return "LMP_unknown";
}

Bytes LmpPdu::to_air_frame() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(AirChannel::kLmp));
  w.u8(static_cast<std::uint8_t>(opcode));
  w.raw(payload);
  return std::move(w).take();
}

std::optional<LmpPdu> LmpPdu::from_air_frame(BytesView frame) {
  ByteReader r(frame);
  auto channel = r.u8();
  if (!channel || *channel != static_cast<std::uint8_t>(AirChannel::kLmp)) return std::nullopt;
  auto opcode = r.u8();
  if (!opcode || *opcode == 0 || *opcode > static_cast<std::uint8_t>(LmpOpcode::kSresSc))
    return std::nullopt;
  LmpPdu pdu;
  pdu.opcode = static_cast<LmpOpcode>(*opcode);
  pdu.payload = to_bytes(r.rest());
  return pdu;
}

Bytes acl_air_frame(BytesView l2cap_payload) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(AirChannel::kAcl));
  w.raw(l2cap_payload);
  return std::move(w).take();
}

std::optional<Bytes> parse_acl_air_frame(BytesView frame) {
  ByteReader r(frame);
  auto channel = r.u8();
  if (!channel || *channel != static_cast<std::uint8_t>(AirChannel::kAcl)) return std::nullopt;
  return to_bytes(r.rest());
}

}  // namespace blap::controller
