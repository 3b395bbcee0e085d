#include "fuzz/codec_harness.hpp"

#include <algorithm>
#include <type_traits>

namespace blap::fuzz {
namespace {

/// FNV-1a over a label string: a stable, compiler-independent hash for
/// "decoder X accepted this input" features.
std::uint64_t label_hash(const char* label) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char* c = label; *c != '\0'; ++c) {
    h ^= static_cast<std::uint8_t>(*c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Canonical idempotence over arbitrary accepted input: if T's decoder
/// accepts `params`, re-encoding must produce a wire form whose own
/// parameter block decodes and re-encodes to the same wire — decode∘encode
/// is a fixed point. `feature` tags the "decoder `label` accepted" feature.
template <typename T>
CheckResult check_fixed_point(BytesView params, const char* label, std::uint8_t feature,
                              FeatureSink* sink) {
  const auto decoded = pdu::decode<T>(params);
  if (!decoded) return {};
  if (sink != nullptr) sink->hash(feature, label_hash(label));
  const Bytes wire = harness_detail::wire_of(*decoded);
  const auto canon_params = harness_detail::params_in<T>(wire);
  if (!canon_params)
    return check_fail(std::string(label) + ": canonical re-encode lost its parameters");
  const auto again = pdu::decode<T>(*canon_params);
  if (!again)
    return check_fail(std::string(label) + ": canonical parameters failed to re-decode");
  if (harness_detail::wire_of(*again) != wire)
    return check_fail(std::string(label) + ": decode/encode is not a fixed point");
  return {};
}

template <typename T>
bool carries(std::uint16_t code) {
  if constexpr (harness_detail::LmpPayload<T>)
    return std::ranges::find(T::kOpcodes, static_cast<controller::LmpOpcode>(code)) !=
           T::kOpcodes.end();
  else if constexpr (hci::Command<T>) return T::kOpcode == code;
  else return T::kEventCode == code;
}

/// The fixed-point check for the typed PDU in `Ts` that carries `code`, if
/// any; `label` is the code's spec name.
template <typename... Ts>
CheckResult probe(pdu::List<Ts...>, std::uint16_t code, BytesView params, const char* label,
                  std::uint8_t feature, FeatureSink* sink) {
  CheckResult r;
  const auto one = [&](auto type) {
    using T = typename decltype(type)::type;
    if (r.ok && carries<T>(code)) r = check_fixed_point<T>(params, label, feature, sink);
  };
  (one(std::type_identity<Ts>{}), ...);
  return r;
}

}  // namespace

CheckResult check_h4_round_trip(const hci::HciPacket& packet) {
  const Bytes wire = packet.to_wire();
  const auto parsed = hci::HciPacket::from_wire(wire);
  if (!parsed) return check_fail("H4: own wire failed to reparse");
  if (*parsed != packet) return check_fail("H4: reparse changed the packet");
  if (parsed->to_wire() != wire) return check_fail("H4: re-encode differs from wire");
  return {};
}

CheckResult check_lmp_round_trip(const controller::LmpPdu& pdu) {
  const Bytes frame = pdu.to_air_frame();
  const auto parsed = controller::LmpPdu::from_air_frame(frame);
  if (!parsed) return check_fail("LMP: own frame failed to reparse");
  if (parsed->opcode != pdu.opcode) return check_fail("LMP: reparse changed the opcode");
  if (parsed->payload != pdu.payload) return check_fail("LMP: reparse changed the payload");
  if (parsed->to_air_frame() != frame)
    return check_fail("LMP: re-encode differs from frame");
  return {};
}

CheckResult check_hci_wire(BytesView wire, FeatureSink* sink) {
  const auto packet = hci::HciPacket::from_wire(wire);
  if (!packet) {
    if (sink != nullptr) sink->hash(0x11, wire.empty() ? 0u : wire[0]);
    return {};
  }
  if (sink != nullptr) {
    sink->hash(0x12, static_cast<std::uint64_t>(packet->type));
    sink->hash(0x13, (static_cast<std::uint64_t>(packet->type) << 32) |
                         std::min<std::size_t>(packet->payload.size(), 1024));
  }
  // H4 reparse identity holds for every accepted wire string.
  if (packet->to_wire() != to_bytes(wire))
    return check_fail("H4: accepted wire did not re-encode identically");

  switch (packet->type) {
    case hci::PacketType::kCommand: {
      const auto opcode = packet->command_opcode();
      const auto params = packet->command_params();
      if (!params) return {};
      if (!opcode) return check_fail("HCI command: parameters without an opcode");
      if (sink != nullptr) sink->hash(0x14, *opcode);
      return probe(hci::Commands{}, *opcode, *params, hci::opcode_name(*opcode), 0x10, sink);
    }
    case hci::PacketType::kEvent: {
      const auto code = packet->event_code();
      const auto params = packet->event_params();
      if (!params) return {};
      if (sink != nullptr) sink->hash(0x15, *code);
      return probe(hci::Events{}, *code, *params, hci::event_name(*code), 0x10, sink);
    }
    case hci::PacketType::kAclData: {
      const auto handle = packet->acl_handle();
      const auto data = packet->acl_data();
      if (data.has_value() && !handle.has_value())
        return check_fail("ACL: data without a handle");
      if (!data) return {};
      if (sink != nullptr) {
        sink->hash(0x16, *handle);
        sink->hash(0x17, std::min<std::size_t>(data->size(), 1024));
      }
      // Header consistency: the length field covered exactly the bytes the
      // accessor returned, and the flag accessors agree with the raw header.
      const std::size_t declared =
          static_cast<std::size_t>(packet->payload[2] | (packet->payload[3] << 8));
      if (data->size() != declared)
        return check_fail("ACL: accessor length disagrees with the header");
      const auto pb = packet->acl_pb_flag();
      const auto bc = packet->acl_bc_flag();
      if (!pb || !bc) return check_fail("ACL: handle present but flags absent");
      // An exactly-sized packet must rebuild byte-identically from its
      // parsed fields — the fragment builder and the parser are inverses.
      if (packet->payload.size() == 4 + declared) {
        const hci::HciPacket rebuilt = hci::make_acl_fragment(*handle, *pb, *bc, *data);
        if (rebuilt != *packet)
          return check_fail("ACL: parse/rebuild is not the identity");
      }
      return {};
    }
    case hci::PacketType::kScoData: return {};
  }
  return {};
}

CheckResult check_lmp_frame(BytesView frame, FeatureSink* sink) {
  // ACL air-frame path: parse must mirror acl_air_frame exactly.
  if (const auto acl = controller::parse_acl_air_frame(frame)) {
    if (sink != nullptr) sink->hash(0x18, std::min<std::size_t>(acl->size(), 1024));
    if (controller::acl_air_frame(*acl) != to_bytes(frame))
      return check_fail("ACL air frame: parse/rebuild is not the identity");
  }

  const auto pdu = controller::LmpPdu::from_air_frame(frame);
  if (!pdu) {
    if (sink != nullptr) sink->hash(0x19, frame.empty() ? 0u : frame[0]);
    return {};
  }
  if (sink != nullptr) {
    sink->hash(0x1A, static_cast<std::uint64_t>(pdu->opcode));
    sink->hash(0x1B, (static_cast<std::uint64_t>(pdu->opcode) << 32) |
                         std::min<std::size_t>(pdu->payload.size(), 256));
  }
  if (pdu->to_air_frame() != to_bytes(frame))
    return check_fail("LMP: accepted frame did not re-encode identically");

  // Typed payload decoders: canonical fixed point for whatever they accept.
  return probe(controller::LmpPayloads{}, static_cast<std::uint16_t>(pdu->opcode), pdu->payload,
               controller::to_string(pdu->opcode), 0x1C, sink);
}

}  // namespace blap::fuzz
