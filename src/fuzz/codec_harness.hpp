// codec_harness.hpp — shared codec round-trip oracles.
//
// One set of codec invariants, two consumers: the seeded gtest suite
// (tests/test_codec_fuzz.cpp) and the coverage-guided fuzz targets
// (fuzz_hci_codec / fuzz_lmp_codec). Keeping the check bodies here means
// the two can never drift — a property the gtest asserts and the fuzzer
// explores is, by construction, the same property.
//
// The invariants, per codec:
//
//   * round trip      — encode → parse wire → decode params → re-encode
//                       must reproduce the first wire bytes exactly.
//   * prefix rejects  — every strict prefix of a parameter block decodes
//                       to nullopt (truncation never yields partial data).
//   * padding tolerated — a valid block plus trailing garbage either
//                       rejects or decodes to the same value (leading
//                       fields, tail ignored — real controllers tolerate
//                       padded commands).
//   * canonical idempotence (arbitrary inputs) — whatever decode() accepts,
//                       re-encoding and decoding again is a fixed point.
//
// All checks return a CheckResult instead of asserting, so the fuzzer can
// treat a failure as a finding and the gtest can print the detail.
#pragma once

#include <optional>
#include <string>

#include "controller/lmp.hpp"
#include "fuzz/coverage.hpp"
#include "hci/commands.hpp"
#include "hci/events.hpp"

namespace blap::fuzz {

struct CheckResult {
  bool ok = true;
  std::string detail;
};

[[nodiscard]] inline CheckResult check_fail(std::string detail) {
  return {false, std::move(detail)};
}

// --- structured round trips (gtest + fuzz seed validation) -------------------

/// H4 framing: to_wire → from_wire → to_wire is the identity.
[[nodiscard]] CheckResult check_h4_round_trip(const hci::HciPacket& packet);

/// LMP PDU framing: to_air_frame → from_air_frame → to_air_frame identity,
/// with opcode and payload preserved.
[[nodiscard]] CheckResult check_lmp_round_trip(const controller::LmpPdu& pdu);

namespace harness_detail {

/// LMP payloads are checked on their own bytes, HCI PDUs on their H4 wire.
template <typename T>
concept LmpPayload = requires { T::kOpcodes; };

template <typename T>
Bytes wire_of(const T& value) {
  if constexpr (LmpPayload<T>) return pdu::encode(value);
  else return hci::encode(value).to_wire();
}

template <typename T>
const char* spec_name() {
  if constexpr (LmpPayload<T>) return controller::to_string(T::kOpcodes[0]);
  else if constexpr (hci::Command<T>) return hci::opcode_name(T::kOpcode);
  else return hci::event_name(T::kEventCode);
}

/// The parameter block inside wire_of()'s bytes, found through the H4
/// parser; nullopt if the wire does not reparse.
template <typename T>
std::optional<BytesView> params_in(BytesView wire) {
  if constexpr (LmpPayload<T>) {
    return wire;
  } else {
    const auto packet = hci::HciPacket::from_wire(wire);
    if (!packet) return std::nullopt;
    const auto params = hci::Command<T> ? packet->command_params() : packet->event_params();
    if (!params) return std::nullopt;
    // H4 type byte, then opcode + length (command) or code + length (event).
    return wire.subspan(hci::Command<T> ? 4 : 3, params->size());
  }
}

}  // namespace harness_detail

/// Full typed-PDU contract: round trip + prefix rejection + padding
/// tolerance, on the real H4 wire of an HCI PDU or the bytes of an LMP
/// payload. A PDU with an open tail (Command_Complete's return parameters)
/// accepts its own prefixes and absorbs padding, so it gets the round trip
/// only. Failures name the PDU by its spec name.
template <typename T>
[[nodiscard]] CheckResult check_round_trip(const T& value) {
  using harness_detail::wire_of;
  const char* label = harness_detail::spec_name<T>();
  const Bytes wire = wire_of(value);
  const auto params = harness_detail::params_in<T>(wire);
  if (!params) return check_fail(std::string(label) + ": own wire has no parameter block");

  const auto decoded = pdu::decode<T>(*params);
  if (!decoded) return check_fail(std::string(label) + ": own parameters failed to decode");
  if (wire_of(*decoded) != wire)
    return check_fail(std::string(label) + ": re-encode differs from original wire");
  if constexpr (pdu::kOpenTail<T>) return {};

  for (std::size_t cut = 0; cut < params->size(); ++cut) {
    if (pdu::decode<T>(params->subspan(0, cut)).has_value())
      return check_fail(std::string(label) + ": strict prefix of " + std::to_string(cut) +
                        " bytes decoded");
  }

  // Trailing garbage: tolerated (decodes to the same value) or rejected —
  // but never a different value. A fixed tail keeps the harness
  // deterministic without threading an Rng through.
  Bytes padded = to_bytes(*params);
  for (std::size_t i = 0; i < 9; ++i)
    padded.push_back(static_cast<std::uint8_t>(0xA5 + 17 * i));
  if (const auto tolerant = pdu::decode<T>(padded); tolerant.has_value()) {
    if (wire_of(*tolerant) != wire)
      return check_fail(std::string(label) + ": padded decode changed the value");
  }
  return {};
}

// --- arbitrary-input probes (fuzz targets) -----------------------------------

/// Feed arbitrary bytes through the H4 parser and every typed HCI decoder
/// whose opcode/event code matches. Asserts canonical idempotence for
/// whatever the decoders accept, plus header/length consistency for ACL
/// packets. Emits shape features to `sink` when non-null.
[[nodiscard]] CheckResult check_hci_wire(BytesView wire, FeatureSink* sink);

/// Same for the LMP/ACL air-frame surface: framing parse, typed payload
/// decoders (IO capability, encapsulated public key, not-accepted),
/// canonical idempotence.
[[nodiscard]] CheckResult check_lmp_frame(BytesView frame, FeatureSink* sink);

}  // namespace blap::fuzz
