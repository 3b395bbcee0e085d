// lmp.hpp — Link Manager Protocol PDUs exchanged between controllers.
//
// LMP is the controller-to-controller security and control plane (Vol 2,
// Part C): host connection setup, the SSP pairing sub-protocol, the E1
// challenge–response, and encryption start all run here. BLAP's attacks are
// deliberately *above* this layer (they never modify the controller), so the
// LMP engine below is a faithful, unmodified protocol participant — exactly
// the situation of the paper's unrooted victim controllers.
//
// Air frames are framed as [channel u8][payload]: channel 0 = LMP, 1 = ACL.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/bdaddr.hpp"
#include "common/bytes.hpp"
#include "crypto/keys.hpp"
#include "hci/pdu.hpp"

namespace blap::controller {

/// Air-frame channel discriminator.
enum class AirChannel : std::uint8_t { kLmp = 0, kAcl = 1 };

enum class LmpOpcode : std::uint8_t {
  kHostConnectionReq = 1,
  kAccepted = 2,
  kNotAccepted = 3,
  kSetupComplete = 4,
  kDetach = 5,
  kAuRand = 6,
  kSres = 7,
  kIoCapabilityReq = 8,
  kIoCapabilityRes = 9,
  kEncapsulatedPublicKey = 10,
  kSimplePairingConfirm = 11,
  kSimplePairingNumber = 12,
  kDhkeyCheck = 13,
  kEncryptionModeReq = 14,
  kStartEncryptionReq = 15,
  kStopEncryptionReq = 16,
  kNameReq = 17,
  kNameRes = 18,
  kPing = 19,  // keep-alive carrier for the PLOC dummy-traffic ablation
  // Legacy (pre-SSP) PIN pairing — the protocol SSP replaced (paper §II-C1).
  kInRand = 20,   // IN_RAND for the E22 initialization key
  kCombKey = 21,  // LK_RAND xor Kinit — combination key contribution
  // Secure Connections secure authentication (h4/h5, BT 4.1+): mutual
  // challenge-response in a single round trip.
  kAuRandSc = 22,  // verifier's R_M
  kSresSc = 23,    // claimant's R_S || SRES_slave
};

[[nodiscard]] const char* to_string(LmpOpcode opcode);

struct LmpPdu {
  LmpOpcode opcode = LmpOpcode::kPing;
  Bytes payload;

  [[nodiscard]] Bytes to_air_frame() const;
  [[nodiscard]] static std::optional<LmpPdu> from_air_frame(BytesView frame);
};

/// Frame an ACL (L2CAP) payload for the air.
[[nodiscard]] Bytes acl_air_frame(BytesView l2cap_payload);

/// If `frame` is an ACL air frame, return its payload.
[[nodiscard]] std::optional<Bytes> parse_acl_air_frame(BytesView frame);

// --- typed payloads (field lists in hci/pdu.hpp kinds) ------------------------
// kOpcodes names the LMP PDUs that carry each payload.

struct LmpIoCap {
  std::uint8_t io_capability = 0;
  std::uint8_t oob_data_present = 0;
  std::uint8_t authentication_requirements = 0;

  static constexpr std::array kOpcodes{LmpOpcode::kIoCapabilityReq, LmpOpcode::kIoCapabilityRes};
  static constexpr std::tuple kFields{pdu::le(&LmpIoCap::io_capability),
                                      pdu::le(&LmpIoCap::oob_data_present),
                                      pdu::le(&LmpIoCap::authentication_requirements)};
};

struct LmpPublicKey {
  Bytes x;  // big-endian coordinate at curve width
  Bytes y;

  static constexpr std::array kOpcodes{LmpOpcode::kEncapsulatedPublicKey};
  static constexpr std::tuple kFields{pdu::ecc_point(&LmpPublicKey::x, &LmpPublicKey::y)};
};

struct LmpNotAccepted {
  LmpOpcode rejected_opcode = LmpOpcode::kPing;
  std::uint8_t reason = 0;

  static constexpr std::array kOpcodes{LmpOpcode::kNotAccepted};
  static constexpr std::tuple kFields{pdu::le(&LmpNotAccepted::rejected_opcode),
                                      pdu::le(&LmpNotAccepted::reason)};
};

/// Every typed LMP payload, for the codec harness and its tests.
using LmpPayloads = pdu::List<LmpIoCap, LmpPublicKey, LmpNotAccepted>;

}  // namespace blap::controller
