// air_analysis.hpp — offline analysis of passively sniffed air traffic.
//
// Two capabilities built on the radio sniffer:
//
//  * Legacy PIN cracking — the pre-SSP weakness (paper §II-C1, refs [14]
//    btpincrack and [15] Shaked–Wool): a sniffer that saw one legacy pairing
//    (IN_RAND, both masked combination-key contributions) plus one
//    challenge–response (AU_RAND, SRES) can brute-force the PIN offline:
//    guess PIN → Kinit' = E22 → unmask LK_RANDs → candidate link key →
//    check E1(key', AU_RAND, claimant) == SRES. Four digits fall instantly.
//
//  * Retroactive decryption — the paper's §IV-C observation that an
//    extracted link key decrypts "not only the future, but also the past
//    communications of M captured by air-sniffers": with the link key, the
//    sniffed AU_RAND gives the ACO, the sniffed EN_RAND gives Kc via E3,
//    and E0 unrolls every recorded ciphertext.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "controller/lmp.hpp"
#include "crypto/e1.hpp"
#include "radio/radio_medium.hpp"

namespace blap::core {

/// A passive recorder attachable to the radio medium.
class AirSniffer {
 public:
  explicit AirSniffer(radio::RadioMedium& medium) {
    medium.add_sniffer([this](const radio::SniffedFrame& frame) { frames_.push_back(frame); });
  }

  [[nodiscard]] const std::vector<radio::SniffedFrame>& frames() const { return frames_; }
  void clear() { frames_.clear(); }

 private:
  std::vector<radio::SniffedFrame> frames_;
};

/// Everything a PIN-cracking attack needs from one sniffed legacy pairing.
struct LegacyPairingCapture {
  BdAddr initiator;  // sender of LMP_in_rand
  BdAddr responder;
  crypto::Rand128 in_rand{};
  crypto::LinkKey masked_comb_initiator{};  // LK_RAND_A xor Kinit
  crypto::LinkKey masked_comb_responder{};  // LK_RAND_B xor Kinit
  crypto::Rand128 au_rand{};                // first post-pairing challenge
  BdAddr claimant;                          // who answered it (its addr feeds E1)
  crypto::Sres sres{};
};

/// Reconstruct the capture from a sniffed frame sequence. Returns nullopt if
/// any of the five required messages is missing.
[[nodiscard]] std::optional<LegacyPairingCapture> parse_legacy_pairing(
    const std::vector<radio::SniffedFrame>& frames);

struct PinCrackResult {
  bool found = false;
  crypto::PinCode pin;
  crypto::LinkKey link_key{};
  std::uint64_t attempts = 0;
};

/// Offline brute force over numeric PINs of 1..max_digits digits.
[[nodiscard]] PinCrackResult crack_pin(const LegacyPairingCapture& capture,
                                       std::size_t max_digits = 6);

/// Test a single PIN guess against a capture (the inner loop of crack_pin,
/// exposed for benchmarks). Returns the candidate key when the guess checks.
[[nodiscard]] std::optional<crypto::LinkKey> try_pin(const LegacyPairingCapture& capture,
                                                     const std::string& pin);

/// One decrypted ACL payload from a recorded session.
struct DecryptedPayload {
  SimTime timestamp_us = 0;
  BdAddr sender;
  Bytes plaintext;
};

/// Retroactively decrypt sniffed encrypted ACL traffic using a (stolen)
/// link key: recover ACO from the last sniffed challenge, Kc from the
/// sniffed EN_RAND via E3, then run E0 per direction.
/// Returns nullopt when the capture lacks the needed LMP context.
[[nodiscard]] std::optional<std::vector<DecryptedPayload>> decrypt_captured_traffic(
    const std::vector<radio::SniffedFrame>& frames, const crypto::LinkKey& link_key);

}  // namespace blap::core
