// keys.hpp — shared key material types for the BR/EDR security architecture.
//
// The link key is *the* secret of classic Bluetooth: LMP authentication
// challenges prove possession of it and the encryption key is derived from
// it. BLAP's whole first attack is about this 16-byte value crossing the HCI
// in plaintext.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace blap::crypto {

/// 128-bit link key (combination key / unit key / SSP-derived key).
using LinkKey = std::array<std::uint8_t, 16>;

/// 128-bit encryption key produced by E3 / h3.
using EncryptionKey = std::array<std::uint8_t, 16>;

/// 96-bit Authenticated Ciphering Offset from E1 (feeds E3).
using Aco = std::array<std::uint8_t, 12>;

/// 32-bit Signed RESponse from the LMP challenge-response.
using Sres = std::array<std::uint8_t, 4>;

/// 128-bit random challenge (AU_RAND / EN_RAND / pairing nonces).
using Rand128 = std::array<std::uint8_t, 16>;

/// Legacy-pairing PIN (1..16 bytes): with BD_ADDR and IN_RAND it derives
/// Kinit, so it is key material too.
using PinCode = std::string;

[[nodiscard]] inline std::string key_to_hex(BytesView key) { return hex(key); }

[[nodiscard]] inline std::optional<LinkKey> link_key_from_hex(std::string_view text) {
  auto bytes = unhex(text);
  if (!bytes || bytes->size() != 16) return std::nullopt;
  LinkKey key{};
  std::copy(bytes->begin(), bytes->end(), key.begin());
  return key;
}

[[nodiscard]] inline LinkKey random_link_key(Rng& rng) { return rng.bytes<16>(); }

/// Bluetooth link key type codes reported by HCI_Link_Key_Notification.
enum class LinkKeyType : std::uint8_t {
  kCombination = 0x00,
  kLocalUnit = 0x01,
  kRemoteUnit = 0x02,
  kDebugCombination = 0x03,
  kUnauthenticatedCombinationP192 = 0x04,  // SSP Just Works / no MITM protection
  kAuthenticatedCombinationP192 = 0x05,    // SSP with MITM protection
  kChangedCombination = 0x06,
  kUnauthenticatedCombinationP256 = 0x07,  // Secure Connections, Just Works
  kAuthenticatedCombinationP256 = 0x08,    // Secure Connections with MITM
};

[[nodiscard]] const char* to_string(LinkKeyType type);

inline const char* to_string(LinkKeyType type) {
  switch (type) {
    case LinkKeyType::kCombination: return "Combination";
    case LinkKeyType::kLocalUnit: return "Local Unit";
    case LinkKeyType::kRemoteUnit: return "Remote Unit";
    case LinkKeyType::kDebugCombination: return "Debug Combination";
    case LinkKeyType::kUnauthenticatedCombinationP192: return "Unauthenticated Combination (P-192)";
    case LinkKeyType::kAuthenticatedCombinationP192: return "Authenticated Combination (P-192)";
    case LinkKeyType::kChangedCombination: return "Changed Combination";
    case LinkKeyType::kUnauthenticatedCombinationP256: return "Unauthenticated Combination (P-256)";
    case LinkKeyType::kAuthenticatedCombinationP256: return "Authenticated Combination (P-256)";
  }
  return "?";
}

}  // namespace blap::crypto
