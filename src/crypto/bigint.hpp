// bigint.hpp — fixed-width 256-bit unsigned integers and modular arithmetic.
//
// The ECDH key exchange at the heart of Secure Simple Pairing needs field
// arithmetic over the NIST P-192 / P-256 primes. BLAP implements it from
// scratch on a little-endian 4x64-bit limb representation, in two forms:
//
//  * the generic helpers (mod, mul_mod, pow_mod, inv_mod_prime) form a
//    512-bit product and reduce it with word-level Knuth Algorithm D — simple
//    to verify, ~110–160 ns per multiply; they reduce scalars and serve as
//    the slow twin in tests;
//  * MontField keeps elements in Montgomery form and multiplies with a 4x64
//    CIOS loop (~40 ns), which is what the elliptic-curve hot path runs on.
//
// Neither is constant-time. This is a protocol simulator, not a production
// crypto library: timing side channels on the host are out of scope.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace blap::crypto {

/// 256-bit unsigned integer, little-endian limbs (w[0] = least significant).
class U256 {
 public:
  static constexpr std::size_t kLimbs = 4;

  constexpr U256() = default;
  explicit constexpr U256(std::uint64_t v) : w_{v, 0, 0, 0} {}
  explicit constexpr U256(std::array<std::uint64_t, kLimbs> w) : w_(w) {}

  /// Parse big-endian hex (no 0x prefix, up to 64 digits).
  [[nodiscard]] static std::optional<U256> from_hex(std::string_view hex);

  /// Load from big-endian bytes (at most 32; shorter inputs are
  /// zero-extended on the left).
  [[nodiscard]] static std::optional<U256> from_bytes_be(BytesView bytes);

  /// Serialize as exactly 32 big-endian bytes.
  [[nodiscard]] std::array<std::uint8_t, 32> to_bytes_be() const;

  /// Big-endian hex, fixed 64 digits.
  [[nodiscard]] std::string to_hex() const;

  [[nodiscard]] bool is_zero() const;
  [[nodiscard]] bool bit(std::size_t i) const;  // i in [0, 255]
  [[nodiscard]] std::size_t bit_length() const;
  [[nodiscard]] bool is_odd() const { return (w_[0] & 1) != 0; }

  [[nodiscard]] const std::array<std::uint64_t, kLimbs>& limbs() const { return w_; }

  /// a + b, returning the carry-out bit.
  static std::uint64_t add(const U256& a, const U256& b, U256& out);
  /// a - b, returning the borrow-out bit (1 if a < b).
  static std::uint64_t sub(const U256& a, const U256& b, U256& out);

  friend std::strong_ordering operator<=>(const U256& a, const U256& b);
  friend bool operator==(const U256& a, const U256& b) = default;

 private:
  std::array<std::uint64_t, kLimbs> w_{};
};

/// 512-bit product of two U256 values.
class U512 {
 public:
  static constexpr std::size_t kLimbs = 8;

  constexpr U512() = default;

  [[nodiscard]] static U512 mul(const U256& a, const U256& b);
  /// Widen a U256 (high limbs zero).
  [[nodiscard]] static U512 widen(const U256& v);

  [[nodiscard]] bool bit(std::size_t i) const;
  [[nodiscard]] std::size_t bit_length() const;

  [[nodiscard]] const std::array<std::uint64_t, kLimbs>& limbs() const { return w_; }

 private:
  friend U256 mod(const U512& value, const U256& modulus);
  std::array<std::uint64_t, kLimbs> w_{};
};

/// value mod modulus (word-level Knuth Algorithm D). modulus must be nonzero.
[[nodiscard]] U256 mod(const U512& value, const U256& modulus);

/// Reference implementation of mod via binary long division — slow but
/// obviously correct; kept for differential property testing of the
/// Algorithm D path.
[[nodiscard]] U256 mod_binary_reference(const U512& value, const U256& modulus);

/// (a + b) mod m. Inputs must already be < m.
[[nodiscard]] U256 add_mod(const U256& a, const U256& b, const U256& m);
/// (a - b) mod m. Inputs must already be < m.
[[nodiscard]] U256 sub_mod(const U256& a, const U256& b, const U256& m);
/// (a * b) mod m.
[[nodiscard]] U256 mul_mod(const U256& a, const U256& b, const U256& m);
/// a^e mod m (square-and-multiply).
[[nodiscard]] U256 pow_mod(const U256& a, const U256& e, const U256& m);
/// a^-1 mod p for prime p (Fermat's little theorem). a must be nonzero mod p.
[[nodiscard]] U256 inv_mod_prime(const U256& a, const U256& p);

/// Arithmetic modulo an odd prime p < 2^256 in Montgomery form (R = 2^256):
/// the element a is held as aR mod p. mul/add/sub/inv take and return
/// Montgomery-form values < p; to_mont/from_mont convert at the boundary.
class MontField {
 public:
  explicit MontField(const U256& p);

  [[nodiscard]] const U256& p() const { return p_; }
  /// The Montgomery form of 1 (R mod p).
  [[nodiscard]] const U256& one() const { return r_; }

  /// aR mod p; any a < 2^256 is accepted and reduced.
  [[nodiscard]] U256 to_mont(const U256& a) const;
  /// aR^-1 mod p: the plain value of a Montgomery-form element.
  [[nodiscard]] U256 from_mont(const U256& a) const;

  /// abR^-1 mod p (4x64 CIOS Montgomery multiplication).
  [[nodiscard]] U256 mul(const U256& a, const U256& b) const;
  [[nodiscard]] U256 sqr(const U256& a) const { return mul(a, a); }
  /// (a + b) mod p and (a - b) mod p, branchless.
  [[nodiscard]] U256 add(const U256& a, const U256& b) const;
  [[nodiscard]] U256 sub(const U256& a, const U256& b) const;
  /// Montgomery-form inverse via Fermat: a^(p-2). a must be nonzero.
  [[nodiscard]] U256 inv(const U256& a) const;

 private:
  U256 p_;
  U256 r_;   // R mod p
  U256 r2_;  // R^2 mod p
  std::uint64_t n0_;  // -p^-1 mod 2^64
};

// U256::add/sub and the MontField hot path are defined here so the curve
// formulas inline them.
namespace detail {
__extension__ typedef unsigned __int128 u128;

/// v + hi * 2^256, known to be < 2m, reduced below m: subtract m when the
/// value carried past 2^256 or the subtraction does not borrow. Branchless.
inline U256 reduce_once(const U256& v, std::uint64_t hi, const U256& m) {
  U256 diff;
  const std::uint64_t keep_diff = 0 - (hi | (U256::sub(v, m, diff) ^ 1));
  std::array<std::uint64_t, U256::kLimbs> out;
  for (std::size_t i = 0; i < U256::kLimbs; ++i)
    out[i] = (diff.limbs()[i] & keep_diff) | (v.limbs()[i] & ~keep_diff);
  return U256(out);
}
}  // namespace detail

inline std::uint64_t U256::add(const U256& a, const U256& b, U256& out) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const detail::u128 s = static_cast<detail::u128>(a.w_[i]) + b.w_[i] + carry;
    out.w_[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<std::uint64_t>(s >> 64);
  }
  return carry;
}

inline std::uint64_t U256::sub(const U256& a, const U256& b, U256& out) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const detail::u128 d = static_cast<detail::u128>(a.w_[i]) - b.w_[i] - borrow;
    out.w_[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<std::uint64_t>(d >> 64) & 1;
  }
  return borrow;
}

inline U256 MontField::mul(const U256& a, const U256& b) const {
  using detail::u128;
  const auto& x = a.limbs();
  const auto& y = b.limbs();
  const auto& m = p_.limbs();
  // Coarsely integrated operand scanning: interleave one row of x*y[i] with
  // one word of reduction, so t never grows past five limbs plus a carry.
  std::uint64_t t[U256::kLimbs + 2] = {};
#pragma GCC unroll 4
  for (std::size_t i = 0; i < U256::kLimbs; ++i) {
    std::uint64_t carry = 0;
#pragma GCC unroll 4
    for (std::size_t j = 0; j < U256::kLimbs; ++j) {
      const u128 s = static_cast<u128>(x[j]) * y[i] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    u128 s = static_cast<u128>(t[4]) + carry;
    t[4] = static_cast<std::uint64_t>(s);
    t[5] = static_cast<std::uint64_t>(s >> 64);

    const std::uint64_t q = t[0] * n0_;  // makes t + q*p divisible by 2^64
    s = static_cast<u128>(q) * m[0] + t[0];
    carry = static_cast<std::uint64_t>(s >> 64);
#pragma GCC unroll 4
    for (std::size_t j = 1; j < U256::kLimbs; ++j) {
      s = static_cast<u128>(q) * m[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(s);
      carry = static_cast<std::uint64_t>(s >> 64);
    }
    s = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<std::uint64_t>(s);
    t[4] = t[5] + static_cast<std::uint64_t>(s >> 64);
  }
  return detail::reduce_once(U256({t[0], t[1], t[2], t[3]}), t[4], p_);
}

inline U256 MontField::add(const U256& a, const U256& b) const {
  U256 sum;
  const std::uint64_t carry = U256::add(a, b, sum);
  return detail::reduce_once(sum, carry, p_);
}

inline U256 MontField::sub(const U256& a, const U256& b) const {
  U256 diff;
  // On borrow, add p back (the 2^256 carry out cancels the borrow).
  const std::uint64_t mask = 0 - U256::sub(a, b, diff);
  const auto& m = p_.limbs();
  U256 out;
  U256::add(diff, U256({m[0] & mask, m[1] & mask, m[2] & mask, m[3] & mask}), out);
  return out;
}

}  // namespace blap::crypto
