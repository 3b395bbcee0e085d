#include "crypto/bigint.hpp"

namespace blap::crypto {

using detail::u128;

std::optional<U256> U256::from_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 64) return std::nullopt;
  U256 out;
  std::size_t nibble = 0;  // counted from the least-significant end
  for (std::size_t i = hex.size(); i-- > 0;) {
    const char c = hex[i];
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else return std::nullopt;
    out.w_[nibble / 16] |= static_cast<std::uint64_t>(v) << (4 * (nibble % 16));
    ++nibble;
  }
  return out;
}

std::optional<U256> U256::from_bytes_be(BytesView bytes) {
  if (bytes.size() > 32) return std::nullopt;
  U256 out;
  std::size_t bit = 0;
  for (std::size_t i = bytes.size(); i-- > 0;) {
    out.w_[bit / 64] |= static_cast<std::uint64_t>(bytes[i]) << (bit % 64);
    bit += 8;
  }
  return out;
}

std::array<std::uint8_t, 32> U256::to_bytes_be() const {
  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 32; ++i)
    out[31 - i] = static_cast<std::uint8_t>(w_[i / 8] >> (8 * (i % 8)));
  return out;
}

std::string U256::to_hex() const {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < 64; ++i) {
    const std::size_t nibble = 63 - i;
    out[i] = digits[(w_[nibble / 16] >> (4 * (nibble % 16))) & 0xF];
  }
  return out;
}

bool U256::is_zero() const { return (w_[0] | w_[1] | w_[2] | w_[3]) == 0; }

bool U256::bit(std::size_t i) const { return (w_[i / 64] >> (i % 64)) & 1; }

std::size_t U256::bit_length() const {
  for (std::size_t limb = kLimbs; limb-- > 0;) {
    if (w_[limb] != 0)
      return 64 * limb + (64 - static_cast<std::size_t>(__builtin_clzll(w_[limb])));
  }
  return 0;
}

std::strong_ordering operator<=>(const U256& a, const U256& b) {
  for (std::size_t i = U256::kLimbs; i-- > 0;) {
    if (a.w_[i] != b.w_[i]) return a.w_[i] <=> b.w_[i];
  }
  return std::strong_ordering::equal;
}

U512 U512::mul(const U256& a, const U256& b) {
  U512 out;
  for (std::size_t i = 0; i < U256::kLimbs; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < U256::kLimbs; ++j) {
      const u128 cur = static_cast<u128>(a.limbs()[i]) * b.limbs()[j] + out.w_[i + j] + carry;
      out.w_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.w_[i + U256::kLimbs] += carry;
  }
  return out;
}

U512 U512::widen(const U256& v) {
  U512 out;
  for (std::size_t i = 0; i < U256::kLimbs; ++i) out.w_[i] = v.limbs()[i];
  return out;
}

bool U512::bit(std::size_t i) const { return (w_[i / 64] >> (i % 64)) & 1; }

std::size_t U512::bit_length() const {
  for (std::size_t limb = kLimbs; limb-- > 0;) {
    if (w_[limb] != 0)
      return 64 * limb + (64 - static_cast<std::size_t>(__builtin_clzll(w_[limb])));
  }
  return 0;
}

U256 mod(const U512& value, const U256& modulus) {
  // Knuth TAOCP Vol. 2, Algorithm D, specialized to return the remainder.
  // Limbs are 64-bit; the dividend has at most 8 limbs, the divisor at most
  // 4. The single-limb divisor case short-circuits to a 128/64 division.
  const auto& vw = modulus.limbs();
  std::size_t k = U256::kLimbs;
  while (k > 0 && vw[k - 1] == 0) --k;
  if (k == 0) return U256();  // undefined; caller guarantees nonzero

  const auto& uw_in = value.limbs();
  std::size_t m = U512::kLimbs;
  while (m > 0 && uw_in[m - 1] == 0) --m;
  if (m == 0) return U256();

  if (k == 1) {
    const std::uint64_t d = vw[0];
    std::uint64_t rem = 0;
    for (std::size_t i = m; i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | uw_in[i];
      rem = static_cast<std::uint64_t>(cur % d);
    }
    return U256(rem);
  }

  // Normalize so the divisor's top bit is set.
  const int shift = __builtin_clzll(vw[k - 1]);
  std::uint64_t v[U256::kLimbs] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < k; ++i) {
    v[i] = vw[i] << shift;
    if (shift != 0 && i > 0) v[i] |= vw[i - 1] >> (64 - shift);
  }
  std::uint64_t u[U512::kLimbs + 1] = {};
  for (std::size_t i = 0; i < m; ++i) {
    u[i] |= uw_in[i] << shift;
    if (shift != 0 && i + 1 <= U512::kLimbs) u[i + 1] = uw_in[i] >> (64 - shift);
  }
  std::size_t un = m + 1;  // normalized dividend length (top limb may be 0)

  if (un <= k) un = k + 1;  // defensive; guarantees at least one quotient digit

  for (std::size_t j = un - k; j-- > 0;) {
    // Estimate q̂ from the top two dividend limbs and the top divisor limb.
    const u128 top = (static_cast<u128>(u[j + k]) << 64) | u[j + k - 1];
    u128 qhat = top / v[k - 1];
    u128 rhat = top % v[k - 1];
    while (qhat > 0xFFFFFFFFFFFFFFFFULL ||
           (k >= 2 && qhat * v[k - 2] > ((rhat << 64) | u[j + k - 2]))) {
      --qhat;
      rhat += v[k - 1];
      if (rhat > 0xFFFFFFFFFFFFFFFFULL) break;
    }

    // u[j .. j+k] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 product = qhat * v[i] + carry;
      carry = product >> 64;
      const u128 sub = static_cast<u128>(u[j + i]) - static_cast<std::uint64_t>(product) - borrow;
      u[j + i] = static_cast<std::uint64_t>(sub);
      borrow = (sub >> 64) ? 1 : 0;
    }
    const u128 sub = static_cast<u128>(u[j + k]) - carry - borrow;
    u[j + k] = static_cast<std::uint64_t>(sub);
    if (sub >> 64) {
      // q̂ was one too large: add the divisor back.
      u128 add_carry = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const u128 sum = static_cast<u128>(u[j + i]) + v[i] + add_carry;
        u[j + i] = static_cast<std::uint64_t>(sum);
        add_carry = sum >> 64;
      }
      u[j + k] = static_cast<std::uint64_t>(u[j + k] + add_carry);
    }
  }

  // Denormalize the remainder (low k limbs of u).
  std::array<std::uint64_t, U256::kLimbs> rem{};
  for (std::size_t i = 0; i < k; ++i) {
    rem[i] = u[i] >> shift;
    if (shift != 0 && i + 1 < U512::kLimbs + 1) {
      rem[i] |= u[i + 1] << (64 - shift);
    }
  }
  // Mask out any divisor bits above k limbs leaked by the final OR.
  for (std::size_t i = k; i < U256::kLimbs; ++i) rem[i] = 0;
  return U256(rem);
}

U256 mod_binary_reference(const U512& value, const U256& modulus) {
  // Binary long division: scan bits from most significant, shifting the
  // remainder left and subtracting the modulus whenever it fits.
  U256 rem;
  const std::size_t bits = value.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    // rem = rem << 1 | bit(i); a carry out of the shift means rem >= 2^256,
    // which is >= modulus for any modulus we use, so subtract immediately.
    std::uint64_t carry = rem.bit(255) ? 1 : 0;
    U256 shifted;
    U256::add(rem, rem, shifted);
    if (value.bit(i)) {
      U256 one(1);
      U256::add(shifted, one, shifted);
    }
    rem = shifted;
    if (carry || rem >= modulus) {
      U256 reduced;
      U256::sub(rem, modulus, reduced);
      rem = reduced;
      // After one subtraction rem < modulus is guaranteed because the
      // pre-shift remainder was < modulus (so shifted < 2*modulus + 1; for
      // odd moduli that is <= 2*modulus - 1, one subtraction suffices).
    }
  }
  return rem;
}

U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 sum;
  const std::uint64_t carry = U256::add(a, b, sum);
  if (carry || sum >= m) {
    U256 out;
    U256::sub(sum, m, out);
    return out;
  }
  return sum;
}

U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 diff;
  const std::uint64_t borrow = U256::sub(a, b, diff);
  if (borrow) {
    U256 out;
    U256::add(diff, m, out);
    return out;
  }
  return diff;
}

U256 mul_mod(const U256& a, const U256& b, const U256& m) { return mod(U512::mul(a, b), m); }

U256 pow_mod(const U256& a, const U256& e, const U256& m) {
  U256 result(1);
  U256 base = mod(U512::widen(a), m);
  const std::size_t bits = e.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (e.bit(i)) result = mul_mod(result, base, m);
    base = mul_mod(base, base, m);
  }
  return result;
}

U256 inv_mod_prime(const U256& a, const U256& p) {
  U256 exponent;
  U256 two(2);
  U256::sub(p, two, exponent);
  return pow_mod(a, exponent, p);
}

MontField::MontField(const U256& p) : p_(p) {
  // n0 = -p^-1 mod 2^64 by Newton iteration: each step doubles the number
  // of correct low bits, and p*p == 1 mod 8 seeds three of them.
  const std::uint64_t p0 = p.limbs()[0];
  std::uint64_t inv = p0;
  for (int i = 0; i < 5; ++i) inv *= 2 - p0 * inv;
  n0_ = 0 - inv;
  // R mod p = (2^256 - p) mod p; 2^256 - p is p's two's complement.
  U256 neg_p;
  U256::sub(U256(), p, neg_p);
  r_ = mod(U512::widen(neg_p), p);
  r2_ = mul_mod(r_, r_, p);
}

U256 MontField::to_mont(const U256& a) const { return mul(a, r2_); }

U256 MontField::from_mont(const U256& a) const { return mul(a, U256(1)); }

U256 MontField::inv(const U256& a) const {
  U256 exponent;
  U256::sub(p_, U256(2), exponent);
  U256 result = r_;
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    result = sqr(result);
    if (exponent.bit(i)) result = mul(result, a);
  }
  return result;
}

}  // namespace blap::crypto
