// ecdh.hpp — elliptic-curve Diffie–Hellman on the NIST P-192 and P-256 curves.
//
// Secure Simple Pairing's public-key exchange runs ECDH on P-192 (classic
// SSP, Bluetooth 2.1–4.0) or P-256 (Secure Connections, 4.1+). The simulated
// controllers perform real ECDH during pairing so the derived DHKey — and
// hence the link key f2 computes from it — is a genuine shared secret. This
// is what makes the link key *extraction* attack meaningful in the simulator:
// the key cannot be recomputed by an observer of the air interface, only
// leaked through the HCI.
//
// Curve arithmetic is short-Weierstrass (y^2 = x^3 + ax + b, with a = -3 on
// both curves) over Jacobian projective coordinates held in Montgomery form
// (MontField), so a scalar multiplication needs a single field inversion.
// multiply() has two paths that return the same point for every scalar:
//  * k * G, the generator (key generation): a 6-tooth Lim-Lee comb. Each
//    curve's constructor, run on the curve's first use, stores the 63 affine
//    subset sums of 2^(j*d) * G, j < 6, d = ceil(bitlen(n) / 6) (43 on P-256,
//    32 on P-192), in a 4 KB member array; a multiply is d - 1 doublings and
//    at most d mixed additions, one per column of teeth.
//  * any other point (the DHKey): fixed 4-bit windows over a per-call table
//    of 1..15 * P, four doublings and at most one addition per window.
// Nothing here is constant-time; see bigint.hpp. Points are validated on
// receipt (on-curve + non-infinity), which also closes the fixed-coordinate
// invalid-curve attack referenced in the paper's related work [10].
#pragma once

#include <array>
#include <optional>

#include "common/rng.hpp"
#include "crypto/bigint.hpp"

namespace blap::crypto {

/// Affine curve point; infinity is represented by is_infinity().
struct EcPoint {
  U256 x;
  U256 y;
  bool infinity = true;

  [[nodiscard]] bool is_infinity() const { return infinity; }
  [[nodiscard]] static EcPoint at_infinity() { return {}; }
  [[nodiscard]] static EcPoint affine(U256 px, U256 py) { return {px, py, false}; }

  friend bool operator==(const EcPoint&, const EcPoint&) = default;
};

/// Domain parameters for a short-Weierstrass prime curve.
class EcCurve {
 public:
  /// NIST P-256 (secp256r1) — used by Secure Connections pairing.
  [[nodiscard]] static const EcCurve& p256();
  /// NIST P-192 (secp192r1) — used by classic SSP pairing.
  [[nodiscard]] static const EcCurve& p192();

  [[nodiscard]] const U256& p() const { return p_; }
  [[nodiscard]] const U256& a() const { return a_; }
  [[nodiscard]] const U256& b() const { return b_; }
  [[nodiscard]] const U256& order() const { return n_; }
  [[nodiscard]] const EcPoint& generator() const { return g_; }
  [[nodiscard]] const char* name() const { return name_; }
  /// Coordinate size in bytes (24 for P-192, 32 for P-256).
  [[nodiscard]] std::size_t coordinate_size() const { return coord_size_; }

  /// True iff point is affine and satisfies the curve equation.
  [[nodiscard]] bool on_curve(const EcPoint& point) const;

  [[nodiscard]] EcPoint add(const EcPoint& lhs, const EcPoint& rhs) const;
  [[nodiscard]] EcPoint double_point(const EcPoint& point) const;
  /// k * point: the generator's comb when point is G and k fits its teeth,
  /// a fixed 4-bit window over Jacobian coordinates otherwise.
  [[nodiscard]] EcPoint multiply(const U256& k, const EcPoint& point) const;

 private:
  static constexpr std::size_t kCombTeeth = 6;
  static constexpr std::size_t kCombEntries = (std::size_t{1} << kCombTeeth) - 1;
  /// An affine point in Montgomery form.
  struct CombEntry {
    U256 x, y;
  };

  EcCurve(const char* name, std::size_t coord_size, U256 p, U256 a, U256 b, U256 gx, U256 gy,
          U256 n);
  [[nodiscard]] EcPoint multiply_generator(const U256& k) const;

  const char* name_;
  std::size_t coord_size_;
  U256 p_, a_, b_, n_;
  EcPoint g_;
  MontField field_;
  /// Comb tooth spacing d: tooth j reads bit j*d + i of k in column i < d.
  std::size_t comb_spacing_;
  /// comb_[m - 1] = sum of 2^(j*d) * G over the set bits j of m, 1 <= m < 64.
  std::array<CombEntry, kCombEntries> comb_;
};

/// An ECDH key pair on a given curve.
struct EcKeyPair {
  U256 private_key;
  EcPoint public_key;
};

/// Generate a key pair with private scalar uniform in [1, n-1].
[[nodiscard]] EcKeyPair generate_keypair(const EcCurve& curve, Rng& rng);

/// Compute the shared secret (X coordinate of d * Q). Returns nullopt when
/// the peer point is invalid (off-curve, infinity, or maps to infinity) —
/// the caller must abort pairing in that case.
[[nodiscard]] std::optional<U256> ecdh_shared_secret(const EcCurve& curve, const U256& private_key,
                                                     const EcPoint& peer_public);

}  // namespace blap::crypto
