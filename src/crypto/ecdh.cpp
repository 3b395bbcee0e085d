#include "crypto/ecdh.hpp"

#include <cassert>

namespace blap::crypto {

namespace {
U256 hx(std::string_view s) {
  auto v = U256::from_hex(s);
  assert(v.has_value());
  return *v;
}

/// Jacobian projective point with Montgomery-form coordinates:
/// (X, Y, Z) represents affine (X/Z^2, Y/Z^3); Z == 0 is infinity.
struct Jacobian {
  U256 x, y, z;

  [[nodiscard]] bool infinity() const { return z.is_zero(); }
};

Jacobian to_jacobian(const MontField& f, const EcPoint& p) {
  if (p.is_infinity()) return {};
  return {f.to_mont(p.x), f.to_mont(p.y), f.one()};
}

EcPoint to_affine(const MontField& f, const Jacobian& p) {
  if (p.infinity()) return EcPoint::at_infinity();
  const U256 zinv = f.inv(p.z);
  const U256 zinv2 = f.sqr(zinv);
  const U256 zinv3 = f.mul(zinv2, zinv);
  return EcPoint::affine(f.from_mont(f.mul(p.x, zinv2)), f.from_mont(f.mul(p.y, zinv3)));
}

/// dbl-2001-b for a = -3 (3M + 5S). Y == 0 or Z == 0 yields Z3 == 0, so
/// infinity and 2-torsion need no branch.
Jacobian jacobian_double(const MontField& f, const Jacobian& p) {
  const U256 delta = f.sqr(p.z);
  const U256 gamma = f.sqr(p.y);
  const U256 beta = f.mul(p.x, gamma);
  // alpha = 3 * (X - delta) * (X + delta)
  const U256 t = f.mul(f.sub(p.x, delta), f.add(p.x, delta));
  const U256 alpha = f.add(f.add(t, t), t);
  // X3 = alpha^2 - 8*beta
  U256 beta4 = f.add(beta, beta);
  beta4 = f.add(beta4, beta4);
  const U256 x3 = f.sub(f.sqr(alpha), f.add(beta4, beta4));
  // Z3 = (Y + Z)^2 - gamma - delta
  const U256 z3 = f.sub(f.sub(f.sqr(f.add(p.y, p.z)), gamma), delta);
  // Y3 = alpha * (4*beta - X3) - 8*gamma^2
  U256 gamma8 = f.sqr(gamma);
  gamma8 = f.add(gamma8, gamma8);
  gamma8 = f.add(gamma8, gamma8);
  gamma8 = f.add(gamma8, gamma8);
  const U256 y3 = f.sub(f.mul(alpha, f.sub(beta4, x3)), gamma8);
  return {x3, y3, z3};
}

/// add-1998-cmo (12M + 4S), falling back to doubling when p == q.
Jacobian jacobian_add(const MontField& f, const Jacobian& p, const Jacobian& q) {
  if (p.infinity()) return q;
  if (q.infinity()) return p;
  const U256 z1z1 = f.sqr(p.z);
  const U256 z2z2 = f.sqr(q.z);
  const U256 u1 = f.mul(p.x, z2z2);
  const U256 u2 = f.mul(q.x, z1z1);
  const U256 s1 = f.mul(p.y, f.mul(z2z2, q.z));
  const U256 s2 = f.mul(q.y, f.mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return jacobian_double(f, p);
    return {};  // P + (-P) = infinity
  }
  const U256 h = f.sub(u2, u1);
  const U256 r = f.sub(s2, s1);
  const U256 hh = f.sqr(h);
  const U256 hhh = f.mul(hh, h);
  const U256 v = f.mul(u1, hh);
  // X3 = r^2 - HHH - 2*V
  const U256 x3 = f.sub(f.sub(f.sqr(r), hhh), f.add(v, v));
  // Y3 = r*(V - X3) - S1*HHH
  const U256 y3 = f.sub(f.mul(r, f.sub(v, x3)), f.mul(s1, hhh));
  // Z3 = Z1*Z2*H
  const U256 z3 = f.mul(f.mul(p.z, q.z), h);
  return {x3, y3, z3};
}

/// jacobian_add for an affine q = (qx, qy), i.e. Z2 = 1 (8M + 3S). Kept out
/// of line: inlined with the doubling, the comb loop is ~38 KB of code, more
/// than a 32 KB L1i holds, and a P-256 keygen ran ~25% slower (GCC -O3).
[[gnu::noinline]] Jacobian jacobian_add_affine(const MontField& f, const Jacobian& p,
                                               const U256& qx, const U256& qy) {
  if (p.infinity()) return {qx, qy, f.one()};
  const U256 z1z1 = f.sqr(p.z);
  const U256 u2 = f.mul(qx, z1z1);
  const U256 s2 = f.mul(qy, f.mul(z1z1, p.z));
  if (p.x == u2) {
    if (p.y == s2) return jacobian_double(f, p);
    return {};  // P + (-P) = infinity
  }
  const U256 h = f.sub(u2, p.x);
  const U256 r = f.sub(s2, p.y);
  const U256 hh = f.sqr(h);
  const U256 hhh = f.mul(hh, h);
  const U256 v = f.mul(p.x, hh);
  const U256 x3 = f.sub(f.sub(f.sqr(r), hhh), f.add(v, v));
  const U256 y3 = f.sub(f.mul(r, f.sub(v, x3)), f.mul(p.y, hhh));
  return {x3, y3, f.mul(p.z, h)};
}

/// The 4-bit window of k starting at bit 4*w.
unsigned nibble(const U256& k, std::size_t w) {
  return static_cast<unsigned>(k.limbs()[w / 16] >> (4 * (w % 16))) & 0xF;
}
}  // namespace

EcCurve::EcCurve(const char* name, std::size_t coord_size, U256 p, U256 a, U256 b, U256 gx,
                 U256 gy, U256 n)
    : name_(name), coord_size_(coord_size), p_(p), a_(a), b_(b), n_(n),
      g_(EcPoint::affine(gx, gy)), field_(p),
      comb_spacing_((n.bit_length() + kCombTeeth - 1) / kCombTeeth) {
  // Doubling uses the a = -3 shortcut; both NIST curves satisfy it.
  U256 p_minus_3;
  U256::sub(p, U256(3), p_minus_3);
  assert(a == p_minus_3);

  // Tooth j is 2^(j*d) * G; the sums with top tooth j are that tooth plus
  // each sum of the lower teeth. Every sum is a multiple of G below n, so
  // none is infinity, and one batch inversion takes all of them to affine.
  std::array<Jacobian, kCombEntries> sums;
  Jacobian tooth = to_jacobian(field_, g_);
  for (std::size_t j = 0; j < kCombTeeth; ++j) {
    const std::size_t top = std::size_t{1} << j;
    if (j > 0)
      for (std::size_t i = 0; i < comb_spacing_; ++i) tooth = jacobian_double(field_, tooth);
    sums[top - 1] = tooth;
    for (std::size_t m = 1; m < top; ++m)
      sums[top + m - 1] = jacobian_add(field_, sums[m - 1], tooth);
  }
  std::array<U256, kCombEntries> z_prefix;  // z_prefix[m] = Z_0 * .. * Z_m
  U256 running = field_.one();
  for (std::size_t m = 0; m < kCombEntries; ++m) {
    assert(!sums[m].infinity());
    z_prefix[m] = running = field_.mul(running, sums[m].z);
  }
  U256 inv = field_.inv(running);  // (Z_0 * .. * Z_m)^-1, m counting down
  for (std::size_t m = kCombEntries; m-- > 0;) {
    const U256 zinv = m > 0 ? field_.mul(inv, z_prefix[m - 1]) : inv;
    inv = field_.mul(inv, sums[m].z);
    const U256 zinv2 = field_.sqr(zinv);
    comb_[m] = {field_.mul(sums[m].x, zinv2), field_.mul(sums[m].y, field_.mul(zinv2, zinv))};
  }
}

const EcCurve& EcCurve::p256() {
  static const EcCurve curve(
      "P-256", 32,
      hx("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"),
      hx("ffffffff00000001000000000000000000000000fffffffffffffffffffffffc"),
      hx("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b"),
      hx("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"),
      hx("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5"),
      hx("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"));
  return curve;
}

const EcCurve& EcCurve::p192() {
  static const EcCurve curve(
      "P-192", 24,
      hx("fffffffffffffffffffffffffffffffeffffffffffffffff"),
      hx("fffffffffffffffffffffffffffffffefffffffffffffffc"),
      hx("64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1"),
      hx("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012"),
      hx("07192b95ffc8da78631011ed6b24cdd573f977a11e794811"),
      hx("ffffffffffffffffffffffff99def836146bc9b1b4d22831"));
  return curve;
}

bool EcCurve::on_curve(const EcPoint& point) const {
  if (point.is_infinity()) return false;
  if (point.x >= p_ || point.y >= p_) return false;
  const MontField& f = field_;
  const U256 x = f.to_mont(point.x);
  const U256 y = f.to_mont(point.y);
  // y^2 == (x^2 + a) * x + b
  const U256 rhs = f.add(f.mul(f.add(f.sqr(x), f.to_mont(a_)), x), f.to_mont(b_));
  return f.sqr(y) == rhs;
}

EcPoint EcCurve::add(const EcPoint& lhs, const EcPoint& rhs) const {
  return to_affine(field_,
                   jacobian_add(field_, to_jacobian(field_, lhs), to_jacobian(field_, rhs)));
}

EcPoint EcCurve::double_point(const EcPoint& point) const {
  return to_affine(field_, jacobian_double(field_, to_jacobian(field_, point)));
}

EcPoint EcCurve::multiply(const U256& k, const EcPoint& point) const {
  if (point == g_ && k.bit_length() <= kCombTeeth * comb_spacing_) return multiply_generator(k);
  const std::size_t windows = (k.bit_length() + 3) / 4;
  if (windows == 0 || point.is_infinity()) return EcPoint::at_infinity();
  // table[d] = d * point for d in 1..15.
  Jacobian table[16];
  table[1] = to_jacobian(field_, point);
  table[2] = jacobian_double(field_, table[1]);
  for (std::size_t d = 3; d < 16; ++d) table[d] = jacobian_add(field_, table[d - 1], table[1]);

  // Fixed 4-bit window, most significant first; the top window is nonzero.
  Jacobian acc = table[nibble(k, windows - 1)];
  for (std::size_t w = windows - 1; w-- > 0;) {
    for (int i = 0; i < 4; ++i) acc = jacobian_double(field_, acc);
    if (const unsigned d = nibble(k, w); d != 0) acc = jacobian_add(field_, acc, table[d]);
  }
  return to_affine(field_, acc);
}

EcPoint EcCurve::multiply_generator(const U256& k) const {
  // Column i, top first: bit j*d + i of k selects tooth j.
  Jacobian acc;
  for (std::size_t i = comb_spacing_; i-- > 0;) {
    if (!acc.infinity()) acc = jacobian_double(field_, acc);
    std::size_t m = 0;
    for (std::size_t j = 0; j < kCombTeeth; ++j) {
      const std::size_t bit = j * comb_spacing_ + i;
      if (bit < 256 && k.bit(bit)) m |= std::size_t{1} << j;
    }
    if (m != 0) acc = jacobian_add_affine(field_, acc, comb_[m - 1].x, comb_[m - 1].y);
  }
  return to_affine(field_, acc);
}

EcKeyPair generate_keypair(const EcCurve& curve, Rng& rng) {
  for (;;) {
    const auto raw = rng.bytes<32>();
    auto candidate = U256::from_bytes_be(BytesView(raw.data(), raw.size()));
    const U256 scalar = mod(U512::widen(*candidate), curve.order());
    if (scalar.is_zero()) continue;
    return EcKeyPair{scalar, curve.multiply(scalar, curve.generator())};
  }
}

std::optional<U256> ecdh_shared_secret(const EcCurve& curve, const U256& private_key,
                                       const EcPoint& peer_public) {
  if (!curve.on_curve(peer_public)) return std::nullopt;
  const EcPoint shared = curve.multiply(private_key, peer_public);
  if (shared.is_infinity()) return std::nullopt;
  return shared.x;
}

}  // namespace blap::crypto
