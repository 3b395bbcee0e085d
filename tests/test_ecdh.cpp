// ECDH validation: NIST curve constants, known scalar multiples, and the
// Diffie–Hellman agreement property SSP relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "crypto/ecdh.hpp"

namespace blap::crypto {
namespace {

TEST(EcCurve, GeneratorsAreOnCurve) {
  EXPECT_TRUE(EcCurve::p256().on_curve(EcCurve::p256().generator()));
  EXPECT_TRUE(EcCurve::p192().on_curve(EcCurve::p192().generator()));
}

TEST(EcCurve, P256DoubleGeneratorMatchesKnownValue) {
  const auto& curve = EcCurve::p256();
  const EcPoint twog = curve.double_point(curve.generator());
  EXPECT_EQ(twog.x.to_hex(),
            "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978");
  EXPECT_EQ(twog.y.to_hex(),
            "07775510db8ed040293d9ac69f7430dbba7dade63ce982299e04b79d227873d1");
}

TEST(EcCurve, P192DoubleGeneratorMatchesKnownValue) {
  const auto& curve = EcCurve::p192();
  const EcPoint twog = curve.double_point(curve.generator());
  EXPECT_EQ(twog.x.to_hex().substr(16),
            "dafebf5828783f2ad35534631588a3f629a70fb16982a888");
  EXPECT_EQ(twog.y.to_hex().substr(16),
            "dd6bda0d993da0fa46b27bbc141b868f59331afa5c7e93ab");
}

TEST(EcCurve, AddMatchesDouble) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  EXPECT_EQ(curve.add(g, g), curve.double_point(g));
}

TEST(EcCurve, ThreeGTwoWays) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  const EcPoint via_add = curve.add(curve.double_point(g), g);
  const EcPoint via_mult = curve.multiply(U256(3), g);
  EXPECT_EQ(via_add, via_mult);
  EXPECT_TRUE(curve.on_curve(via_mult));
}

TEST(EcCurve, OrderTimesGeneratorIsInfinity) {
  const auto& curve = EcCurve::p256();
  EXPECT_TRUE(curve.multiply(curve.order(), curve.generator()).is_infinity());
}

TEST(EcCurve, P192OrderTimesGeneratorIsInfinity) {
  const auto& curve = EcCurve::p192();
  EXPECT_TRUE(curve.multiply(curve.order(), curve.generator()).is_infinity());
}

TEST(EcCurve, AddingInverseGivesInfinity) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  U256 neg_y;
  U256::sub(curve.p(), g.y, neg_y);
  const EcPoint minus_g = EcPoint::affine(g.x, neg_y);
  EXPECT_TRUE(curve.on_curve(minus_g));
  EXPECT_TRUE(curve.add(g, minus_g).is_infinity());
}

TEST(EcCurve, InfinityIsAdditiveIdentity) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  EXPECT_EQ(curve.add(g, EcPoint::at_infinity()), g);
  EXPECT_EQ(curve.add(EcPoint::at_infinity(), g), g);
}

TEST(EcCurve, RejectsOffCurvePoint) {
  const auto& curve = EcCurve::p256();
  EcPoint bogus = curve.generator();
  bogus.y = add_mod(bogus.y, U256(1), curve.p());
  EXPECT_FALSE(curve.on_curve(bogus));
}

TEST(Ecdh, SharedSecretAgrees) {
  Rng rng(2022);
  const auto& curve = EcCurve::p256();
  const EcKeyPair alice = generate_keypair(curve, rng);
  const EcKeyPair bob = generate_keypair(curve, rng);
  const auto s_alice = ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  const auto s_bob = ecdh_shared_secret(curve, bob.private_key, alice.public_key);
  ASSERT_TRUE(s_alice.has_value());
  ASSERT_TRUE(s_bob.has_value());
  EXPECT_EQ(*s_alice, *s_bob);
}

TEST(Ecdh, P192SharedSecretAgrees) {
  Rng rng(7);
  const auto& curve = EcCurve::p192();
  const EcKeyPair alice = generate_keypair(curve, rng);
  const EcKeyPair bob = generate_keypair(curve, rng);
  const auto s_alice = ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  const auto s_bob = ecdh_shared_secret(curve, bob.private_key, alice.public_key);
  ASSERT_TRUE(s_alice && s_bob);
  EXPECT_EQ(*s_alice, *s_bob);
}

// Known-answer pins, recorded from the pre-Montgomery implementation: the
// same Rng draws must keep producing byte-identical keys and DHKeys.
TEST(Ecdh, P256KnownAnswer) {
  Rng rng(2022);
  const auto& curve = EcCurve::p256();
  const EcKeyPair alice = generate_keypair(curve, rng);
  const EcKeyPair bob = generate_keypair(curve, rng);
  const auto dhkey = ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  ASSERT_TRUE(dhkey.has_value());
  EXPECT_EQ(alice.public_key.x.to_hex(),
            "3aaca6a315db1797d301b21821501c442ad5da4704b7f5d6c10b51bf348174b1");
  EXPECT_EQ(alice.public_key.y.to_hex(),
            "d9b5a71cba0da48f1770e9d673882e0559d7616e78d97f497e3dfd4d320d9df9");
  EXPECT_EQ(bob.public_key.x.to_hex(),
            "2fbb120d1d389185dc6fa917b138d1964c4a152cf581cdcc455588a95f0eedd2");
  EXPECT_EQ(bob.public_key.y.to_hex(),
            "b81081f6e93ab175ca0f15ef70665c55f03f7e57c36027173f6d4d9b5c35c9ec");
  EXPECT_EQ(dhkey->to_hex(),
            "e3f818131946bff0f0421cfa73aad9d54a21183a23634b8c801906f3b5c88445");
}

TEST(Ecdh, P192KnownAnswer) {
  Rng rng(7);
  const auto& curve = EcCurve::p192();
  const EcKeyPair alice = generate_keypair(curve, rng);
  const EcKeyPair bob = generate_keypair(curve, rng);
  const auto dhkey = ecdh_shared_secret(curve, alice.private_key, bob.public_key);
  ASSERT_TRUE(dhkey.has_value());
  EXPECT_EQ(alice.public_key.x.to_hex(),
            "000000000000000068af564c19940d4dbc063bf6f88fe7c55078db62efad8487");
  EXPECT_EQ(alice.public_key.y.to_hex(),
            "000000000000000041413ad81aac50d87ba9b5eb1839d96d51700705df7193c2");
  EXPECT_EQ(bob.public_key.x.to_hex(),
            "000000000000000073f09e8a3d304eb6fe6ce05891e13c8e60d3aaae359418d2");
  EXPECT_EQ(bob.public_key.y.to_hex(),
            "00000000000000004959c11e1f69b9f21aa0e0f250b9e0acfdf5550c1ed6b0c2");
  EXPECT_EQ(dhkey->to_hex(),
            "0000000000000000fafd46a4d5c5163232073ad5f059c028b0323beee30f6d5f");
}

TEST(Ecdh, RejectsInvalidPeerPoint) {
  // The fixed-coordinate invalid-curve attack (paper ref [10]) is closed by
  // validating the peer point before multiplying.
  Rng rng(5);
  const auto& curve = EcCurve::p256();
  const EcKeyPair alice = generate_keypair(curve, rng);
  EcPoint off_curve = EcPoint::affine(U256(1), U256(1));
  EXPECT_FALSE(ecdh_shared_secret(curve, alice.private_key, off_curve).has_value());
  EXPECT_FALSE(ecdh_shared_secret(curve, alice.private_key, EcPoint::at_infinity()).has_value());
}

TEST(Ecdh, DistinctKeyPairsDistinctSecrets) {
  Rng rng(9);
  const auto& curve = EcCurve::p256();
  const EcKeyPair a = generate_keypair(curve, rng);
  const EcKeyPair b = generate_keypair(curve, rng);
  const EcKeyPair c = generate_keypair(curve, rng);
  const auto s_ab = ecdh_shared_secret(curve, a.private_key, b.public_key);
  const auto s_ac = ecdh_shared_secret(curve, a.private_key, c.public_key);
  ASSERT_TRUE(s_ab && s_ac);
  EXPECT_NE(*s_ab, *s_ac);
}

TEST(Ecdh, KeypairPrivateScalarInRange) {
  Rng rng(123);
  const auto& curve = EcCurve::p256();
  for (int i = 0; i < 8; ++i) {
    const EcKeyPair kp = generate_keypair(curve, rng);
    EXPECT_FALSE(kp.private_key.is_zero());
    EXPECT_LT(kp.private_key, curve.order());
    EXPECT_TRUE(curve.on_curve(kp.public_key));
  }
}

// Scalar-multiplication consistency sweep: (k+1)G == kG + G for many k.
class ScalarMulProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScalarMulProperty, IncrementalConsistency) {
  const auto& curve = EcCurve::p256();
  const EcPoint g = curve.generator();
  const EcPoint kg = curve.multiply(U256(GetParam()), g);
  const EcPoint k1g = curve.multiply(U256(GetParam() + 1), g);
  EXPECT_EQ(curve.add(kg, g), k1g);
}

INSTANTIATE_TEST_SUITE_P(SmallScalars, ScalarMulProperty,
                         ::testing::Values(1, 2, 3, 5, 16, 100, 255, 65537));

// ---------------------------------------------------------------------------
// Slow twin. The curve code runs on MontField; the reference below is affine
// double-and-add on the Knuth-D helpers (mul_mod, add_mod, sub_mod,
// inv_mod_prime) and shares no code with it. Scalars run in lock-step so one
// inv_mod_prime per step serves every lane (Montgomery's batch inversion).

/// lhs[j] += rhs[j] for every lane, by affine chord-and-tangent.
void reference_add(const EcCurve& curve, std::vector<EcPoint>& lhs, std::vector<EcPoint> rhs) {
  const U256& m = curve.p();
  const std::size_t n = lhs.size();
  std::vector<U256> num(n), den(n, U256(1));
  std::vector<bool> active(n, false);
  for (std::size_t j = 0; j < n; ++j) {
    const EcPoint& a = lhs[j];
    const EcPoint& b = rhs[j];
    if (b.is_infinity()) continue;
    if (a.is_infinity()) {
      lhs[j] = b;
    } else if (a.x != b.x) {
      num[j] = sub_mod(b.y, a.y, m);
      den[j] = sub_mod(b.x, a.x, m);
      active[j] = true;
    } else if (a.y != b.y || a.y.is_zero()) {
      lhs[j] = EcPoint::at_infinity();
    } else {  // tangent: (3x^2 + a) / 2y
      const U256 xx = mul_mod(a.x, a.x, m);
      num[j] = add_mod(add_mod(add_mod(xx, xx, m), xx, m), curve.a(), m);
      den[j] = add_mod(a.y, a.y, m);
      active[j] = true;
    }
  }
  std::vector<U256> prefix(n);
  U256 running(1);
  for (std::size_t j = 0; j < n; ++j) prefix[j] = running = mul_mod(running, den[j], m);
  U256 inv = inv_mod_prime(running, m);
  for (std::size_t j = n; j-- > 0;) {
    const U256 den_inv = j > 0 ? mul_mod(inv, prefix[j - 1], m) : inv;
    inv = mul_mod(inv, den[j], m);
    if (!active[j]) continue;
    const EcPoint& a = lhs[j];
    const U256 lambda = mul_mod(num[j], den_inv, m);
    const U256 x3 = sub_mod(sub_mod(mul_mod(lambda, lambda, m), a.x, m), rhs[j].x, m);
    const U256 y3 = sub_mod(mul_mod(lambda, sub_mod(a.x, x3, m), m), a.y, m);
    lhs[j] = EcPoint::affine(x3, y3);
  }
}

/// ks[j] * point for every j, by most-significant-first double-and-add.
std::vector<EcPoint> reference_multiply(const EcCurve& curve, const std::vector<U256>& ks,
                                        const EcPoint& point) {
  std::size_t bits = 0;
  for (const U256& k : ks) bits = std::max(bits, k.bit_length());
  std::vector<EcPoint> acc(ks.size(), EcPoint::at_infinity());
  for (std::size_t i = bits; i-- > 0;) {
    reference_add(curve, acc, acc);
    std::vector<EcPoint> addend(ks.size(), EcPoint::at_infinity());
    for (std::size_t j = 0; j < ks.size(); ++j)
      if (ks[j].bit(i)) addend[j] = point;
    reference_add(curve, acc, std::move(addend));
  }
  return acc;
}

U256 random_scalar(Rng& rng, std::size_t bits) {
  std::array<std::uint64_t, 4> w{};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t lo = 64 * i;
    if (lo >= bits) break;
    w[i] = rng.next_u64();
    if (bits - lo < 64) w[i] &= (std::uint64_t{1} << (bits - lo)) - 1;
  }
  return U256(w);
}

U256 limbs4(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2, std::uint64_t w3) {
  return U256(std::array<std::uint64_t, 4>{w0, w1, w2, w3});
}

U256 sub_small(const U256& a, std::uint64_t b) {
  U256 out;
  U256::sub(a, U256(b), out);
  return out;
}

/// 256 seeded random scalars of the curve's width, plus the window edges:
/// 0, 1, 2, 15, 16, 17, n-1, n, widths that are not a multiple of 4, and
/// runs of 0x0 and 0xF nibbles.
std::vector<U256> differential_scalars(const EcCurve& curve, std::uint64_t seed) {
  const std::size_t width = 8 * curve.coordinate_size();
  const U256& n = curve.order();
  std::vector<U256> ks = {U256(0),  U256(1),  U256(2),  U256(15),
                          U256(16), U256(17), sub_small(n, 1), n};
  ks.push_back(U256(0x1F));                   // 5 bits
  ks.push_back(U256(0x1'0000'0000'0001ULL));  // 49 bits
  ks.push_back(limbs4(0xFFFF'FFFF'FFFF'FFFFULL, 0, 0x0F00'0000'0000'00F0ULL, 0));
  ks.push_back(limbs4(0xF, 0, 0xF000'0000'0000'0000ULL, 0));
  ks.push_back(limbs4(0xFFFF'0000'FFFF'0000ULL, 0x0000'FFFF'0000'FFFFULL, 0, 0));
  Rng rng(seed);
  ks.push_back(random_scalar(rng, width - 3));
  for (int i = 0; i < 256; ++i) ks.push_back(random_scalar(rng, width));
  return ks;
}

/// Bits lo..hi-1 set, every other bit clear.
U256 bit_run(std::size_t lo, std::size_t hi) {
  std::array<std::uint64_t, 4> w{};
  for (std::size_t b = lo; b < hi; ++b) w[b / 64] |= std::uint64_t{1} << (b % 64);
  return U256(w);
}

/// differential_scalars plus the edges of the generator's 6-tooth comb
/// (ecdh.hpp), d = ceil(bitlen(n) / 6): 2^(j*d) - 1 and 2^(j*d) at every
/// tooth boundary j*d that fits in 256 bits, only the top tooth's bits set,
/// and 2^256 - 1. On P-192 2^192 and 2^256 - 1 do not fit the teeth, so they
/// take the window path.
std::vector<U256> generator_scalars(const EcCurve& curve, std::uint64_t seed) {
  std::vector<U256> ks = differential_scalars(curve, seed);
  const std::size_t d = (curve.order().bit_length() + 5) / 6;
  for (std::size_t j = 1; j <= 6 && j * d <= 256; ++j) {
    ks.push_back(bit_run(0, j * d));
    if (j * d < 256) ks.push_back(bit_run(j * d, j * d + 1));
  }
  ks.push_back(bit_run(5 * d, std::min<std::size_t>(6 * d, 256)));
  ks.push_back(bit_run(0, 256));
  return ks;
}

void expect_multiply_matches_reference(const EcCurve& curve, const EcPoint& point,
                                       const std::vector<U256>& ks) {
  const std::vector<EcPoint> expected = reference_multiply(curve, ks, point);
  for (std::size_t j = 0; j < ks.size(); ++j)
    EXPECT_EQ(curve.multiply(ks[j], point), expected[j])
        << curve.name() << " k=" << ks[j].to_hex();
}

TEST(EcDifferential, P256GeneratorMatchesAffineReference) {
  const auto& curve = EcCurve::p256();
  expect_multiply_matches_reference(curve, curve.generator(), generator_scalars(curve, 256));
}

TEST(EcDifferential, P256OtherPointMatchesAffineReference) {
  const auto& curve = EcCurve::p256();
  const EcPoint q = reference_multiply(curve, {U256(0xB1A9'2022ULL)}, curve.generator())[0];
  ASSERT_TRUE(curve.on_curve(q));
  expect_multiply_matches_reference(curve, q, differential_scalars(curve, 257));
}

TEST(EcDifferential, P192GeneratorMatchesAffineReference) {
  const auto& curve = EcCurve::p192();
  expect_multiply_matches_reference(curve, curve.generator(), generator_scalars(curve, 192));
}

TEST(EcDifferential, P192OtherPointMatchesAffineReference) {
  const auto& curve = EcCurve::p192();
  const EcPoint q = reference_multiply(curve, {U256(0xB1A9'2022ULL)}, curve.generator())[0];
  ASSERT_TRUE(curve.on_curve(q));
  expect_multiply_matches_reference(curve, q, differential_scalars(curve, 193));
}

// MontField against the Knuth-D helpers, in the plain domain.
void expect_field_matches_knuth_helpers(const U256& p) {
  const MontField f(p);
  const std::size_t width = p.bit_length();
  std::vector<U256> values = {U256(0), U256(1), sub_small(p, 1)};
  Rng rng(width);
  for (int i = 0; i < 64; ++i) values.push_back(mod(U512::widen(random_scalar(rng, width)), p));

  for (const U256& a : values) {
    const U256 am = f.to_mont(a);
    EXPECT_EQ(f.from_mont(am), a);
    if (!a.is_zero()) {
      EXPECT_EQ(f.from_mont(f.inv(am)), inv_mod_prime(a, p)) << a.to_hex();
    }
    for (const U256& b : values) {
      const U256 bm = f.to_mont(b);
      EXPECT_EQ(f.from_mont(f.mul(am, bm)), mul_mod(a, b, p)) << a.to_hex() << " " << b.to_hex();
      EXPECT_EQ(f.add(a, b), add_mod(a, b, p)) << a.to_hex() << " " << b.to_hex();
      EXPECT_EQ(f.sub(a, b), sub_mod(a, b, p)) << a.to_hex() << " " << b.to_hex();
    }
  }
}

TEST(MontFieldDifferential, P256PrimeMatchesKnuthHelpers) {
  expect_field_matches_knuth_helpers(EcCurve::p256().p());
}

TEST(MontFieldDifferential, P192PrimeMatchesKnuthHelpers) {
  expect_field_matches_knuth_helpers(EcCurve::p192().p());
}

}  // namespace
}  // namespace blap::crypto
