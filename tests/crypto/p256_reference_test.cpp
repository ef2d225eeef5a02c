// Differential tests of P-256 scalar multiplication: the windowed
// variable-base path, the fixed-base table path, and the Straus–Shamir
// double multiplication against a plain double-and-add reference written
// here on the bit-serial generic arithmetic (mod_mul / mod_inv_prime), so
// it shares no field or point code with src/crypto/p256.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/p256.hpp"

namespace smt::crypto {
namespace {

const U256& p() { return P256::p(); }

U256 add(const U256& a, const U256& b) { return mod_add(a, b, p()); }
U256 sub(const U256& a, const U256& b) { return mod_sub(a, b, p()); }
U256 mul(const U256& a, const U256& b) { return mod_mul(a, b, p()); }

/// Textbook Jacobian point (X, Y, Z), x = X/Z^2, y = Y/Z^3.
struct RefPoint {
  U256 x, y, z;
  bool infinity = true;
};

RefPoint ref_double(const RefPoint& pt) {
  if (pt.infinity || pt.y.is_zero()) return RefPoint{};
  // S = 4XY^2, M = 3X^2 + a·Z^4 with a = -3, X' = M^2 - 2S,
  // Y' = M(S - X') - 8Y^4, Z' = 2YZ.
  const U256 y2 = mul(pt.y, pt.y);
  const U256 s = mul(U256::from_u64(4), mul(pt.x, y2));
  const U256 z2 = mul(pt.z, pt.z);
  const U256 m = sub(mul(U256::from_u64(3), mul(pt.x, pt.x)),
                     mul(U256::from_u64(3), mul(z2, z2)));
  RefPoint out;
  out.infinity = false;
  out.x = sub(mul(m, m), add(s, s));
  out.y = sub(mul(m, sub(s, out.x)), mul(U256::from_u64(8), mul(y2, y2)));
  out.z = mul(U256::from_u64(2), mul(pt.y, pt.z));
  return out;
}

RefPoint ref_add_affine(const RefPoint& a, const AffinePoint& b) {
  if (b.infinity) return a;
  if (a.infinity) return RefPoint{b.x, b.y, U256::one(), false};
  const U256 z2 = mul(a.z, a.z);
  const U256 h = sub(mul(b.x, z2), a.x);
  const U256 r = sub(mul(b.y, mul(z2, a.z)), a.y);
  if (h.is_zero()) return r.is_zero() ? ref_double(a) : RefPoint{};
  const U256 h2 = mul(h, h);
  const U256 h3 = mul(h2, h);
  const U256 u1h2 = mul(a.x, h2);
  RefPoint out;
  out.infinity = false;
  out.x = sub(sub(mul(r, r), h3), add(u1h2, u1h2));
  out.y = sub(mul(r, sub(u1h2, out.x)), mul(a.y, h3));
  out.z = mul(h, a.z);
  return out;
}

AffinePoint ref_to_affine(const RefPoint& pt) {
  if (pt.infinity) return AffinePoint::at_infinity();
  const U256 zi = mod_inv_prime(pt.z, p());
  const U256 zi2 = mul(zi, zi);
  return AffinePoint{mul(pt.x, zi2), mul(pt.y, mul(zi2, zi)), false};
}

/// Left-to-right double-and-add, one bit at a time.
AffinePoint ref_scalar_mul(const U256& k, const AffinePoint& pt) {
  RefPoint acc;
  for (int i = k.top_bit(); i >= 0; --i) {
    acc = ref_double(acc);
    if (k.bit(i)) acc = ref_add_affine(acc, pt);
  }
  return ref_to_affine(acc);
}

U256 minus(const U256& a, std::uint64_t b) {
  U256 r;
  u256_sub(a, U256::from_u64(b), r);
  return r;
}

std::vector<U256> edge_scalars() {
  U256 two_255;
  two_255.limbs[3] = std::uint64_t(1) << 63;
  return {U256::from_u64(1),  U256::from_u64(2), U256::from_u64(15),
          U256::from_u64(16), U256::from_u64(17), two_255,
          minus(P256::n(), 2), minus(P256::n(), 1)};
}

const AffinePoint kG{P256::gx(), P256::gy(), false};

AffinePoint negate(const AffinePoint& pt) {
  return AffinePoint{pt.x, sub(U256::zero(), pt.y), false};
}

TEST(P256Reference, ReferenceSanity) {
  // 2G from the standard P-256 test data; (n-1)G = -G.
  const AffinePoint g2 = ref_scalar_mul(U256::from_u64(2), kG);
  EXPECT_EQ(g2.x, U256::from_hex(
      "7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978"));
  EXPECT_EQ(ref_scalar_mul(minus(P256::n(), 1), kG), negate(kG));
}

TEST(P256Reference, FixedBaseTableMatchesDoubleAndAdd) {
  for (const U256& k : edge_scalars()) {
    EXPECT_EQ(scalar_mul_base(k), ref_scalar_mul(k, kG))
        << to_hex(ByteView(k.to_bytes().data(), 32));
  }
}

TEST(P256Reference, WindowedVariableBaseMatchesDoubleAndAdd) {
  // A base point other than G, derived with the reference itself.
  const AffinePoint q = ref_scalar_mul(
      U256::from_hex("9d2f3c7a61b0e4d58c1a2b3c4d5e6f708192a3b4c5d6e7f8"), kG);
  ASSERT_TRUE(is_on_curve(q));
  for (const U256& k : edge_scalars()) {
    EXPECT_EQ(scalar_mul(k, q), ref_scalar_mul(k, q))
        << to_hex(ByteView(k.to_bytes().data(), 32));
    EXPECT_EQ(scalar_mul(k, kG), scalar_mul_base(k));
  }
}

TEST(P256Reference, RandomScalarsMatchDoubleAndAdd) {
  Rng rng(12);
  const AffinePoint q = ref_scalar_mul(U256::from_u64(0xabcdef12345ULL), kG);
  for (int i = 0; i < 4; ++i) {
    U256 k;
    for (auto& limb : k.limbs) limb = rng.next();
    EXPECT_EQ(scalar_mul_base(k), ref_scalar_mul(k, kG)) << "iteration " << i;
    EXPECT_EQ(scalar_mul(k, q), ref_scalar_mul(k, q)) << "iteration " << i;
  }
}

TEST(P256Reference, ShamirMatchesTwoSeparateMultiplications) {
  Rng rng(13);
  const AffinePoint q = scalar_mul_base(U256::from_u64(0x5eed));
  for (int i = 0; i < 16; ++i) {
    U256 u1, u2;
    for (auto& limb : u1.limbs) limb = rng.next();
    for (auto& limb : u2.limbs) limb = rng.next();
    EXPECT_EQ(double_scalar_mul_base(u1, u2, q),
              point_add(scalar_mul_base(u1), scalar_mul(u2, q)))
        << "iteration " << i;
  }
  for (const U256& k : edge_scalars()) {
    EXPECT_EQ(double_scalar_mul_base(k, U256::zero(), q), scalar_mul_base(k));
    EXPECT_EQ(double_scalar_mul_base(U256::zero(), k, q), scalar_mul(k, q));
    // u1·G == u2·Q takes the doubling branch of the mixed addition.
    EXPECT_EQ(double_scalar_mul_base(k, k, kG),
              scalar_mul_base(mod_add(k, k, P256::n())));
    // u1·G == -(u2·Q) cancels to infinity.
    EXPECT_TRUE(
        double_scalar_mul_base(k, U256::one(), negate(scalar_mul_base(k)))
            .infinity);
  }
}

}  // namespace
}  // namespace smt::crypto
