// Differential tests of the Montgomery kernel (crypto/bignum.hpp) against
// the generic bit-serial reference (u512_mod / mod_mul / mod_pow), modulo
// the P-256 field prime p, the group order n, and small odd moduli.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/bignum.hpp"
#include "crypto/p256.hpp"

namespace smt::crypto {
namespace {

// Small and oddly shaped moduli: set-up must terminate and agree with the
// reference for any odd m > 1, not only for 256-bit moduli.
constexpr MontModulus kSeven = make_mont_modulus(U256::from_u64(7));
constexpr MontModulus kHundredOne = make_mont_modulus(U256::from_u64(101));
constexpr MontModulus kBillionSeven =
    make_mont_modulus(U256::from_u64(1000000007));
constexpr MontModulus kTwo64Plus1 =
    make_mont_modulus(U256::from_hex("10000000000000001"));

U256 random_u256(Rng& rng) {
  U256 v;
  for (auto& limb : v.limbs) limb = rng.next();
  return v;
}

U256 ref_mod(const U256& x, const U256& m) {
  U512 wide{};
  for (std::size_t i = 0; i < 4; ++i) wide.limbs[i] = x.limbs[i];
  return u512_mod(wide, m);
}

U256 minus(const U256& a, std::uint64_t b) {
  U256 r;
  u256_sub(a, U256::from_u64(b), r);
  return r;
}

/// 0, 1, 2, n-2, n-1, p-2, p-1, and values in [m, 2^256).
std::vector<U256> edge_inputs(const U256& m) {
  const U256 all_ones = U256::from_hex(
      "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  U256 m_plus_1;
  u256_add(m, U256::one(), m_plus_1);
  return {U256::zero(),           U256::one(),
          U256::from_u64(2),      minus(P256::n(), 2),
          minus(P256::n(), 1),    P256::n(),
          minus(P256::p(), 2),    minus(P256::p(), 1),
          P256::p(),              m_plus_1,
          all_ones,               minus(all_ones, 1)};
}

template <const MontModulus& M>
void check_large_modulus(std::uint64_t seed) {
  const U256& m = M.m;
  Rng rng(seed);
  std::vector<U256> inputs = edge_inputs(m);
  for (int i = 0; i < 24; ++i) inputs.push_back(random_u256(rng));

  // Constants.
  U512 r_wide{};
  r_wide.limbs[4] = 1;  // 2^256
  EXPECT_EQ(M.one, u512_mod(r_wide, m));
  EXPECT_EQ(M.r2, mod_mul(M.one, M.one, m));
  EXPECT_EQ(std::uint64_t(M.m0inv * m.limbs[0]), ~std::uint64_t(0));

  std::vector<U256> reduced;
  for (const U256& x : inputs) {
    const U256 xr = reduce_once<M>(x);
    EXPECT_EQ(xr, ref_mod(x, m));
    // to_mont accepts unreduced input in [m, 2^256) directly.
    EXPECT_EQ(to_mont<M>(x), to_mont<M>(xr));
    EXPECT_EQ(from_mont<M>(to_mont<M>(x)), xr);
    reduced.push_back(xr);
  }

  for (const U256& a : reduced) {
    for (const U256& b : reduced) {
      EXPECT_EQ(from_mont<M>(mont_mul<M>(to_mont<M>(a), to_mont<M>(b))),
                mod_mul(a, b, m));
      // Mixed form: Montgomery times plain is the plain product.
      EXPECT_EQ(mont_mul<M>(to_mont<M>(a), b), mod_mul(a, b, m));
      EXPECT_EQ(mont_add<M>(a, b), mod_add(a, b, m));
      EXPECT_EQ(mont_sub<M>(a, b), mod_sub(a, b, m));
    }
  }

  for (const U256& a : reduced) {
    if (a.is_zero()) continue;
    const U256 inv = from_mont<M>(mont_inv<M>(to_mont<M>(a)));
    EXPECT_EQ(inv, mod_inv_prime(a, m));
    EXPECT_EQ(mod_mul(a, inv, m), U256::one());
  }
}

TEST(Montgomery, FieldPrimeMatchesBitSerialReference) {
  check_large_modulus<kFieldP>(101);
}

TEST(Montgomery, GroupOrderMatchesBitSerialReference) {
  check_large_modulus<kOrderN>(202);
}

template <const MontModulus& M>
void check_small_modulus(std::uint64_t seed, bool prime) {
  const U256& m = M.m;
  U512 r_wide{};
  r_wide.limbs[4] = 1;
  EXPECT_EQ(M.one, u512_mod(r_wide, m));
  EXPECT_EQ(M.r2, mod_mul(M.one, M.one, m));
  Rng rng(seed);
  for (int i = 0; i < 64; ++i) {
    const U256 a = ref_mod(random_u256(rng), m);
    const U256 b = ref_mod(random_u256(rng), m);
    EXPECT_EQ(from_mont<M>(mont_mul<M>(to_mont<M>(a), to_mont<M>(b))),
              mod_mul(a, b, m));
    if (prime && !a.is_zero()) {
      EXPECT_EQ(from_mont<M>(mont_inv<M>(to_mont<M>(a))),
                mod_inv_prime(a, m));
    }
  }
}

TEST(Montgomery, SmallOddModuli) {
  check_small_modulus<kSeven>(1, true);
  check_small_modulus<kHundredOne>(2, true);
  check_small_modulus<kBillionSeven>(3, true);
  check_small_modulus<kTwo64Plus1>(4, false);
}

TEST(Montgomery, SevenExhaustive) {
  for (std::uint64_t a = 0; a < 7; ++a) {
    for (std::uint64_t b = 0; b < 7; ++b) {
      const U256 am = to_mont<kSeven>(U256::from_u64(a));
      const U256 bm = to_mont<kSeven>(U256::from_u64(b));
      EXPECT_EQ(from_mont<kSeven>(mont_mul<kSeven>(am, bm)),
                U256::from_u64(a * b % 7));
    }
  }
}

TEST(Montgomery, ConstantsAreCompileTime) {
  static_assert(kFieldP.m0inv == 1);  // p = -1 mod 2^64
  static_assert(from_mont<kOrderN>(to_mont<kOrderN>(U256::from_u64(5))) ==
                U256::from_u64(5));
  static_assert(kSeven.one == U256::from_u64(2));  // 2^256 = 2^(3·85+1)
  SUCCEED();
}

}  // namespace
}  // namespace smt::crypto
