// Fixed-width 256-bit unsigned integers and modular arithmetic for the
// P-256 implementation.
//
// Representation: four 64-bit limbs, least-significant first. Not
// constant-time — acceptable for a research reproduction running inside a
// simulator (documented in DESIGN.md); a production deployment would swap
// in a hardened implementation behind the same interface.
//
// Two layers:
//   - the Montgomery kernel (MontModulus, mont_*): word-level CIOS
//     multiplication with compile-time constants, used for every handshake
//     operation modulo the field prime p and the group order n;
//   - the generic bit-serial helpers (u512_mod, mod_*): any modulus, about
//     a hundred times slower. They remain as the independent reference the
//     tests check the kernel against; no handshake path calls them.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace smt::crypto {

struct U256 {
  // limbs[0] is least significant.
  std::array<std::uint64_t, 4> limbs{};

  static constexpr U256 zero() noexcept { return U256{}; }
  static constexpr U256 one() noexcept { return from_u64(1); }

  static constexpr U256 from_u64(std::uint64_t v) noexcept {
    U256 r;
    r.limbs[0] = v;
    return r;
  }

  /// Parses a 32-byte big-endian buffer.
  static U256 from_bytes(ByteView be32) noexcept;

  /// Parses a big-endian hex string of up to 64 digits; other characters
  /// (spaces in literals) are skipped.
  static constexpr U256 from_hex(std::string_view hex) noexcept {
    U256 r;
    for (const char c : hex) {
      int nib = -1;
      if (c >= '0' && c <= '9') nib = c - '0';
      if (c >= 'a' && c <= 'f') nib = c - 'a' + 10;
      if (c >= 'A' && c <= 'F') nib = c - 'A' + 10;
      if (nib < 0) continue;
      // r = r * 16 + nib
      std::uint64_t carry = std::uint64_t(nib);
      for (auto& limb : r.limbs) {
        const std::uint64_t out = limb >> 60;
        limb = (limb << 4) | carry;
        carry = out;
      }
    }
    return r;
  }

  /// Serialises to 32 bytes big-endian.
  std::array<std::uint8_t, 32> to_bytes() const noexcept;

  constexpr bool is_zero() const noexcept {
    return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
  }
  constexpr bool is_odd() const noexcept { return limbs[0] & 1; }

  constexpr bool bit(int i) const noexcept {
    return (limbs[std::size_t(i) / 64] >> (std::size_t(i) % 64)) & 1;
  }

  /// 4-bit digit i (0 = least significant) of the value, i in [0, 64).
  constexpr unsigned nibble(int i) const noexcept {
    return unsigned(limbs[std::size_t(i) / 16] >> (4 * (std::size_t(i) % 16))) &
           0xf;
  }

  /// Index of the highest set bit, or -1 if zero.
  int top_bit() const noexcept;

  friend constexpr bool operator==(const U256&, const U256&) = default;
};

/// a < b as unsigned 256-bit integers.
constexpr bool u256_less(const U256& a, const U256& b) noexcept {
  for (int i = 3; i >= 0; --i) {
    if (a.limbs[std::size_t(i)] != b.limbs[std::size_t(i)])
      return a.limbs[std::size_t(i)] < b.limbs[std::size_t(i)];
  }
  return false;
}

/// r = a + b; returns the carry out.
constexpr std::uint64_t u256_add(const U256& a, const U256& b,
                                 U256& r) noexcept {
  using u128 = unsigned __int128;
  u128 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    carry += u128(a.limbs[i]) + b.limbs[i];
    r.limbs[i] = std::uint64_t(carry);
    carry >>= 64;
  }
  return std::uint64_t(carry);
}

/// r = a - b; returns the borrow out.
constexpr std::uint64_t u256_sub(const U256& a, const U256& b,
                                 U256& r) noexcept {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::uint64_t d = a.limbs[i] - b.limbs[i];
    const std::uint64_t out = (a.limbs[i] < b.limbs[i]) | (d < borrow);
    r.limbs[i] = d - borrow;
    borrow = out;
  }
  return borrow;
}

// --- Montgomery kernel --------------------------------------------------

/// An odd modulus m < 2^256 with its Montgomery constants for R = 2^256.
/// A value x is held in Montgomery form as x·R mod m.
struct MontModulus {
  U256 m;
  std::uint64_t m0inv = 0;  // -m^-1 mod 2^64
  U256 one;                 // R mod m: Montgomery form of 1
  U256 r2;                  // R^2 mod m: to_mont multiplies by it
};

/// Builds the constants for an odd modulus m > 1 (any size: R mod m and
/// R^2 mod m come from 512 modular doublings of 1, never a division).
constexpr MontModulus make_mont_modulus(const U256& m) noexcept {
  MontModulus mm;
  mm.m = m;
  // Newton's iteration doubles the correct low bits of m^-1 each step:
  // 1 -> 2 -> ... -> 64 bits after six (m odd, so inv = 1 is right mod 2).
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m.limbs[0] * inv;
  mm.m0inv = 0 - inv;
  U256 x = U256::one();
  for (int i = 0; i < 512; ++i) {
    U256 doubled;
    const std::uint64_t carry = u256_add(x, x, doubled);
    if (carry || !u256_less(doubled, m)) u256_sub(doubled, m, doubled);
    x = doubled;
    if (i == 255) mm.one = x;
  }
  mm.r2 = x;
  return mm;
}

/// a·b·R^-1 mod m (CIOS, 64-bit limbs). The result is < m whenever
/// a·b < m·R, e.g. a < m and any b < 2^256. One operand in Montgomery form
/// and one plain gives the plain product.
template <const MontModulus& M>
constexpr U256 mont_mul(const U256& a, const U256& b) noexcept {
  using u128 = unsigned __int128;
  std::uint64_t t[6] = {};
  for (std::size_t i = 0; i < 4; ++i) {
    u128 acc = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      acc += u128(a.limbs[j]) * b.limbs[i] + t[j];
      t[j] = std::uint64_t(acc);
      acc >>= 64;
    }
    acc += t[4];
    t[4] = std::uint64_t(acc);
    t[5] = std::uint64_t(acc >> 64);

    const std::uint64_t q = t[0] * M.m0inv;
    acc = u128(q) * M.m.limbs[0] + t[0];
    acc >>= 64;
    for (std::size_t j = 1; j < 4; ++j) {
      acc += u128(q) * M.m.limbs[j] + t[j];
      t[j - 1] = std::uint64_t(acc);
      acc >>= 64;
    }
    acc += t[4];
    t[3] = std::uint64_t(acc);
    t[4] = t[5] + std::uint64_t(acc >> 64);
  }
  U256 r{{t[0], t[1], t[2], t[3]}};
  if (t[4] != 0 || !u256_less(r, M.m)) u256_sub(r, M.m, r);
  return r;
}

/// (a + b) mod m for a, b < m; valid in either domain.
template <const MontModulus& M>
constexpr U256 mont_add(const U256& a, const U256& b) noexcept {
  U256 r;
  const std::uint64_t carry = u256_add(a, b, r);
  if (carry || !u256_less(r, M.m)) u256_sub(r, M.m, r);
  return r;
}

/// (a - b) mod m for a, b < m; valid in either domain.
template <const MontModulus& M>
constexpr U256 mont_sub(const U256& a, const U256& b) noexcept {
  U256 r;
  if (u256_sub(a, b, r)) u256_add(r, M.m, r);
  return r;
}

/// x mod m for any x < 2^256, valid when m > 2^255 (p and n both are):
/// one conditional subtraction.
template <const MontModulus& M>
constexpr U256 reduce_once(const U256& x) noexcept {
  U256 r = x;
  if (!u256_less(r, M.m)) u256_sub(r, M.m, r);
  return r;
}

/// x·R mod m for any x < 2^256: x·(R^2 mod m) < R·m is all the kernel's
/// bound needs, so x may lie in [m, 2^256).
template <const MontModulus& M>
constexpr U256 to_mont(const U256& x) noexcept {
  return mont_mul<M>(x, M.r2);
}

template <const MontModulus& M>
constexpr U256 from_mont(const U256& x) noexcept {
  return mont_mul<M>(x, U256::one());
}

/// a^-1 in Montgomery form (a·R -> a^-1·R) for prime m, a != 0: Fermat
/// a^(m-2) with a 4-bit fixed window (256 squarings, 64 multiplications).
template <const MontModulus& M>
constexpr U256 mont_inv(const U256& a) noexcept {
  constexpr U256 exponent = [] {
    U256 e;
    u256_sub(M.m, U256::from_u64(2), e);
    return e;
  }();
  std::array<U256, 16> pow;  // pow[i] = a^i
  pow[0] = M.one;
  for (std::size_t i = 1; i < 16; ++i) pow[i] = mont_mul<M>(pow[i - 1], a);
  U256 r = M.one;
  for (int w = 63; w >= 0; --w) {
    for (int i = 0; i < 4; ++i) r = mont_mul<M>(r, r);
    r = mont_mul<M>(r, pow[exponent.nibble(w)]);
  }
  return r;
}

// --- Generic bit-serial reference helpers -------------------------------

/// Full 256x256 -> 512-bit product, 8 little-endian limbs.
struct U512 {
  std::array<std::uint64_t, 8> limbs{};
};

U512 u256_mul(const U256& a, const U256& b) noexcept;

/// Reduction of a 512-bit value modulo any nonzero m by bit-serial long
/// division (512 shift-and-subtract steps).
U256 u512_mod(const U512& v, const U256& m) noexcept;

/// Modular arithmetic modulo an arbitrary modulus m, built on u512_mod.
U256 mod_add(const U256& a, const U256& b, const U256& m) noexcept;
U256 mod_sub(const U256& a, const U256& b, const U256& m) noexcept;
U256 mod_mul(const U256& a, const U256& b, const U256& m) noexcept;
/// a^e mod m by square-and-multiply.
U256 mod_pow(const U256& a, const U256& e, const U256& m) noexcept;
/// a^-1 mod m for prime m (Fermat).
U256 mod_inv_prime(const U256& a, const U256& m) noexcept;

}  // namespace smt::crypto
