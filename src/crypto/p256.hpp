// NIST P-256 (secp256r1) elliptic-curve arithmetic: Montgomery-form field
// arithmetic, Jacobian point operations, windowed scalar multiplication,
// and ECDH.
//
// This backs the paper's key-exchange design (§4.5): TLS 1.3 uses ECDH on
// secp256r1 and ECDSA signatures with the secp256r1 signature algorithm.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "crypto/bignum.hpp"

namespace smt::crypto {

/// Montgomery constants for arithmetic modulo the field prime p and the
/// group order n (FIPS 186-4, D.1.2.3).
inline constexpr MontModulus kFieldP = make_mont_modulus(U256::from_hex(
    "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff"));
inline constexpr MontModulus kOrderN = make_mont_modulus(U256::from_hex(
    "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551"));

/// Curve parameters (FIPS 186-4, D.1.2.3), in plain (non-Montgomery) form.
struct P256 {
  static const U256& p() noexcept { return kFieldP.m; }  // field prime
  static const U256& n() noexcept { return kOrderN.m; }  // group order
  static const U256& b() noexcept;  // curve coefficient (a = -3)
  static const U256& gx() noexcept;
  static const U256& gy() noexcept;
};

/// Affine point in plain coordinates; infinity is `infinity == true`.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static AffinePoint at_infinity() noexcept { return AffinePoint{{}, {}, true}; }
  friend bool operator==(const AffinePoint&, const AffinePoint&) = default;
};

/// Scalar multiplication k * P with 4-bit fixed windows over a per-call
/// table of 1P..15P. Returns infinity for k == 0 (mod n).
AffinePoint scalar_mul(const U256& k, const AffinePoint& point) noexcept;

/// k * G for the standard base point: 64 additions from a 60 KiB table of
/// j·16^i·G, built once per process on first use.
AffinePoint scalar_mul_base(const U256& k) noexcept;

/// u1 * G + u2 * Q with shared doublings (Straus–Shamir) and a single
/// conversion to affine — the ECDSA verification equation.
AffinePoint double_scalar_mul_base(const U256& u1, const U256& u2,
                                   const AffinePoint& q) noexcept;

/// Point addition (affine interface; handles doubling and infinity).
AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) noexcept;

/// Validates that the point lies on the curve and is not infinity.
bool is_on_curve(const AffinePoint& pt) noexcept;

/// --- Wire encoding -------------------------------------------------------

/// Uncompressed SEC1 encoding: 0x04 || X || Y (65 bytes).
Bytes encode_point(const AffinePoint& pt);

/// Parses an uncompressed SEC1 point and validates curve membership.
std::optional<AffinePoint> decode_point(ByteView data);

/// --- ECDH ----------------------------------------------------------------

struct EcdhKeyPair {
  U256 private_key;       // scalar in [1, n-1]
  AffinePoint public_key; // private_key * G
};

/// Derives a key pair from 32 bytes of seed material (reduced into range).
EcdhKeyPair ecdh_keypair_from_seed(ByteView seed32);

/// ECDH shared secret: X coordinate of d * Q, 32 bytes big-endian.
/// Returns nullopt if the peer point is invalid.
std::optional<Bytes> ecdh_shared_secret(const U256& private_key,
                                        const AffinePoint& peer_public);

}  // namespace smt::crypto
