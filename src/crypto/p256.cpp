#include "crypto/p256.hpp"

#include <cassert>

namespace smt::crypto {

namespace {

constexpr U256 kB = U256::from_hex(
    "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
constexpr U256 kGx = U256::from_hex(
    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
constexpr U256 kGy = U256::from_hex(
    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");

// Field arithmetic modulo p. Everything below holds coordinates in
// Montgomery form; conversion happens only at the public API boundary.
U256 fp_add(const U256& a, const U256& b) noexcept {
  return mont_add<kFieldP>(a, b);
}
U256 fp_sub(const U256& a, const U256& b) noexcept {
  return mont_sub<kFieldP>(a, b);
}
U256 fp_mul(const U256& a, const U256& b) noexcept {
  return mont_mul<kFieldP>(a, b);
}
U256 fp_sqr(const U256& a) noexcept { return mont_mul<kFieldP>(a, a); }

constexpr U256 kBMont = to_mont<kFieldP>(kB);

/// Affine point in Montgomery coordinates; never infinity.
struct MontAffine {
  U256 x, y;
};

/// Jacobian projective point in Montgomery coordinates: (X, Y, Z) with
/// x = X/Z^2, y = Y/Z^3.
struct JacPoint {
  U256 x, y, z;
  bool infinity = true;
};

/// 1·P .. 15·P: the addends for one 4-bit window digit (index digit - 1).
using WindowRow = std::array<MontAffine, 15>;

MontAffine to_mont_affine(const AffinePoint& pt) noexcept {
  return MontAffine{to_mont<kFieldP>(pt.x), to_mont<kFieldP>(pt.y)};
}

JacPoint to_jacobian(const MontAffine& pt) noexcept {
  return JacPoint{pt.x, pt.y, kFieldP.one, false};
}

AffinePoint to_affine(const JacPoint& pt) noexcept {
  if (pt.infinity) return AffinePoint::at_infinity();
  const U256 z_inv = mont_inv<kFieldP>(pt.z);
  const U256 z_inv2 = fp_sqr(z_inv);
  const U256 z_inv3 = fp_mul(z_inv2, z_inv);
  return AffinePoint{from_mont<kFieldP>(fp_mul(pt.x, z_inv2)),
                     from_mont<kFieldP>(fp_mul(pt.y, z_inv3)), false};
}

/// Point doubling in Jacobian coordinates (a = -3 optimisation).
JacPoint jac_double(const JacPoint& pt) noexcept {
  if (pt.infinity || pt.y.is_zero()) return JacPoint{};
  // delta = Z^2, gamma = Y^2, beta = X*gamma
  const U256 delta = fp_sqr(pt.z);
  const U256 gamma = fp_sqr(pt.y);
  const U256 beta = fp_mul(pt.x, gamma);
  // alpha = 3*(X - delta)*(X + delta)   [uses a = -3]
  const U256 t1 = fp_sub(pt.x, delta);
  const U256 t2 = fp_add(pt.x, delta);
  const U256 t3 = fp_mul(t1, t2);
  const U256 alpha = fp_add(fp_add(t3, t3), t3);

  JacPoint out;
  out.infinity = false;
  // X3 = alpha^2 - 8*beta
  const U256 beta2 = fp_add(beta, beta);
  const U256 beta4 = fp_add(beta2, beta2);
  const U256 beta8 = fp_add(beta4, beta4);
  out.x = fp_sub(fp_sqr(alpha), beta8);
  // Z3 = (Y + Z)^2 - gamma - delta
  const U256 yz = fp_add(pt.y, pt.z);
  out.z = fp_sub(fp_sub(fp_sqr(yz), gamma), delta);
  // Y3 = alpha*(4*beta - X3) - 8*gamma^2
  const U256 g2 = fp_sqr(gamma);
  const U256 g2_2 = fp_add(g2, g2);
  const U256 g2_4 = fp_add(g2_2, g2_2);
  const U256 g2_8 = fp_add(g2_4, g2_4);
  out.y = fp_sub(fp_mul(alpha, fp_sub(beta4, out.x)), g2_8);
  return out;
}

/// Mixed addition: Jacobian + affine (Z2 = 1).
JacPoint jac_add_affine(const JacPoint& a, const MontAffine& b) noexcept {
  if (a.infinity) return to_jacobian(b);

  const U256 z1z1 = fp_sqr(a.z);
  const U256 u2 = fp_mul(b.x, z1z1);
  const U256 s2 = fp_mul(fp_mul(b.y, z1z1), a.z);
  const U256 h = fp_sub(u2, a.x);
  const U256 r = fp_sub(s2, a.y);

  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(a);
    return JacPoint{};  // P + (-P) = infinity
  }

  const U256 h2 = fp_sqr(h);
  const U256 h3 = fp_mul(h2, h);
  const U256 v = fp_mul(a.x, h2);

  JacPoint out;
  out.infinity = false;
  // X3 = r^2 - h^3 - 2v
  out.x = fp_sub(fp_sub(fp_sqr(r), h3), fp_add(v, v));
  // Y3 = r*(v - X3) - Y1*h^3
  out.y = fp_sub(fp_mul(r, fp_sub(v, out.x)), fp_mul(a.y, h3));
  // Z3 = Z1 * h
  out.z = fp_mul(a.z, h);
  return out;
}

/// Fills row[j-1] = j·P for j = 1..15 and returns 16·P, all affine, with
/// one field inversion shared by the sixteen points (Montgomery's trick).
/// P has prime order n > 16, so no multiple is infinity.
MontAffine fill_window_row(const MontAffine& p, WindowRow& row) noexcept {
  std::array<JacPoint, 16> jac;
  jac[0] = to_jacobian(p);
  for (std::size_t i = 1; i < jac.size(); ++i)
    jac[i] = jac_add_affine(jac[i - 1], p);

  std::array<U256, 16> prefix;  // prefix[i] = Z_0 * ... * Z_i
  prefix[0] = jac[0].z;
  for (std::size_t i = 1; i < jac.size(); ++i)
    prefix[i] = fp_mul(prefix[i - 1], jac[i].z);
  U256 inv = mont_inv<kFieldP>(prefix.back());  // (Z_0 * ... * Z_i)^-1

  MontAffine sixteen{};
  for (std::size_t i = jac.size(); i-- > 0;) {
    const U256 z_inv = i > 0 ? fp_mul(inv, prefix[i - 1]) : inv;
    if (i > 0) inv = fp_mul(inv, jac[i].z);
    const U256 z_inv2 = fp_sqr(z_inv);
    const MontAffine pt{fp_mul(jac[i].x, z_inv2),
                        fp_mul(jac[i].y, fp_mul(z_inv2, z_inv))};
    if (i < row.size()) {
      row[i] = pt;
    } else {
      sixteen = pt;
    }
  }
  return sixteen;
}

/// comb[i][j-1] = j·16^i·G: 64 rows × 15 points × 64 B = 60 KiB. k·G is
/// then the sum of one entry per nonzero 4-bit digit of k, no doublings.
using CombTable = std::array<WindowRow, 64>;

const CombTable& comb_table() noexcept {
  static const CombTable table = [] {
    CombTable t;
    MontAffine base = to_mont_affine(AffinePoint{kGx, kGy, false});
    for (WindowRow& row : t) base = fill_window_row(base, row);
    return t;
  }();
  return table;
}

void add_digit(JacPoint& acc, const WindowRow& row, unsigned digit) noexcept {
  if (digit != 0) acc = jac_add_affine(acc, row[digit - 1]);
}

}  // namespace

const U256& P256::b() noexcept { return kB; }
const U256& P256::gx() noexcept { return kGx; }
const U256& P256::gy() noexcept { return kGy; }

AffinePoint scalar_mul(const U256& k, const AffinePoint& point) noexcept {
  if (k.is_zero() || point.infinity) return AffinePoint::at_infinity();
  WindowRow row;
  fill_window_row(to_mont_affine(point), row);
  JacPoint acc{};  // infinity
  for (int w = 63; w >= 0; --w) {
    for (int i = 0; i < 4; ++i) acc = jac_double(acc);
    add_digit(acc, row, k.nibble(w));
  }
  return to_affine(acc);
}

AffinePoint scalar_mul_base(const U256& k) noexcept {
  const CombTable& comb = comb_table();
  JacPoint acc{};
  for (int w = 0; w < 64; ++w) add_digit(acc, comb[std::size_t(w)], k.nibble(w));
  return to_affine(acc);
}

AffinePoint double_scalar_mul_base(const U256& u1, const U256& u2,
                                   const AffinePoint& q) noexcept {
  if (q.infinity) return scalar_mul_base(u1);
  const WindowRow& g_row = comb_table()[0];
  WindowRow q_row;
  fill_window_row(to_mont_affine(q), q_row);
  JacPoint acc{};
  for (int w = 63; w >= 0; --w) {
    for (int i = 0; i < 4; ++i) acc = jac_double(acc);
    add_digit(acc, g_row, u1.nibble(w));
    add_digit(acc, q_row, u2.nibble(w));
  }
  return to_affine(acc);
}

AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) noexcept {
  if (a.infinity) return b;
  if (b.infinity) return a;
  return to_affine(
      jac_add_affine(to_jacobian(to_mont_affine(a)), to_mont_affine(b)));
}

bool is_on_curve(const AffinePoint& pt) noexcept {
  if (pt.infinity) return false;
  if (!u256_less(pt.x, P256::p()) || !u256_less(pt.y, P256::p())) return false;
  // y^2 == x^3 - 3x + b
  const MontAffine m = to_mont_affine(pt);
  const U256 y2 = fp_sqr(m.y);
  const U256 x3 = fp_mul(fp_sqr(m.x), m.x);
  const U256 three_x = fp_add(fp_add(m.x, m.x), m.x);
  const U256 rhs = fp_add(fp_sub(x3, three_x), kBMont);
  return y2 == rhs;
}

Bytes encode_point(const AffinePoint& pt) {
  assert(!pt.infinity && "cannot encode the point at infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const auto x = pt.x.to_bytes();
  const auto y = pt.y.to_bytes();
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<AffinePoint> decode_point(ByteView data) {
  if (data.size() != 65 || data[0] != 0x04) return std::nullopt;
  AffinePoint pt;
  pt.infinity = false;
  pt.x = U256::from_bytes(data.subspan(1, 32));
  pt.y = U256::from_bytes(data.subspan(33, 32));
  if (!is_on_curve(pt)) return std::nullopt;
  return pt;
}

EcdhKeyPair ecdh_keypair_from_seed(ByteView seed32) {
  assert(seed32.size() == 32);
  // Reduce into [1, n-1]. A zero scalar after reduction is vanishingly
  // unlikely; bump to 1 so the API has no failure mode.
  U256 d = reduce_once<kOrderN>(U256::from_bytes(seed32));
  if (d.is_zero()) d = U256::one();
  return EcdhKeyPair{d, scalar_mul_base(d)};
}

std::optional<Bytes> ecdh_shared_secret(const U256& private_key,
                                        const AffinePoint& peer_public) {
  if (!is_on_curve(peer_public)) return std::nullopt;
  const AffinePoint shared = scalar_mul(private_key, peer_public);
  if (shared.infinity) return std::nullopt;
  const auto x = shared.x.to_bytes();
  return Bytes(x.begin(), x.end());
}

}  // namespace smt::crypto
