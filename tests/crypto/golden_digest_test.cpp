// Pins the byte-exact output of the P-256 / ECDSA / ECDH / handshake stack.
//
// One SHA-256 digest over a seeded sequence of 64 × (key pair from seed,
// ECDSA signature, verify results, ECDH shared secret) plus the traffic
// keys of one full TLS 1.3 handshake. Any change to the arithmetic that
// alters a single output bit — a wrong reduction, a scalar-multiplication
// edge case, a nonce-derivation slip — changes the digest.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/p256.hpp"
#include "crypto/sha256.hpp"
#include "tls/engine.hpp"

namespace smt::crypto {
namespace {

// Recorded on the bit-serial reference implementation (double-and-add
// scalar multiplication, Solinas field reduction, bit-serial mod-n).
constexpr const char* kGolden =
    "260adc3bddc45c26e3b825f1e9e4b7a82ca47436526a870d59a4d0681d715ddf";

void absorb_point(Sha256& h, const AffinePoint& pt) {
  h.update(encode_point(pt));
}

void absorb_keys(Sha256& h, const tls::TrafficKeys& keys) {
  h.update(keys.key);
  h.update(keys.iv);
}

std::string golden_digest() {
  HmacDrbg rng(to_bytes(std::string_view("p256-golden-digest")));
  Sha256 h;
  for (int i = 0; i < 64; ++i) {
    const EcdsaKeyPair signer = ecdsa_keypair_from_seed(rng.generate(32));
    const EcdhKeyPair peer = ecdh_keypair_from_seed(rng.generate(32));
    const Bytes message = rng.generate(std::size_t(1 + i));
    const auto d = signer.private_key.to_bytes();
    h.update(ByteView(d.data(), d.size()));
    absorb_point(h, signer.public_key);
    absorb_point(h, peer.public_key);

    const EcdsaSignature sig = ecdsa_sign(signer.private_key, message);
    h.update(sig.encode());
    EcdsaSignature bad = sig;
    bad.s.limbs[0] ^= std::uint64_t(1) << (i % 64);
    const std::uint8_t verdicts[3] = {
        std::uint8_t(ecdsa_verify(signer.public_key, message, sig)),
        std::uint8_t(ecdsa_verify(signer.public_key, message, bad)),
        std::uint8_t(ecdsa_verify(peer.public_key, message, sig))};
    h.update(ByteView(verdicts, sizeof(verdicts)));

    const auto shared = ecdh_shared_secret(signer.private_key, peer.public_key);
    EXPECT_TRUE(shared.has_value());
    if (shared) h.update(*shared);
  }

  auto ca = tls::CertificateAuthority::create("dc-root", rng);
  const EcdsaKeyPair server_key = ecdsa_keypair_from_seed(rng.generate(32));
  tls::CertChain chain;
  chain.certs.push_back(
      ca.issue("server", encode_point(server_key.public_key), 0, 1u << 30));
  tls::ClientConfig cc;
  cc.server_name = "server";
  cc.trusted_ca = ca.public_key();
  cc.now = 100;
  tls::ServerConfig sc;
  sc.chain = chain;
  sc.sig_key = server_key;
  sc.trusted_ca = ca.public_key();
  sc.now = 100;
  tls::ClientHandshake client(cc, rng);
  tls::ServerHandshake server(sc, rng);
  auto f1 = client.start();
  EXPECT_TRUE(f1.ok());
  auto sf = server.on_client_flight(f1.value());
  EXPECT_TRUE(sf.ok());
  auto f2 = client.on_server_flight(sf.value());
  EXPECT_TRUE(f2.ok());
  EXPECT_TRUE(server.on_client_finished(f2.value()).ok());
  absorb_keys(h, client.secrets().client_keys);
  absorb_keys(h, client.secrets().server_keys);
  absorb_keys(h, server.secrets().client_keys);
  absorb_keys(h, server.secrets().server_keys);

  const auto digest = h.finish();
  return to_hex(ByteView(digest.data(), digest.size()));
}

TEST(GoldenDigest, SeededSignVerifyEcdhAndHandshakeKeys) {
  EXPECT_EQ(golden_digest(), kGolden);
}

}  // namespace
}  // namespace smt::crypto
