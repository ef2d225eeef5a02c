#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/gcm.hpp"
#include "crypto/p256.hpp"
#include "netsim/event.hpp"
#include "smt/wire.hpp"
#include "stack/topology.hpp"
#include "tls/cert.hpp"
#include "tls/engine.hpp"
#include "tls/record.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace rpcbench {

using smt::Bytes;
using smt::ByteView;

namespace {

constexpr int kBatches = 9;

[[noreturn]] void probe_failed(const char* what) {
  std::fprintf(stderr, "rpcbench: probe %s produced a wrong result\n", what);
  std::exit(2);
}

/// Median over kBatches of the mean ns per `op()` in a batch of `reps`.
template <typename Op>
double per_op_ns(int reps, Op&& op) {
  op();  // warm caches and lazy state
  std::vector<double> batches;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < reps; ++i) op();
    batches.push_back(double(wall_ns() - t0) / reps);
  }
  return median(batches);
}

Bytes seeded_bytes(std::uint64_t seed, std::size_t size) {
  return make_request(seed, 1, size);
}

smt::tls::TrafficKeys seeded_keys(std::uint64_t seed) {
  const Bytes material = seeded_bytes(seed, 28);
  return {Bytes(material.begin(), material.begin() + 16),
          Bytes(material.begin() + 16, material.end())};
}

}  // namespace

double probe_event_ns(std::size_t depth) {
  constexpr int kSteps = 20000;
  smt::sim::EventLoop loop;
  // Background events far beyond the probe's horizon set the heap depth.
  const smt::SimTime far = smt::SimTime(1) << 50;
  for (std::size_t i = 0; i < depth; ++i) {
    loop.schedule_at(far + smt::SimTime(i), [] {});
  }
  int left = 0;
  std::function<void()> step;  // re-schedules itself: one push + one pop
  step = [&] {
    if (--left > 0) loop.schedule(1, [&] { step(); });
  };
  return per_op_ns(1, [&] {
           left = kSteps;
           loop.schedule(1, [&] { step(); });
           loop.run_until(loop.now() + kSteps + 1);
           if (left != 0) probe_failed("event");
         }) /
         kSteps;
}

double probe_wire_build_ns(std::size_t bytes, std::uint64_t seed) {
  const smt::tls::RecordProtection protection(
      smt::tls::CipherSuite::aes_128_gcm_sha256, seeded_keys(seed));
  const Bytes plaintext = seeded_bytes(seed, bytes);
  smt::proto::SegmenterConfig config;
  config.hardware_crypto = true;
  std::uint64_t msg_id = 1;
  const int reps = std::max(1, int(65536 / (bytes + 64)));
  return per_op_ns(reps, [&] {
    auto wire = smt::proto::build_wire_message(config, protection, msg_id++,
                                               plaintext);
    if (!wire.ok() || wire.value().segments.empty()) probe_failed("wire");
  });
}

double probe_wire_open_ns(std::size_t bytes, std::uint64_t seed) {
  const smt::tls::RecordProtection protection(
      smt::tls::CipherSuite::aes_128_gcm_sha256, seeded_keys(seed));
  const Bytes plaintext = seeded_bytes(seed, bytes);
  smt::proto::SegmenterConfig config;  // software mode: real ciphertext
  auto built = smt::proto::build_wire_message(config, protection, 7, plaintext);
  if (!built.ok()) probe_failed("wire");
  Bytes wire;
  for (const auto& segment : built.value().segments) {
    wire.insert(wire.end(), segment.payload.begin(), segment.payload.end());
  }
  const int reps = std::max(1, int(16384 / (bytes + 64)));
  return per_op_ns(reps, [&] {
    auto opened =
        smt::proto::open_wire_message(config.layout, protection, 7, wire);
    if (!opened.ok() || opened.value() != plaintext) probe_failed("wire open");
  });
}

double probe_handshake_ms(std::uint64_t seed) {
  const Bytes seed_material = seeded_bytes(seed, 32);
  smt::crypto::HmacDrbg rng(seed_material);
  std::vector<double> runs;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = wall_ns();
    auto ca = smt::tls::CertificateAuthority::create("dc-root", rng);
    const auto server_key =
        smt::crypto::ecdsa_keypair_from_seed(rng.generate(32));
    smt::tls::CertChain chain;
    chain.certs.push_back(
        ca.issue("server", smt::crypto::encode_point(server_key.public_key),
                 0, 1u << 30));
    smt::tls::ClientConfig cc;
    cc.server_name = "server";
    cc.trusted_ca = ca.public_key();
    cc.now = 100;
    smt::tls::ServerConfig sc;
    sc.chain = chain;
    sc.sig_key = server_key;
    sc.trusted_ca = ca.public_key();
    sc.now = 100;
    smt::tls::ClientHandshake client(cc, rng);
    smt::tls::ServerHandshake server(sc, rng);
    auto first = client.start();
    if (!first.ok()) probe_failed("handshake");
    auto server_flight = server.on_client_flight(first.value());
    if (!server_flight.ok()) probe_failed("handshake");
    auto finished = client.on_server_flight(server_flight.value());
    if (!finished.ok()) probe_failed("handshake");
    if (!server.on_client_finished(finished.value()).ok() || !client.done() ||
        !server.done()) {
      probe_failed("handshake");
    }
    runs.push_back(double(wall_ns() - t0) / 1e6);
  }
  return median(runs);
}

SealOpen probe_record(std::uint64_t seed) {
  constexpr std::size_t kRecord = 16000;
  const smt::tls::RecordProtection protection(
      smt::tls::CipherSuite::aes_128_gcm_sha256, seeded_keys(seed));
  const Bytes payload = seeded_bytes(seed, kRecord);
  const Bytes sealed =
      protection.seal(3, smt::tls::ContentType::application_data, payload);
  std::uint64_t seq = 0;
  SealOpen r;
  r.seal_ns_per_kib =
      per_op_ns(4, [&] {
        if (protection.seal(seq++, smt::tls::ContentType::application_data,
                            payload).size() <= kRecord) {
          probe_failed("record seal");
        }
      }) /
      (double(kRecord) / 1024.0);
  r.open_ns_per_kib = per_op_ns(4, [&] {
                        auto opened = protection.open(3, sealed);
                        if (!opened.ok() || opened.value().payload != payload) {
                          probe_failed("record open");
                        }
                      }) /
                      (double(kRecord) / 1024.0);
  return r;
}

SealOpen probe_gcm(std::uint64_t seed) {
  constexpr std::size_t kMessage = 16 * 1024;
  const smt::tls::TrafficKeys keys = seeded_keys(seed);
  const smt::crypto::AesGcm gcm(keys.key);
  const Bytes plaintext = seeded_bytes(seed, kMessage);
  const Bytes aad(13, 0x17);
  const Bytes sealed = gcm.seal(keys.iv, aad, plaintext);
  SealOpen r;
  r.seal_ns_per_kib = per_op_ns(4, [&] {
                        if (gcm.seal(keys.iv, aad, plaintext).size() !=
                            kMessage + smt::crypto::AesGcm::kTagSize) {
                          probe_failed("gcm seal");
                        }
                      }) /
                      (double(kMessage) / 1024.0);
  r.open_ns_per_kib = per_op_ns(4, [&] {
                        auto opened = gcm.open(keys.iv, aad, sealed);
                        if (!opened || *opened != plaintext) {
                          probe_failed("gcm open");
                        }
                      }) /
                      (double(kMessage) / 1024.0);
  return r;
}

double probe_two_host_topology_ms(const smt::apps::RpcFabricConfig& config) {
  std::vector<double> runs;
  for (int i = 0; i < kBatches; ++i) {
    smt::sim::EventLoop loop;
    const std::int64_t t0 = wall_ns();
    smt::stack::TopologyBuilder builder(smt::apps::to_scenario(config));
    builder.host_config(0, smt::apps::host_config_of(config,
                                                     config.client_app_cores));
    builder.host_config(1, smt::apps::host_config_of(config,
                                                     config.server_app_cores));
    auto built = builder.build(loop);
    if (!built.ok()) probe_failed("topology");
    runs.push_back(double(wall_ns() - t0) / 1e6);
  }
  return median(runs);
}

}  // namespace rpcbench
