// Isolated wall-clock probes of single layers' public functions. Each
// probe times many repetitions on seeded inputs, checks the result, and
// reports the median over batches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "apps/rpc.hpp"

namespace rpcbench {

/// One no-op schedule + run on an EventLoop holding `depth` other events.
double probe_event_ns(std::size_t depth);

/// smt::proto::build_wire_message in SMT-hw mode (NIC descriptors, no
/// software crypto) on a `bytes`-sized message.
double probe_wire_build_ns(std::size_t bytes, std::uint64_t seed);
/// smt::proto::open_wire_message (software decrypt) on the same size.
double probe_wire_open_ns(std::size_t bytes, std::uint64_t seed);

/// One full TLS 1.3 handshake (CA, certificate, both state machines), as
/// RpcFabric runs it during set-up.
double probe_handshake_ms(std::uint64_t seed);

struct SealOpen {
  double seal_ns_per_kib = 0;
  double open_ns_per_kib = 0;
};
/// tls::RecordProtection on full 16000-byte records.
SealOpen probe_record(std::uint64_t seed);
/// crypto::AesGcm on 16 KiB messages.
SealOpen probe_gcm(std::uint64_t seed);

/// stack::TopologyBuilder for the two-host testbed RpcFabric builds.
double probe_two_host_topology_ms(const smt::apps::RpcFabricConfig& config);

}  // namespace rpcbench
