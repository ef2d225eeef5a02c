// The benchmark's workloads and the closed-loop episode that runs one of
// them through the public apps::RpcFabric / RpcChannel API.
//
// An episode is one deterministic simulation: build the fabric, issue
// `warmup + measured + tail` RPCs closed loop, run the event loop until
// every RPC completed. Its simulated results depend only on the workload,
// its inputs and the shard count, so repeating an episode must reproduce
// its digest; only the wall-clock figures differ between repetitions.
//
// A run's seed derives `simulations` independent inputs, and the run's
// simulated metrics pool them: a single simulation's tail under incast
// swings with every perturbation of its start phases, while the pool is
// steady from seed to seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/rpc.hpp"
#include "trace.hpp"

namespace rpcbench {

struct WorkloadSpec {
  std::string name;
  smt::apps::TransportKind kind;
  std::size_t request_bytes;
  std::size_t response_bytes;
  std::size_t outstanding;  // in-flight RPCs per client host
  bool incast;              // 128-host Clos, 24 clients, 2 shards
  std::size_t warmup;       // completions before the measured window
  std::size_t measured;     // completions inside the measured window
  std::size_t tail;         // completions after it, keeping load on
  std::size_t simulations;  // independently seeded simulations per run
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Everything a simulation's seed decides. The program only ever sees what
/// these generate: request bytes, the virtual start time of each slot's
/// first call, and (incast) which hosts are clients.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<std::int64_t> start_offsets_ns;  // per slot, under one RTT
  std::vector<std::size_t> clients;            // host indices (incast)
};
/// The inputs of the run's `spec.simulations` simulations.
std::vector<Inputs> make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Simulated per-layer totals read from public accessors after the run.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t shard_windows = 0;
  std::uint64_t shard_cross_posts = 0;
  std::uint64_t nic_packets = 0;
  std::uint64_t nic_segments = 0;
  std::uint64_t nic_doorbells = 0;
  std::uint64_t nic_rx_interrupts = 0;
  std::uint64_t nic_records_encrypted = 0;
  std::uint64_t nic_rx_dropped = 0;
  std::uint64_t switch_forwarded = 0;
  std::uint64_t switch_trimmed = 0;
  std::uint64_t switch_dropped = 0;
  std::uint64_t switch_offered = 0;  // every packet a switch disposed of
  std::uint64_t switch_max_queued_bytes = 0;
  std::uint64_t client_app_ns = 0;  // app-core busy, IRQ slice included
  std::uint64_t client_softirq_ns = 0;
  std::uint64_t client_irq_ns = 0;
  std::uint64_t server_app_ns = 0;
  std::uint64_t server_softirq_ns = 0;
  std::uint64_t server_irq_ns = 0;
  std::uint64_t ctx_hits = 0;
  std::uint64_t ctx_misses = 0;
  std::uint64_t ctx_evictions = 0;
};

struct EpisodeResult {
  // --- simulated (deterministic per seed and shard count) -----------------
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;      // completions with a correct response
  std::uint64_t bad_responses = 0;  // completions with a wrong response
  std::uint64_t bad_requests = 0;   // requests the server saw corrupted
  std::vector<std::int64_t> rtts_ns;  // measured window, completion order
  std::int64_t window_ns = 0;         // boundary -> last measured completion
  LayerCounts counts;
  std::uint64_t digest = 0;  // completions + layer counts
  // --- wall clock ---------------------------------------------------------
  double setup_s = 0;        // episode start -> the first call()
  double window_wall_s = 0;  // boundary -> last measured completion
  double topology_build_s = 0;  // incast: TopologyBuilder::build
  std::size_t loop_threads = 1;  // OS threads that ran the event loop
  AllocTotals run_allocs;        // heap allocations during the run
  double mean_pending = 0;       // client loop pending() at completions
  std::vector<Span> spans;       // traced episodes only
};

/// Runs one episode. `traced` records spans (see trace.hpp); `setup_only`
/// stops after set-up, timing it without running any RPC.
EpisodeResult run_episode(const WorkloadSpec& spec, const Inputs& inputs,
                          bool traced, bool setup_only = false);

/// The request payload of RPC `rpc`: its id, then seeded bytes.
smt::Bytes make_request(std::uint64_t seed, std::uint64_t rpc,
                        std::size_t size);
/// The server's check: `payload` is make_request(seed, id, size) for the
/// id it carries.
bool request_ok(std::uint64_t seed, smt::ByteView payload, std::size_t size);

}  // namespace rpcbench
