#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "netsim/fabric.hpp"
#include "netsim/shard.hpp"
#include "stack/scenario.hpp"
#include "stack/topology.hpp"

namespace rpcbench {

using smt::Bytes;
using smt::ByteView;
using smt::apps::RpcChannel;
using smt::apps::RpcFabric;
using smt::apps::RpcFabricConfig;
using smt::apps::RpcReply;
using smt::apps::TransportKind;

namespace {

// The shape of tools/scenarios/incast_128.toml, kept here so the benchmark
// stays fixed when scenario files change.
constexpr const char* kIncastScenario = R"(
[topology]
racks = 8
hosts_per_rack = 16
spines = 4
aggs_per_pod = 2
racks_per_pod = 4
oversubscription = 4.0
[host]
app_cores = 2
softirq_cores = 2
[edge_link]
bandwidth_gbps = 100
propagation_us = 1
[switch]
queue_capacity_bytes = 65536
trimming = true
)";
constexpr std::size_t kIncastServer = 0;
// 24 clients with one RPC each: enough fan-in to queue and trim at the
// server's ToR port, little enough that Homa recovers every trim without
// its resend timer. (32 clients with two RPCs each, the scenario file's
// workload, puts ~0.5% of RPCs on 10-100 ms timer ladders; their p999
// swings by 2x from one seed to the next.)
constexpr std::size_t kIncastClientsPerRack = 3;
constexpr std::size_t kIncastShards = 2;

// First calls start within this window: under one unloaded RTT of every
// workload, so the seed shifts phases without idling the closed loop.
constexpr std::int64_t kStartWindowNs = 5'000;

// Every response byte of the echo handler (RpcReply{} synthesises them).
constexpr std::uint8_t kEchoByte = 0x5a;

// The stream of request bytes for RPC `rpc`, independent of every other
// RPC's stream.
smt::Rng payload_stream(std::uint64_t seed, std::uint64_t rpc) {
  return smt::Rng(smt::mix_seed(seed, rpc));
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

bool response_ok(const Bytes& response, std::size_t size) {
  return response.size() == size &&
         std::all_of(response.begin(), response.end(),
                     [](std::uint8_t b) { return b == kEchoByte; });
}

struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

[[noreturn]] void fail_setup(const char* what, const std::string& message) {
  std::fprintf(stderr, "rpcbench: %s: %s\n", what, message.c_str());
  std::exit(2);
}

struct Completion {
  std::int64_t virtual_ns;
  std::int64_t wall_ns;
  std::int64_t rtt_ns;
  std::uint32_t client;
};

/// Per-client state: touched only by the thread running that client's
/// event loop (a shard thread in the incast workload).
struct ClientState {
  std::size_t issued = 0;
  std::size_t budget = 0;
  std::uint64_t bad_responses = 0;
  std::uint64_t pending_sum = 0;
  std::vector<Completion> done;
};

std::uint64_t rpc_id(std::size_t slot, std::size_t seq) {
  return (std::uint64_t(slot + 1) << 32) | std::uint64_t(seq);
}

LayerCounts read_counts(RpcFabric& fabric, smt::stack::Topology* topology) {
  LayerCounts c;
  auto add_nic = [&c](smt::stack::Host& host) {
    const smt::sim::NicCounters& n = host.nic().counters();
    c.nic_packets += n.packets;
    c.nic_segments += n.segments;
    c.nic_doorbells += n.doorbells;
    c.nic_rx_interrupts += n.rx_interrupts;
    c.nic_records_encrypted += n.records_encrypted;
    c.nic_rx_dropped += n.rx_dropped;
    const auto& ctx = host.flow_contexts().stats();
    c.ctx_hits += ctx.hits;
    c.ctx_misses += ctx.misses;
    c.ctx_evictions += ctx.evictions;
  };
  for (std::size_t i = 0; i < fabric.client_count(); ++i) {
    smt::stack::Host& host = fabric.client_host(i);
    add_nic(host);
    c.client_app_ns += host.total_app_busy_ns();
    c.client_softirq_ns += host.total_softirq_busy_ns();
  }
  add_nic(fabric.server_host());
  c.client_irq_ns = fabric.client_irq_ns();
  c.server_app_ns = fabric.server_host().total_app_busy_ns();
  c.server_softirq_ns = fabric.server_host().total_softirq_busy_ns();
  c.server_irq_ns = fabric.server_irq_ns();

  smt::sim::Fabric* switches = topology ? topology->fabric() : nullptr;
  if (switches != nullptr) {
    const smt::sim::Switch::Stats t = switches->totals();
    c.switch_forwarded = t.forwarded;
    c.switch_trimmed = t.trimmed;
    c.switch_dropped = t.dropped;
    c.switch_offered = t.forwarded + t.trimmed + t.dropped + t.fault_dropped +
                       t.dropped_dark;
    auto max_queue = [&c](smt::sim::Switch& sw) {
      for (std::size_t p = 0; p < sw.port_count(); ++p) {
        c.switch_max_queued_bytes = std::max<std::uint64_t>(
            c.switch_max_queued_bytes, sw.port_stats(p).max_queued_bytes);
      }
    };
    for (std::size_t i = 0; i < switches->tor_count(); ++i) {
      max_queue(switches->tor(i));
    }
    for (std::size_t i = 0; i < switches->agg_count(); ++i) {
      max_queue(switches->agg(i));
    }
    for (std::size_t i = 0; i < switches->spine_count(); ++i) {
      max_queue(switches->spine(i));
    }
  }
  return c;
}

std::uint64_t digest_of(const std::vector<Completion>& done,
                        const LayerCounts& c) {
  Fnv64 f;
  for (const Completion& d : done) {
    f.add(std::uint64_t(d.virtual_ns));
    f.add(std::uint64_t(d.rtt_ns));
    f.add(d.client);
  }
  for (std::uint64_t v :
       {c.events, c.shard_windows, c.shard_cross_posts, c.nic_packets,
        c.nic_segments, c.nic_doorbells, c.nic_rx_interrupts,
        c.nic_records_encrypted, c.nic_rx_dropped, c.switch_forwarded,
        c.switch_trimmed, c.switch_dropped, c.switch_offered,
        c.switch_max_queued_bytes, c.client_app_ns, c.client_softirq_ns,
        c.client_irq_ns, c.server_app_ns, c.server_softirq_ns,
        c.server_irq_ns, c.ctx_hits, c.ctx_misses, c.ctx_evictions}) {
    f.add(v);
  }
  return f.h;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"rpc64_smt_hw", TransportKind::smt_hw, 64, 64, 200, false, 2000,
       10240, 200, 8},
      {"rpc64k_ktls_sw", TransportKind::ktls_sw, 64 * 1024, 64 * 1024, 16,
       false, 256, 5120, 16, 2},
      {"incast16k_smt_hw", TransportKind::smt_hw, 16 * 1024, 64, 1, true,
       512, 5120, 96, 40},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<Inputs> make_inputs(const WorkloadSpec& spec,
                                std::uint64_t seed) {
  std::vector<Inputs> all;
  for (std::size_t k = 0; k < spec.simulations; ++k) {
    Inputs in;
    in.seed = smt::mix_seed(seed, k);
    smt::Rng rng(in.seed);
    if (spec.incast) {
      auto scenario = smt::stack::ScenarioConfig::parse(kIncastScenario);
      if (!scenario.ok()) {
        fail_setup("incast scenario", scenario.error().message);
      }
      const auto& topo = scenario.value().topology;
      for (std::size_t rack = 0; rack < topo.racks; ++rack) {
        std::vector<std::size_t> hosts;
        for (std::size_t h = 0; h < topo.hosts_per_rack; ++h) {
          const std::size_t host = rack * topo.hosts_per_rack + h;
          if (host != kIncastServer) hosts.push_back(host);
        }
        for (std::size_t i = hosts.size() - 1; i > 0; --i) {  // Fisher-Yates
          std::swap(hosts[i], hosts[rng.next_below(i + 1)]);
        }
        in.clients.insert(in.clients.end(), hosts.begin(),
                          hosts.begin() + kIncastClientsPerRack);
      }
      std::sort(in.clients.begin(), in.clients.end());
    } else {
      in.clients = {0};
    }
    const std::size_t slots = in.clients.size() * spec.outstanding;
    for (std::size_t s = 0; s < slots; ++s) {
      in.start_offsets_ns.push_back(
          std::int64_t(rng.next_below(kStartWindowNs)));
    }
    all.push_back(std::move(in));
  }
  return all;
}

Bytes make_request(std::uint64_t seed, std::uint64_t rpc, std::size_t size) {
  Bytes out(size);
  std::memcpy(out.data(), &rpc, std::min<std::size_t>(8, size));
  smt::Rng stream = payload_stream(seed, rpc);
  for (std::size_t i = 8; i < size; i += 8) {
    const std::uint64_t word = stream.next();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, size - i));
  }
  return out;
}

// Compares in place: no allocation on the server's path.
bool request_ok(std::uint64_t seed, ByteView payload, std::size_t size) {
  if (payload.size() != size || size < 8) return false;
  smt::Rng stream = payload_stream(seed, load_u64(payload.data()));
  std::size_t i = 8;
  for (; i + 8 <= size; i += 8) {
    if (load_u64(payload.data() + i) != stream.next()) return false;
  }
  if (i < size) {
    const std::uint64_t last = stream.next();
    if (std::memcmp(payload.data() + i, &last, size - i) != 0) return false;
  }
  return true;
}

EpisodeResult run_episode(const WorkloadSpec& spec, const Inputs& inputs,
                          bool traced, bool setup_only) {
  EpisodeResult r;
  g_tracing.store(traced, std::memory_order_relaxed);
  clear_spans();
  const std::int64_t start = wall_ns();

  // --- set-up: topology, TLS handshake, endpoints, channels ---------------
  RpcFabricConfig config;
  config.kind = spec.kind;
  std::unique_ptr<smt::sim::ShardedEngine> engine;
  std::unique_ptr<smt::stack::Topology> topology;
  std::unique_ptr<RpcFabric> fabric;
  if (spec.incast) {
    ScopedSpan span(SpanKind::setup_topology);
    const std::int64_t t0 = wall_ns();
    auto scenario = smt::stack::ScenarioConfig::parse(kIncastScenario);
    if (!scenario.ok()) fail_setup("incast scenario", scenario.error().message);
    engine = std::make_unique<smt::sim::ShardedEngine>(kIncastShards,
                                                       smt::usec(1));
    auto built =
        smt::stack::TopologyBuilder(std::move(scenario).take()).build(*engine);
    if (!built.ok()) fail_setup("incast topology", built.error().message);
    topology = std::move(built).take();
    r.topology_build_s = double(wall_ns() - t0) / 1e9;
  }
  {
    ScopedSpan span(SpanKind::setup_fabric);
    if (spec.incast) {
      fabric = std::make_unique<RpcFabric>(config, *topology, kIncastServer,
                                           inputs.clients);
    } else {
      auto made = RpcFabric::create(config);
      if (!made.ok()) fail_setup("fabric", made.error().message);
      fabric = std::move(made).take();
    }
  }

  const std::uint64_t seed = inputs.seed;
  std::atomic<std::uint64_t> bad_requests{0};
  fabric->set_handler([&, seed](ByteView request) {
    ScopedSpan span(SpanKind::handler,
                    request.size() >= 8 ? load_u64(request.data()) : 0);
    if (!request_ok(seed, request, spec.request_bytes)) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
    }
    return RpcReply{};  // the default echo: identical simulated timing
  });

  const std::size_t client_count = inputs.clients.size();
  const std::size_t slots = client_count * spec.outstanding;
  const std::size_t total = spec.warmup + spec.measured + spec.tail;
  std::vector<std::unique_ptr<RpcChannel>> channels;
  {
    ScopedSpan span(SpanKind::setup_channels);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      channels.push_back(spec.incast
                             ? fabric->make_channel(slot / spec.outstanding,
                                                    slot % spec.outstanding)
                             : fabric->make_channel(slot));
    }
  }
  std::vector<ClientState> clients(client_count);
  for (std::size_t c = 0; c < client_count; ++c) {
    clients[c].budget = total / client_count + (c < total % client_count);
    clients[c].done.reserve(clients[c].budget);
  }
  std::vector<std::size_t> slot_seq(slots, 0);

  std::function<void(std::size_t)> issue = [&](std::size_t slot) {
    const std::size_t client = slot / spec.outstanding;
    ClientState& me = clients[client];
    if (me.issued >= me.budget) return;
    ++me.issued;
    const std::uint64_t rpc = rpc_id(slot, slot_seq[slot]++);
    Bytes request = make_request(seed, rpc, spec.request_bytes);
    smt::sim::EventLoop* loop = &fabric->client_host(client).loop();
    ScopedSpan span(SpanKind::call, rpc);
    channels[slot]->call(
        std::move(request), std::uint32_t(spec.response_bytes),
        [&, slot, client, rpc, loop](smt::SimDuration rtt, Bytes response) {
          {
            ScopedSpan done(SpanKind::complete, rpc);
            ClientState& state = clients[client];
            if (response_ok(response, spec.response_bytes)) {
              state.done.push_back(Completion{loop->now(), wall_ns(), rtt,
                                              std::uint32_t(client)});
            } else {
              ++state.bad_responses;
            }
            state.pending_sum += loop->pending();
          }
          issue(slot);
        });
  };
  for (std::size_t slot = 0; slot < slots; ++slot) {
    fabric->client_host(slot / spec.outstanding)
        .loop()
        .schedule(inputs.start_offsets_ns[slot],
                  [&issue, slot] { issue(slot); });
  }
  r.setup_s = double(wall_ns() - start) / 1e9;
  if (setup_only) {
    g_tracing.store(false, std::memory_order_relaxed);
    return r;
  }

  // --- run ------------------------------------------------------------------
  const AllocTotals allocs_before = alloc_totals();
  smt::sim::ShardedEngine::Stats engine_stats;
  {
    ScopedSpan span(SpanKind::run);
    g_root_parent.store(span.id(), std::memory_order_relaxed);
    if (engine) {
      engine->run();
      engine_stats = engine->stats();
      // The engine's worker pool: one thread per shard, capped by cores.
      const unsigned hw = std::thread::hardware_concurrency();
      r.loop_threads = std::min<std::size_t>(kIncastShards, hw == 0 ? 1 : hw);
    } else {
      engine_stats.events = fabric->loop().run();
    }
    g_root_parent.store(0, std::memory_order_relaxed);
  }
  const AllocTotals allocs_after = alloc_totals();
  r.run_allocs = {allocs_after.count - allocs_before.count,
                  allocs_after.bytes - allocs_before.bytes};
  g_tracing.store(false, std::memory_order_relaxed);

  // --- results: one deterministic completion order across clients --------
  std::vector<Completion> done;
  done.reserve(total);
  std::uint64_t pending_sum = 0;
  for (const ClientState& c : clients) {
    r.issued += c.issued;
    r.bad_responses += c.bad_responses;
    pending_sum += c.pending_sum;
    done.insert(done.end(), c.done.begin(), c.done.end());
  }
  std::stable_sort(done.begin(), done.end(),
                   [](const Completion& a, const Completion& b) {
                     return a.virtual_ns < b.virtual_ns;
                   });
  r.completed = done.size();
  r.bad_requests = bad_requests.load();
  const std::uint64_t callbacks = r.completed + r.bad_responses;
  r.mean_pending = callbacks ? double(pending_sum) / double(callbacks) : 0;
  if (done.size() >= spec.warmup + spec.measured && spec.warmup > 0) {
    const Completion& boundary = done[spec.warmup - 1];
    const Completion& last = done[spec.warmup + spec.measured - 1];
    r.window_ns = last.virtual_ns - boundary.virtual_ns;
    r.window_wall_s = double(last.wall_ns - boundary.wall_ns) / 1e9;
    for (std::size_t i = spec.warmup; i < spec.warmup + spec.measured; ++i) {
      r.rtts_ns.push_back(done[i].rtt_ns);
    }
  }
  r.counts = read_counts(*fabric, topology.get());
  r.counts.events = engine_stats.events;
  r.counts.shard_windows = engine_stats.windows;
  r.counts.shard_cross_posts = engine_stats.cross_posts;
  r.digest = digest_of(done, r.counts);
  if (traced) r.spans = collect_spans();
  clear_spans();
  return r;
}

}  // namespace rpcbench
