// rpcbench: the repository's benchmark. Runs one named, seeded, closed-loop
// RPC workload through the public apps::RpcFabric / RpcChannel API,
// checks every request and response, and prints every metric by name with
// its unit. The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics: simulated (virtual time,
// deterministic per seed and shard count) and simulator (wall clock).
// --trace 1 reports per-layer metrics, taken only from outside the
// program: spans around the benchmark's own calls into each layer, public
// counters, and isolated probes of layers' public functions.
//
//   rpcbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE]     Chrome trace of one traced episode
//   rpcbench --self-test            reduced workloads, twice, compared
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace rpcbench {
namespace {

using smt::apps::TransportKind;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Per-layer metrics a traced run reports (checked by the self-test).
constexpr std::size_t kPerLayerCount = 43;

const std::vector<std::string> kEndToEnd = {
    "virtual_rpc_per_sec", "virtual_rtt_p50_us",
    "virtual_rtt_p999_us", "virtual_server_cpu_us_per_rpc",
    "wall_rpc_per_sec",    "setup_s",
    "peak_rss_mib"};

double per(double total, double base) { return base > 0 ? total / base : 0; }

/// Nearest-rank percentile, refused unless at least 10 samples lie beyond
/// it (the highest percentile the sample supports).
std::optional<double> percentile_us(const std::vector<std::int64_t>& sorted,
                                    double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = std::size_t(std::ceil(q * double(n)));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  if (n - 1 - index < 10) return std::nullopt;
  return double(sorted[index]) / 1e3;
}

double wall_rpc_per_sec(const WorkloadSpec& spec, const EpisodeResult& e) {
  return per(double(spec.measured), e.window_wall_s);
}

std::uint64_t run_digest(const std::vector<EpisodeResult>& sims) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const EpisodeResult& e : sims) h = (h ^ e.digest) * 0x100000001b3ull;
  return h;
}

// --- a run's correctness tally ----------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(const WorkloadSpec& spec, const EpisodeResult& e,
           std::uint64_t expected_digest) {
    attempted += e.issued;
    failed += e.issued - e.completed;
    auto problem = [this](const char* what) {
      correct = false;
      std::printf("ERROR: %s\n", what);
    };
    if (e.bad_responses != 0) problem("a response had a wrong length or byte");
    if (e.bad_requests != 0) problem("the server saw a corrupted request");
    if (e.completed < spec.warmup + spec.measured) {
      problem("too few completions for the measured window");
    }
    if (e.digest != expected_digest) {
      problem("simulated results differ between episodes of one simulation");
    }
  }
};

// --- what a run collects -----------------------------------------------------

struct SpanTotals {
  std::map<SpanKind, std::pair<double, std::uint64_t>> by_kind;  // ns, count
  double loop_self_ns = 0;
  std::uint64_t rpcs = 0;
};

void add_spans(const EpisodeResult& e, SpanTotals& t) {
  std::uint64_t run_id = 0;
  double run_ns = 0;
  for (const Span& s : e.spans) {
    if (s.kind == SpanKind::run) {
      run_id = s.id;
      run_ns = double(s.end_ns - s.start_ns);
    }
  }
  double children_ns = 0;
  for (const Span& s : e.spans) {
    const double ns = double(s.end_ns - s.start_ns);
    auto& [sum, count] = t.by_kind[s.kind];
    sum += ns;
    ++count;
    if (run_id != 0 && s.parent == run_id) children_ns += ns;
  }
  // The engine's own time: every loop thread's share of the run span that
  // no benchmark callback (call, completion, handler) covered.
  t.loop_self_ns += run_ns * double(e.loop_threads) - children_ns;
  t.rpcs += e.completed;
}

double mean_span_ns(const SpanTotals& t, SpanKind kind) {
  auto it = t.by_kind.find(kind);
  if (it == t.by_kind.end()) return 0;
  return per(it->second.first, double(it->second.second));
}

/// Measured RPCs over the wall seconds their windows took, summed across
/// episodes: throughput over all the measured work. On a shared 4-vCPU
/// host, speed swings by a third over phases of several seconds; the
/// ratio of sums averages them where a median of per-episode rates snaps
/// to one phase.
struct WallRate {
  double rpcs = 0;
  double seconds = 0;
  void add(const WorkloadSpec& spec, const EpisodeResult& e) {
    rpcs += double(spec.measured);
    seconds += e.window_wall_s;
  }
  double rate() const { return per(rpcs, seconds); }
};

struct RunData {
  std::vector<EpisodeResult> sims;  // first untraced episode per simulation
  WallRate wall;                    // untraced episodes
  WallRate traced_wall;
  std::vector<double> setup;        // setup_s, every untraced set-up
  std::vector<double> topology_ms;  // traced incast episodes
  std::vector<double> pending;      // traced episodes' mean pending()
  SpanTotals spans;
};

// --- end-to-end --------------------------------------------------------------

/// Simulated metrics pooled over the run's simulations (deterministic per
/// seed), wall-clock throughput over every episode, the median set-up.
Metrics end_to_end(const RunData& data) {
  std::vector<std::int64_t> sorted;
  std::int64_t window_ns = 0;
  double server_ns = 0, completed = 0;
  for (const EpisodeResult& e : data.sims) {
    sorted.insert(sorted.end(), e.rtts_ns.begin(), e.rtts_ns.end());
    window_ns += e.window_ns;
    server_ns += double(e.counts.server_app_ns + e.counts.server_softirq_ns);
    completed += double(e.completed);
  }
  std::sort(sorted.begin(), sorted.end());
  Metrics m;
  m.push_back({"virtual_rpc_per_sec",
               per(double(sorted.size()), double(window_ns) / 1e9), "1/s"});
  if (auto p50 = percentile_us(sorted, 0.5)) {
    m.push_back({"virtual_rtt_p50_us", *p50, "us"});
  }
  if (auto p999 = percentile_us(sorted, 0.999)) {
    m.push_back({"virtual_rtt_p999_us", *p999, "us"});
  } else {
    std::printf("virtual_rtt_p999_us refused: %zu samples leave fewer than "
                "10 beyond it\n",
                sorted.size());
  }
  std::printf("rtt samples: %zu measured completions (p50, p999)\n",
              sorted.size());
  m.push_back({"virtual_server_cpu_us_per_rpc", per(server_ns, completed) / 1e3,
               "us"});
  m.push_back({"wall_rpc_per_sec", data.wall.rate(), "1/s"});
  m.push_back({"setup_s", median(data.setup), "s"});
  m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  return m;
}

// --- per-layer ---------------------------------------------------------------

/// Wall ns per RPC added by an encrypted transport over its plaintext twin,
/// both run as reduced episodes of the workload's shape, alternating, so
/// both see the same host drift; median of kTwinRounds each.
double added_wall_ns_per_rpc(const WorkloadSpec& spec, const Inputs& inputs,
                             TransportKind secure, TransportKind plain,
                             Tally& tally) {
  constexpr int kTwinRounds = 3;
  const TransportKind kinds[2] = {secure, plain};
  std::vector<double> ns_per_rpc[2];
  std::uint64_t digests[2] = {0, 0};
  for (int round = 0; round < kTwinRounds; ++round) {
    for (int i = 0; i < 2; ++i) {
      WorkloadSpec twin = spec;
      twin.kind = kinds[i];
      twin.warmup = std::max<std::size_t>(1, spec.warmup / 4);
      twin.measured = spec.measured / 4;
      const EpisodeResult e = run_episode(twin, inputs, false);
      if (round == 0) digests[i] = e.digest;
      tally.add(twin, e, digests[i]);
      ns_per_rpc[i].push_back(per(1e9, wall_rpc_per_sec(twin, e)));
    }
  }
  const double added = median(ns_per_rpc[0]) - median(ns_per_rpc[1]);
  std::printf("twins %s vs %s: %.0f vs %.0f wall ns/rpc\n",
              smt::apps::transport_key(secure), smt::apps::transport_key(plain),
              median(ns_per_rpc[0]), median(ns_per_rpc[1]));
  return added;
}

/// Per-layer metrics, and the end-to-end metric each should move:
///   netsim (events, loop self time, event probe)  wall_rpc_per_sec, most
///       on rpc64_smt_hw, least on rpc64k_ktls_sw
///   common (allocations)      wall_rpc_per_sec on rpc64_smt_hw; SMT
///       wire-encoder work leaves rpc64k_ktls_sw unchanged
///   apps (call/complete/handler spans)  wall_rpc_per_sec on rpc64_smt_hw
///   smt (wire probes, added wall vs homa)  wall_rpc_per_sec on
///       rpc64_smt_hw and incast16k_smt_hw, not on rpc64k_ktls_sw
///   tls, baselines (handshake, record probes, added wall vs tcp)
///       wall_rpc_per_sec on rpc64k_ktls_sw; setup_s for the handshake
///   crypto (GCM probes)       wall_rpc_per_sec on rpc64k_ktls_sw only
///   netsim.nic (per-RPC counts)  wall_rpc_per_sec on rpc64k_ktls_sw, with
///       every simulated metric unchanged
///   netsim.switch             virtual_rtt_p999_us and wall_rpc_per_sec on
///       incast16k_smt_hw
///   netsim.shard              wall_rpc_per_sec on incast16k_smt_hw
///   stack (virtual CPU, flow contexts)  virtual_rpc_per_sec and
///       virtual_server_cpu_us_per_rpc on rpc64_smt_hw; topology build
///       time moves setup_s
/// Counts are per completed RPC over the run's simulations; Homa, TCP and
/// kTLS internal counters are not reachable through RpcFabric's public API.
/// Unit vns: simulated (virtual-time) nanoseconds, deterministic per seed.
Metrics per_layer(const WorkloadSpec& spec, const Inputs& inputs,
                  const RunData& data, Tally& tally) {
  double rpcs = 0;
  AllocTotals allocs;
  std::uint64_t max_queued_bytes = 0;
  for (const EpisodeResult& e : data.sims) {
    rpcs += double(e.completed);
    allocs.count += e.run_allocs.count;
    allocs.bytes += e.run_allocs.bytes;
    max_queued_bytes =
        std::max(max_queued_bytes, e.counts.switch_max_queued_bytes);
  }
  // A counter summed over the run's simulations.
  auto total = [&data](std::uint64_t LayerCounts::*counter) {
    double sum = 0;
    for (const EpisodeResult& e : data.sims) sum += double(e.counts.*counter);
    return sum;
  };
  auto per_rpc = [&](std::uint64_t LayerCounts::*counter) {
    return per(total(counter), rpcs);
  };
  const SpanTotals& spans = data.spans;
  const std::size_t depth = std::size_t(std::llround(median(data.pending)));

  smt::apps::RpcFabricConfig config;
  config.kind = spec.kind;
  const double topology_build_ms = spec.incast
                                       ? median(data.topology_ms)
                                       : probe_two_host_topology_ms(config);
  const SealOpen record = probe_record(inputs.seed);
  const SealOpen gcm = probe_gcm(inputs.seed);

  Metrics m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  using C = LayerCounts;
  add("netsim.events_per_rpc", per_rpc(&C::events), "count");
  add("netsim.loop_self_ns_per_rpc",
      per(spans.loop_self_ns, double(spans.rpcs)), "ns");
  add("netsim.pending_depth", double(depth), "count");
  add("netsim.event_probe_ns", probe_event_ns(depth), "ns");
  add("common.allocs_per_rpc", per(double(allocs.count), rpcs), "count");
  add("common.alloc_bytes_per_rpc", per(double(allocs.bytes), rpcs), "B");
  add("apps.call_ns", mean_span_ns(spans, SpanKind::call), "ns");
  add("apps.complete_ns", mean_span_ns(spans, SpanKind::complete), "ns");
  add("apps.handler_ns", mean_span_ns(spans, SpanKind::handler), "ns");
  add("smt.wire_build_ns",
      probe_wire_build_ns(spec.request_bytes, inputs.seed), "ns");
  add("smt.wire_open_ns", probe_wire_open_ns(spec.request_bytes, inputs.seed),
      "ns");
  add("smt.added_wall_ns_per_rpc",
      added_wall_ns_per_rpc(spec, inputs, TransportKind::smt_hw,
                            TransportKind::homa, tally),
      "ns");
  add("tls.handshake_ms", probe_handshake_ms(inputs.seed), "ms");
  add("tls.record_seal_ns_per_kib", record.seal_ns_per_kib, "ns/KiB");
  add("tls.record_open_ns_per_kib", record.open_ns_per_kib, "ns/KiB");
  add("baselines.ktls_added_wall_ns_per_rpc",
      added_wall_ns_per_rpc(spec, inputs, TransportKind::ktls_sw,
                            TransportKind::tcp, tally),
      "ns");
  add("crypto.gcm_seal_ns_per_kib", gcm.seal_ns_per_kib, "ns/KiB");
  add("crypto.gcm_open_ns_per_kib", gcm.open_ns_per_kib, "ns/KiB");
  add("netsim.nic.packets_per_rpc", per_rpc(&C::nic_packets), "count");
  add("netsim.nic.segments_per_rpc", per_rpc(&C::nic_segments), "count");
  add("netsim.nic.doorbells_per_rpc", per_rpc(&C::nic_doorbells), "count");
  add("netsim.nic.rx_interrupts_per_rpc", per_rpc(&C::nic_rx_interrupts),
      "count");
  add("netsim.nic.records_encrypted_per_rpc",
      per_rpc(&C::nic_records_encrypted), "count");
  add("netsim.nic.rx_dropped", total(&C::nic_rx_dropped), "count");
  add("netsim.switch.forwarded_per_rpc", per_rpc(&C::switch_forwarded),
      "count");
  add("netsim.switch.trimmed_per_rpc", per_rpc(&C::switch_trimmed), "count");
  add("netsim.switch.dropped_per_rpc", per_rpc(&C::switch_dropped), "count");
  add("netsim.switch.forward_ratio",
      per(total(&C::switch_forwarded), total(&C::switch_offered)), "ratio");
  add("netsim.switch.max_queued_bytes", double(max_queued_bytes), "B");
  add("netsim.shard.windows_per_rpc", per_rpc(&C::shard_windows), "count");
  add("netsim.shard.cross_posts_per_rpc", per_rpc(&C::shard_cross_posts),
      "count");
  add("netsim.shard.events_per_window",
      per(total(&C::events), total(&C::shard_windows)), "count");
  add("stack.client_app_ns_per_rpc", per_rpc(&C::client_app_ns), "vns");
  add("stack.client_softirq_ns_per_rpc", per_rpc(&C::client_softirq_ns),
      "vns");
  add("stack.client_irq_ns_per_rpc", per_rpc(&C::client_irq_ns), "vns");
  add("stack.server_app_ns_per_rpc", per_rpc(&C::server_app_ns), "vns");
  add("stack.server_softirq_ns_per_rpc", per_rpc(&C::server_softirq_ns),
      "vns");
  add("stack.server_irq_ns_per_rpc", per_rpc(&C::server_irq_ns), "vns");
  const double lookups = total(&C::ctx_hits) + total(&C::ctx_misses);
  add("stack.flow_ctx.hit_ratio", per(total(&C::ctx_hits), lookups), "ratio");
  add("stack.flow_ctx.lookups_per_rpc", per(lookups, rpcs), "count");
  add("stack.flow_ctx.evictions_per_rpc", per_rpc(&C::ctx_evictions), "count");
  add("stack.topology_build_ms", topology_build_ms, "ms");
  const double traced_rps = data.traced_wall.rate();
  const double untraced_rps = data.wall.rate();
  std::printf("traced wall_rpc_per_sec %.1f, untraced %.1f\n", traced_rps,
              untraced_rps);
  add("bench.trace_overhead_rpc_per_sec", traced_rps - untraced_rps, "1/s");
  return m;
}

// --- output ------------------------------------------------------------------

void print_metrics(const Metrics& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-42s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::printf("failed_rpc_ratio %.6f (%" PRIu64 " of %" PRIu64 " RPCs)\n",
              per(double(tally.failed), double(tally.attempted)), tally.failed,
              tally.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              tally.correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void describe(const WorkloadSpec& spec, std::uint64_t seed) {
  std::printf("workload %s: %s, %zu B request / %zu B response, %zu "
              "outstanding per client, closed loop; per simulation %zu "
              "warm-up + %zu measured + %zu tail RPCs; %zu simulation(s) "
              "from seed %" PRIu64 "\n",
              spec.name.c_str(), smt::apps::transport_key(spec.kind),
              spec.request_bytes, spec.response_bytes, spec.outstanding,
              spec.warmup, spec.measured, spec.tail, spec.simulations, seed);
}

// --- modes -------------------------------------------------------------------

/// Runs the seed's simulations round-robin until `seconds` have passed
/// (every simulation at least once). A traced run follows each untraced
/// episode with a traced one of the same simulation, so both see the same
/// host drift; their wall-clock difference is the tracing overhead.
RunData collect(const WorkloadSpec& spec, const std::vector<Inputs>& sims,
                int seconds, bool trace, const std::string& trace_out,
                Tally& tally) {
  RunData data;
  data.sims.resize(sims.size());
  const std::int64_t start = wall_ns();
  const std::int64_t budget_ns = std::int64_t(seconds) * 1'000'000'000;
  std::size_t episodes = 0;
  auto episode = [&](std::size_t k, bool traced) {
    EpisodeResult e = run_episode(spec, sims[k], traced);
    // Hand the episode's freed heap back, so peak RSS measures the largest
    // simulation rather than how fragmented earlier ones left the arenas.
    malloc_trim(0);
    const bool first = episodes < sims.size() && !traced;
    tally.add(spec, e, first ? e.digest : data.sims[k].digest);
    std::printf("simulation %zu%s: setup %.4f s, wall %.1f rpc/s, digest "
                "%016" PRIx64 "\n",
                k, traced ? " (traced)" : "", e.setup_s,
                wall_rpc_per_sec(spec, e), e.digest);
    if (traced) {
      if (data.pending.empty() && !trace_out.empty() &&
          !write_chrome_trace(trace_out, e.spans)) {
        std::printf("cannot write %s\n", trace_out.c_str());
      }
      add_spans(e, data.spans);
      data.traced_wall.add(spec, e);
      data.topology_ms.push_back(e.topology_build_s * 1e3);
      data.pending.push_back(e.mean_pending);
      return;
    }
    data.wall.add(spec, e);
    data.setup.push_back(e.setup_s);
    if (first) data.sims[k] = std::move(e);
  };
  // Set-up alone is cheap: repeat it between episodes so that at least
  // kSetupSamples set-ups, spread over the whole run, feed the median.
  constexpr std::size_t kSetupSamples = 100;
  auto setups_until = [&](double share) {
    while (tally.correct && double(data.setup.size()) < kSetupSamples * share) {
      const std::size_t k = data.setup.size() % sims.size();
      data.setup.push_back(run_episode(spec, sims[k], false, true).setup_s);
    }
  };
  for (; tally.correct && (episodes < sims.size() ||
                           wall_ns() - start < budget_ns);
       ++episodes) {
    episode(episodes % sims.size(), false);
    if (trace) {
      episode(episodes % sims.size(), true);
    } else {
      setups_until(
          std::min(1.0, double(wall_ns() - start) / double(budget_ns)));
    }
  }
  if (!trace) setups_until(1.0);
  return data;
}

int run(const WorkloadSpec& spec, std::uint64_t seed, int seconds, bool trace,
        const std::string& trace_out) {
  describe(spec, seed);
  const std::vector<Inputs> sims = make_inputs(spec, seed);
  Tally tally;
  const RunData data = collect(spec, sims, seconds, trace, trace_out, tally);
  std::printf("simulated digest %016" PRIx64 "\n", run_digest(data.sims));
  if (!tally.correct) {
    print_result(tally, {});
    return 1;
  }
  const Metrics metrics = trace ? per_layer(spec, sims.front(), data, tally)
                                : end_to_end(data);
  print_metrics(metrics);
  print_result(tally, metrics);
  return tally.correct ? 0 : 1;
}

/// Reduced workloads run twice in-process (plus once traced): simulated
/// metrics and digests must match, nothing may fail, every metric must be
/// present, and p999 must be refused on the small sample.
int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      ++failures;
      std::printf("SELF-TEST FAILED: %s\n", what.c_str());
    }
  };

  const smt::Bytes request = make_request(9, 42, 64);
  expect(request_ok(9, request, 64), "a generated request passes its check");
  smt::Bytes tampered = request;
  tampered[37] ^= 1;
  expect(!request_ok(9, tampered, 64), "a flipped byte fails the check");
  expect(!request_ok(9, request, 65), "a wrong length fails the check");

  for (WorkloadSpec spec : workloads()) {
    spec.warmup = std::max<std::size_t>(1, spec.warmup / 8);
    spec.measured = 1024;
    spec.simulations = 2;
    describe(spec, 7);
    const std::string name = spec.name + ": ";
    const std::vector<Inputs> sims = make_inputs(spec, 7);
    Tally tally;
    const RunData a = collect(spec, sims, 1, false, "", tally);
    const RunData b = collect(spec, sims, 1, true, "", tally);
    expect(tally.correct && tally.failed == 0,
           name + "episodes correct, none failed");
    expect(run_digest(a.sims) == run_digest(b.sims), name + "same digest");

    const Metrics ma = end_to_end(a);
    const Metrics mb = end_to_end(b);
    for (const std::string& metric : kEndToEnd) {
      auto find = [&metric](const Metrics& ms) -> const Metric* {
        for (const Metric& m : ms) {
          if (m.name == metric) return &m;
        }
        return nullptr;
      };
      const Metric* x = find(ma);
      const Metric* y = find(mb);
      if (metric == "virtual_rtt_p999_us") {
        expect(x == nullptr, name + "p999 refused on 2048 samples");
        continue;
      }
      expect(x != nullptr && y != nullptr, name + metric + " present");
      if (x && y && metric.rfind("virtual_", 0) == 0) {
        expect(x->value == y->value, name + metric + " identical");
      }
    }
    const Metrics layers = per_layer(spec, sims.front(), b, tally);
    expect(layers.size() == kPerLayerCount,
           name + "every per-layer metric present");
    expect(tally.correct && tally.failed == 0, name + "twin runs correct");
  }
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: rpcbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       rpcbench --self-test\nworkloads:");
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace rpcbench

int main(int argc, char** argv) {
  using namespace rpcbench;
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || seconds < 1 || (trace != 0 && trace != 1)) {
    return usage();
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return run(*spec, seed, seconds, trace == 1, trace_out);
}
