// Outside-in instrumentation for the benchmark: wall-clock spans recorded
// around the benchmark's own calls into each layer, a heap tally fed by
// the benchmark's global operator new, and the clock, median and peak-RSS
// helpers the measurements share. Nothing here reaches into the
// simulator; the program under test is unchanged.
//
// Spans live in per-thread buffers (incast completions run on shard
// threads) and are merged only after the engine has joined its workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rpcbench {

/// Monotonic wall clock in nanoseconds.
inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `samples` (mean of the middle two for an even count); 0 when
/// there are none.
double median(std::vector<double> samples);

enum class SpanKind : std::uint8_t {
  setup_topology,  // TopologyBuilder::build (incast)
  setup_fabric,    // RpcFabric construction: hosts, TLS handshake, endpoints
  setup_channels,  // RpcFabric::make_channel for every slot
  run,             // EventLoop::run / ShardedEngine::run
  call,            // RpcChannel::call (the synchronous send path)
  complete,        // the client's completion callback (response check)
  handler,         // the server's request handler (request check)
};
const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;      // (thread buffer << 40) | index, never 0
  std::uint64_t parent;  // 0 = root
  std::uint64_t rpc;     // RPC id, 0 for non-RPC spans
};

/// One thread's spans plus the id of the innermost open span.
struct SpanBuffer {
  std::uint32_t thread = 0;
  bool claimed = false;  // a live thread records into it
  std::vector<Span> spans;
  std::vector<std::uint64_t> open;  // stack of open span ids
};

/// Global switch; spans are recorded only while it is on.
extern std::atomic<bool> g_tracing;

/// Parent for spans opened on a thread with no open span of its own: the
/// event-loop run span of the main thread, so shard-thread callbacks nest
/// under the engine run that hosts them.
extern std::atomic<std::uint64_t> g_root_parent;

SpanBuffer& thread_buffer();

/// Records [construction, destruction) as one span when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint64_t rpc = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return id_; }

 private:
  SpanBuffer* buffer_ = nullptr;  // null when tracing was off
  std::size_t index_ = 0;
  std::uint64_t id_ = 0;
};

/// Every span recorded since the last clear, from every thread.
std::vector<Span> collect_spans();
void clear_spans();

/// Writes spans as Chrome trace-event JSON (opens in Perfetto).
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

/// Heap allocations counted by the benchmark's operator new, all threads.
/// Exact once every thread that allocated has exited or flushed.
struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocTotals alloc_totals();

/// Peak resident set size of this process.
double peak_rss_mib();

}  // namespace rpcbench
