#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>

namespace rpcbench {

// --- heap tally ------------------------------------------------------------
//
// Per-thread tallies, flushed to the globals in batches and when the thread
// exits: a fetch_add per allocation would bounce one cache line between
// the two shard threads of the incast workload and slow the very run being
// measured. The sharded engine joins its workers at the end of every run,
// so totals read after a run are exact.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  void flush() noexcept {
    g_alloc_count.fetch_add(count, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
    count = 0;
    bytes = 0;
  }
  ~AllocTally() { flush(); }
};
thread_local AllocTally t_tally;

inline void note_alloc(std::size_t size) noexcept {
  ++t_tally.count;
  t_tally.bytes += size;
  if (t_tally.count >= 4096) t_tally.flush();
}
}  // namespace

AllocTotals alloc_totals() {
  t_tally.flush();
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double peak_rss_mib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- spans -----------------------------------------------------------------

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_root_parent{0};

namespace {
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<SpanBuffer>>& buffers() {
  static auto* all = new std::vector<std::unique_ptr<SpanBuffer>>();
  return *all;
}

// A thread's claim on a buffer. The sharded engine starts fresh worker
// threads for every run; when one exits, its buffer (spans kept until the
// next collect) passes to the next thread that records.
struct BufferClaim {
  SpanBuffer* buffer = nullptr;
  ~BufferClaim() {
    if (buffer == nullptr) return;
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffer->claimed = false;
  }
};
thread_local BufferClaim t_claim;
}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::setup_topology: return "setup.topology";
    case SpanKind::setup_fabric: return "setup.fabric";
    case SpanKind::setup_channels: return "setup.channels";
    case SpanKind::run: return "netsim.run";
    case SpanKind::call: return "apps.call";
    case SpanKind::complete: return "apps.complete";
    case SpanKind::handler: return "apps.handler";
  }
  return "?";
}

SpanBuffer& thread_buffer() {
  if (t_claim.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : buffers()) {
      if (!buffer->claimed) t_claim.buffer = buffer.get();
    }
    if (t_claim.buffer == nullptr) {
      buffers().push_back(std::make_unique<SpanBuffer>());
      t_claim.buffer = buffers().back().get();
      t_claim.buffer->thread = std::uint32_t(buffers().size());
      t_claim.buffer->spans.reserve(1 << 16);
    }
    t_claim.buffer->claimed = true;
  }
  return *t_claim.buffer;
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint64_t rpc) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  buffer_ = &thread_buffer();
  index_ = buffer_->spans.size();
  id_ = (std::uint64_t(buffer_->thread) << 40) | (index_ + 1);
  const std::uint64_t parent =
      buffer_->open.empty() ? g_root_parent.load(std::memory_order_relaxed)
                            : buffer_->open.back();
  buffer_->spans.push_back(Span{kind, wall_ns(), 0, id_, parent, rpc});
  buffer_->open.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = wall_ns();
  buffer_->open.pop_back();
}

std::vector<Span> collect_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& buffer : buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void clear_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : buffers()) buffer->spans.clear();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("{\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"rpc\":%llu}}\n",
                 i == 0 ? "" : ",", span_name(s.kind),
                 static_cast<unsigned long long>(s.id >> 40),
                 double(s.start_ns - origin) / 1e3,
                 double(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.rpc));
  }
  std::fputs("],\"displayTimeUnit\":\"ns\"}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace rpcbench

// Global replacements: every heap allocation in the process is counted.
void* operator new(std::size_t size) {
  rpcbench::note_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  rpcbench::note_alloc(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  rpcbench::note_alloc(size);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
