#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <vector>

// ---- allocation meter ------------------------------------------------------
// Replacing operator new in one translation unit rebinds every heap
// allocation in the executable, the library's included. When the meter is
// off the only cost is one relaxed load per allocation.
namespace {
std::atomic<bool> g_alloc_meter{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_alloc_meter.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void alloc_meter_enable(bool on) {
  g_alloc_meter.store(on, std::memory_order_relaxed);
}

AllocCount alloc_count() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

// ---- span names and message families ---------------------------------------

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kCell: return "cell";
    case SpanName::kSetupGraph: return "setup.graph";
    case SpanName::kSetupBuild: return "setup.build";
    case SpanName::kRun: return "run";
    case SpanName::kStart: return "handler.start";
    case SpanName::kCup: return "handler.cup";
    case SpanName::kSd: return "handler.sd";
    case SpanName::kScpNominate: return "handler.scp_nominate";
    case SpanName::kScpBallot: return "handler.scp_ballot";
    case SpanName::kPbft: return "handler.pbft";
    case SpanName::kOtherMsg: return "handler.other";
    case SpanName::kTimer: return "handler.timer";
    case SpanName::kVerdict: return "net.verdict";
    case SpanName::kCount: break;
  }
  return "?";
}

SpanName family_of_type(std::string_view type) {
  if (type == "cup.get_sink" || type == "cup.sink_value") return SpanName::kSd;
  if (type.starts_with("cup.")) return SpanName::kCup;
  if (type == "scp.nominate" || type == "scp.slot.nominate") {
    return SpanName::kScpNominate;
  }
  if (type.starts_with("scp.")) return SpanName::kScpBallot;
  if (type.starts_with("pbft.") || type.starts_with("bftcup.")) {
    return SpanName::kPbft;
  }
  return SpanName::kOtherMsg;
}

namespace {
// Interned type ids are small and dense; ids past the table are classified
// from the name on every call. Entries hold family + 1 (0 = not yet seen).
constexpr std::size_t kFamilyCacheSize = 256;
std::array<std::atomic<std::uint8_t>, kFamilyCacheSize> g_family_cache{};
}  // namespace

SpanName family_of(const scup::sim::Message& msg) {
  const std::uint32_t id = msg.metrics_type_id();
  if (id >= kFamilyCacheSize) {
    return family_of_type(scup::sim::MessageTypeRegistry::name_of(id));
  }
  std::uint8_t cached = g_family_cache[id].load(std::memory_order_relaxed);
  if (cached == 0) {
    cached = static_cast<std::uint8_t>(
        1 + static_cast<unsigned>(family_of_type(
                scup::sim::MessageTypeRegistry::name_of(id))));
    g_family_cache[id].store(cached, std::memory_order_relaxed);
  }
  return static_cast<SpanName>(cached - 1);
}

// ---- span recorder ---------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint64_t id;
  std::uint64_t parent;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint32_t cell;
  std::uint16_t thread;
  SpanName name;
};

struct Open {
  std::uint64_t id;
  std::int64_t start_ns;
  std::int64_t child_ns;
  SpanName name;
};

struct ThreadTrace {
  explicit ThreadTrace(std::uint16_t index) : thread(index) {}
  std::uint16_t thread;
  std::uint64_t next_id = 0;
  std::vector<Open> stack;
  std::vector<Span> spans;
  /// Record slots claimed from the global budget but not yet used.
  std::size_t slots = 0;
  std::size_t dropped = 0;
  TraceTotals totals{};
};

/// Spans kept in memory across all threads; later ones only reach totals.
/// Threads claim record slots from the budget in chunks, so the hot path
/// touches no shared cache line.
constexpr std::size_t kSpanRecordCap = std::size_t{1} << 18;
constexpr std::size_t kSlotChunk = 4096;

std::atomic<bool> g_trace_on{false};
std::atomic<std::uint32_t> g_cell{0};
std::atomic<std::uint64_t> g_run_span{0};
std::atomic<std::size_t> g_budget{kSpanRecordCap};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_registry_mutex;
// Buffers outlive their threads: a worker's spans are read after it joined.
std::vector<std::unique_ptr<ThreadTrace>> g_registry;  // guarded by mutex

ThreadTrace& local_trace() {
  thread_local ThreadTrace* trace = nullptr;
  if (trace == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<ThreadTrace>(
        static_cast<std::uint16_t>(g_registry.size())));
    trace = g_registry.back().get();
  }
  return *trace;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

}  // namespace

void trace_enable(bool on) { g_trace_on.store(on, std::memory_order_relaxed); }
bool trace_enabled() { return g_trace_on.load(std::memory_order_relaxed); }

void trace_set_cell(std::uint32_t cell) {
  g_cell.store(cell, std::memory_order_relaxed);
}

TraceTotals trace_totals() {
  TraceTotals sum{};
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : g_registry) {
    for (std::size_t i = 0; i < kSpanNameCount; ++i) {
      sum[i].calls += t->totals[i].calls;
      sum[i].total_ns += t->totals[i].total_ns;
      sum[i].self_ns += t->totals[i].self_ns;
    }
  }
  return sum;
}

void trace_reset_totals() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& t : g_registry) t->totals = TraceTotals{};
}

std::size_t trace_write_spans(const std::string& path, std::size_t& dropped) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(out, "cell,id,parent,thread,name,start_ns,dur_ns\n");
  std::size_t written = 0;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  dropped = 0;
  for (const auto& t : g_registry) {
    dropped += t->dropped;
    for (const Span& s : t->spans) {
      std::fprintf(out, "%u,%llu,%llu,%u,%s,%lld,%lld\n", s.cell,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.thread,
                   span_name(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.dur_ns));
      ++written;
    }
  }
  std::fclose(out);
  return written;
}

Scope::Scope(SpanName name) : active_(trace_enabled()) {
  if (!active_) return;
  ThreadTrace& t = local_trace();
  const std::uint64_t id =
      (static_cast<std::uint64_t>(t.thread) << 48) | ++t.next_id;
  if (name == SpanName::kRun) g_run_span.store(id, std::memory_order_relaxed);
  t.stack.push_back({id, now_ns(), 0, name});
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadTrace& t = local_trace();
  const Open open = t.stack.back();
  t.stack.pop_back();
  const std::int64_t dur = end - open.start_ns;
  SpanTotals& totals = t.totals[static_cast<std::size_t>(open.name)];
  totals.calls += 1;
  totals.total_ns += dur;
  totals.self_ns += dur - open.child_ns;
  std::uint64_t parent = 0;
  if (!t.stack.empty()) {
    t.stack.back().child_ns += dur;
    parent = t.stack.back().id;
  } else if (open.name != SpanName::kCell) {
    parent = g_run_span.load(std::memory_order_relaxed);
  }
  if (t.slots == 0 && t.dropped == 0) {
    // Claim the next chunk; a thread that finds the budget spent stops
    // asking and only counts what it drops from then on.
    std::size_t left = g_budget.load(std::memory_order_relaxed);
    std::size_t take = 0;
    do {
      take = std::min(left, kSlotChunk);
    } while (!g_budget.compare_exchange_weak(left, left - take,
                                             std::memory_order_relaxed));
    t.slots = take;
  }
  if (t.slots > 0) {
    --t.slots;
    t.spans.push_back({open.id, parent, open.start_ns, dur,
                       g_cell.load(std::memory_order_relaxed), t.thread,
                       open.name});
  } else {
    ++t.dropped;
  }
}

}  // namespace perfbench
