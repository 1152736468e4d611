// In-memory spans and counters for the traced benchmark run.
//
// Every span is recorded from the benchmark's own files, around a call into
// one of the library's public functions: the cell phases (graph generation,
// simulation build, run), each process upcall (classified into a protocol
// family by the delivered message's type), and each network verdict. Spans
// carry the cell they belong to and the span that caused them; they stay in
// memory and are written out once, when the run ends. Per-name totals
// (calls, total and self nanoseconds) are kept for every span, including
// those past the in-memory record cap.
//
// The recorder is thread-safe: the sharded engine runs upcalls and verdicts
// on worker threads, so each thread records into its own buffer and the
// buffers are read only between cells, after the worker threads joined.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/message.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kCell = 0,
  kSetupGraph,
  kSetupBuild,
  kRun,
  // Process upcalls, one name per protocol family.
  kStart,
  kCup,
  kSd,
  kScpNominate,
  kScpBallot,
  kPbft,
  kOtherMsg,
  kTimer,
  // NetworkModel::on_send.
  kVerdict,
  kCount,
};
inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kCount);

const char* span_name(SpanName name);

/// Handler family of a message type name: cup.discover/known/certs -> kCup;
/// cup.get_sink/sink_value -> kSd; scp.nominate and scp.slot.nominate ->
/// kScpNominate; every other scp.* -> kScpBallot; pbft.* and bftcup.* ->
/// kPbft; anything else -> kOtherMsg.
SpanName family_of_type(std::string_view type_name);

/// family_of_type for a message, cached per interned type id.
SpanName family_of(const scup::sim::Message& msg);

struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  /// total_ns minus the time of child spans on the same thread.
  std::int64_t self_ns = 0;
};
using TraceTotals = std::array<SpanTotals, kSpanNameCount>;

/// Turns span recording on or off (off: Scope is a no-op).
void trace_enable(bool on);
bool trace_enabled();

/// Cell id stamped on spans recorded from now on (every thread).
void trace_set_cell(std::uint32_t cell);

/// Totals over every thread since the last trace_reset_totals(). Call only
/// while no simulation is running.
TraceTotals trace_totals();
void trace_reset_totals();

/// Writes every recorded span as CSV (cell,id,parent,thread,name,start_ns,
/// dur_ns) and returns the number written; `dropped` receives the spans
/// past the in-memory cap (counted in the totals, not recorded).
std::size_t trace_write_spans(const std::string& path, std::size_t& dropped);

/// RAII span on the calling thread. Its parent is the innermost open span
/// on this thread, or — for a worker thread's outermost span — the run span
/// currently open on the driving thread.
class Scope {
 public:
  explicit Scope(SpanName name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_;
};

/// Heap allocations made through the global operator new (replaced in
/// trace.cpp for the whole binary) while the meter is on.
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};
void alloc_meter_enable(bool on);
AllocCount alloc_count();

}  // namespace perfbench
