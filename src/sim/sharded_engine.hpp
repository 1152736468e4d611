// ShardEngine — the simulator's one event loop: deterministic time-window
// execution over S >= 1 shards.
//
// The event plane is sharded by process id: shard s owns every process p
// with p % shards == s, that process's calendar queue entries, mailbox,
// timers, RNG streams, scheduling counter and Notary sign log. Shards drain
// their own queues concurrently inside a conservative window [T, end)
// where
//   end = min over nonempty shards s of (next_event(s) + W_out(s))
// and W_out(s) — the shard's *lookahead* — is the minimum
// NetworkModel::min_latency(from, to) over cross-shard pairs with `from`
// in s (DESIGN.md §4.7). A shard's earliest possible cross-shard send
// happens no earlier than its next event, so nothing it does inside the
// window can schedule work for another shard inside the same window:
// cross-shard effects land at or beyond the window end, wait in the
// sending shard's outbox, and are pushed into their owner's queue at the
// barrier. Intra-shard effects (timers are always self-targeted) go
// straight into the shard's own queue, wherever they land. A shard with no
// cross-shard pairs (notably shards == 1, which is also what shards == 0
// selects) has unbounded lookahead: the window extends to the caller's
// cap and runs on the calling thread.
//
// Determinism contract: a run is bit-identical (Notary sign logs,
// SimMetrics, protocol state, end time) for every shard count. Every event
// carries the fixed-size key (deliver_time, send_time, origin,
// origin_counter) of sim/event_queue.hpp, computed by the scheduling shard
// from state only that shard touches, and every queue pops in key order.
// Each process therefore sees its events in the same order under every
// partition (DESIGN.md §4.6), so its sends, timers, signatures and — under
// the draw-plan contract of NetworkModel — its network verdicts are the
// same too. Nothing at the barrier depends on the order shards are visited
// in: there is no merge.
//
// The drain loop batches deliveries: consecutive queue entries with the
// same (tick, target), all scheduled at an earlier tick, become one
// Process::on_messages upcall. Anything a handler schedules at the current
// tick carries send_time == tick and sorts after every such entry, so a
// batch is exactly the run of events a one-at-a-time drain would pop next.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/process.hpp"
#include "sim/shard_pool.hpp"

namespace scup::sim {

class Simulation;
class NetworkModel;

/// Engine instrumentation, kept outside SimMetrics on purpose: the
/// shard-invariance suites compare SimMetrics bit-for-bit across shard
/// counts, and these counters legitimately differ (the window schedule
/// depends on the partition).
struct ShardStats {
  std::size_t shards = 0;
  /// Windows executed (== barriers).
  std::size_t windows = 0;
  /// Cross-shard effects held in outboxes until the barrier.
  std::size_t staged_ops = 0;
  /// Batched-delivery upcalls and the messages they carried.
  std::size_t batch_upcalls = 0;
  std::size_t batched_messages = 0;
  /// Sum over windows of (window_end - window_start); divide by `windows`
  /// for the average width the lookahead achieved.
  std::uint64_t window_width_sum = 0;

  // ---- window profile (NetworkConfig::shard_timing) ----
  //
  // Wall-clock (steady_clock) nanoseconds, collected only when the flag
  // below is set so default runs never read a real clock. Timing is
  // deliberately outside the identity contract: ShardStats is never part
  // of SimMetrics, so fingerprints stay bit-identical with or without it.
  bool timing_enabled = false;
  /// Parallel window execution: fork, per-shard drains, join.
  std::uint64_t window_ns = 0;
  /// Barrier: pushing outboxed cross-shard effects into their owners'
  /// queues.
  std::uint64_t merge_ns = 0;
  /// Always 0: signatures are logged on the signer's shard as they
  /// happen, so the barrier replays nothing. Kept for report formats.
  std::uint64_t replay_ns = 0;
  /// Barrier: metrics absorption.
  std::uint64_t reset_ns = 0;
  /// Sum across shards of in-window drain body time (< window_ns: the gap
  /// is fork/join overhead plus the straggler imbalance).
  std::uint64_t drain_ns = 0;
  /// Per-shard drain body time (aggregate view only; empty per-shard).
  std::vector<std::uint64_t> shard_drain_ns;
};

/// Everything one shard owns. Touched only by the shard's thread inside
/// ShardPool::run and only by the coordinating thread outside it (the
/// pool's fork/join provides the happens-before edges).
struct ShardContext {
  std::size_t index = 0;
  CalendarQueue queue;
  /// Exclusive end of the window being drained (set before the fork).
  SimTime window_end = 0;
  /// Simulated time of the event being dispatched (Process::now()).
  SimTime now = 0;
  /// Time of the last event this shard processed in the current window.
  SimTime last_time = 0;
  bool processed_any = false;
  /// Window-local metrics delta, merged into Simulation::metrics_ at the
  /// barrier and zeroed in place.
  SimMetrics metrics;
  /// Cross-shard effects scheduled this window (all at or past
  /// window_end), pushed into their owners' queues at the barrier.
  std::vector<Event> outbox;
  /// Reused buffer for batched same-tick deliveries.
  std::vector<Delivery> batch;

  ShardStats stats;
  std::exception_ptr error;
};

class ShardEngine {
 public:
  /// `shards` >= 1. Spawns shards - 1 pool workers (shard 0 runs on the
  /// coordinating thread), so shards == 1 runs with no threads at all.
  ShardEngine(Simulation& sim, std::size_t shards);

  /// The shard context of the calling thread while it is draining a window,
  /// nullptr otherwise (in particular: on the coordinating thread between
  /// windows and during the pre-start phase).
  static ShardContext* current();

  /// Queues `e` on its target's shard. `ctx` is the calling shard inside a
  /// window, or nullptr on the coordinating thread between windows (driver
  /// calls and the pre-start phase), where any shard may be pushed to.
  void schedule(ShardContext* ctx, Event e);

  /// Runs one conservative window: picks T = min next-event time across
  /// shards, drains [T, end) in parallel with
  ///   end = min(min over nonempty shards s of (next_event(s) + W_out(s)),
  ///             deadline + 1, cap)
  /// then pushes outboxed effects at the barrier. Returns false (without
  /// running anything) when no shard has an event at time <= deadline, or
  /// when the earliest event is at or past `cap` (run_until's
  /// predicate-checkpoint grid passes the next grid point as the cap).
  bool run_window(SimTime deadline, SimTime cap = kTimeInfinity);

  /// Earliest pending event time across shards, kTimeInfinity when idle.
  SimTime next_event_time() const;

  /// The run_until checkpoint-grid spacing (resolved from
  /// NetworkConfig::lookahead_quantum at construction; >= 1).
  SimTime quantum() const { return quantum_; }

  /// Aggregated instrumentation across shards.
  ShardStats stats() const;

 private:
  /// Drains one shard up to its context's window_end.
  void drain(std::size_t shard_index);
  /// Barrier half: rethrows a shard's error, pushes outboxes into their
  /// owners' queues, merges metrics deltas, advances Simulation::now_.
  void commit_staged();

  Simulation& sim_;
  std::vector<std::unique_ptr<ShardContext>> shards_;
  ShardPool pool_;
  /// Per-shard lookahead W_out(s): min cross-shard min_latency(from, to)
  /// over pairs with `from` in shard s; kTimeInfinity when s has no
  /// cross-shard pairs. Every finite entry >= 1, enforced at construction.
  // scup-owner: engine
  std::vector<SimTime> w_out_;
  SimTime quantum_ = 1;
  // scup-owner: engine
  std::size_t windows_ = 0;
  // scup-owner: engine
  std::uint64_t width_sum_ = 0;

  // ---- window profile accumulators (NetworkConfig::shard_timing; engine-
  // ---- level sections are timed on the coordinating thread only, per-
  // ---- shard drain time lives in ShardContext::stats) ----
  bool timing_ = false;
  // scup-owner: engine
  std::uint64_t window_ns_ = 0;
  // scup-owner: engine
  std::uint64_t merge_ns_ = 0;
  // scup-owner: engine
  std::uint64_t reset_ns_ = 0;
};

/// The per-shard lookahead vector for `shards` shards over `n` processes
/// under the p % shards ownership map (see the file comment). Throws
/// std::invalid_argument, naming the offending link, when any cross-shard
/// pair has a latency floor below one tick (shards == 1 has no cross-shard
/// pairs, so a zero-latency model is legal there).
std::vector<SimTime> shard_window_widths(const NetworkModel& model,
                                         std::size_t n, std::size_t shards);

}  // namespace scup::sim
