// Discrete-event simulation of a partially synchronous message-passing
// system (Dwork-Lynch-Stockmeyer style, Section III-A of the paper):
// messages sent before GST suffer arbitrary (bounded only by the
// configuration) delays; messages sent after GST are delivered within
// [min_delay, max_delay]. Channels are reliable and authenticated;
// processing is instantaneous (computation bounds are absorbed into message
// delays, which is standard for protocol simulation).
//
// The link layer is pluggable (sim::NetworkModel): per-link overrides,
// partition schedules and pre-GST loss/duplication live there. The runtime
// adds staged participation — activate(id, t) defers a process's start()
// to simulated time t, with earlier deliveries buffered in its mailbox —
// and a crash(id) fault primitive that silences a process in both
// directions (no sends, no deliveries, no timer fires after the crash).
//
// Every run goes through the windowed ShardEngine (sim/sharded_engine.hpp).
// set_shards(S) picks how many shards it partitions the processes across;
// S = 0 and S = 1 both mean one shard drained on the calling thread, and
// results are bit-identical for every S.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/counters.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/network_model.hpp"
#include "sim/notary.hpp"
#include "sim/process.hpp"
#include "sim/sharded_engine.hpp"

namespace scup::sim {

class Simulation {
 public:
  /// Runs the default UniformModel over `config` (including its override /
  /// partition / loss feature set).
  Simulation(std::size_t n, NetworkConfig config);
  /// Runs a custom link-layer model. `config` still provides the seed for
  /// the network RNG stream and the notary.
  Simulation(std::size_t n, NetworkConfig config,
             std::unique_ptr<NetworkModel> model);
  ~Simulation();

  std::size_t size() const { return n_; }

  /// Installs the process implementation for slot `id`. Must be called for
  /// every id before start(). Returns a reference for configuration.
  template <typename T, typename... Args>
  T& emplace_process(ProcessId id, Args&&... args) {
    auto proc = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *proc;
    install(id, std::move(proc));
    return ref;
  }
  void install(ProcessId id, std::unique_ptr<Process> process);

  Process& process(ProcessId id);
  const Process& process(ProcessId id) const;

  /// Defers process `id`'s start() to simulated time `t` (staged
  /// participant arrival). Deliveries before the activation wait in the
  /// process's mailbox and are handed over, in arrival order, right after
  /// its deferred start() runs. Must be called before start(); t = 0 means
  /// the process starts with everyone else.
  void activate(ProcessId id, SimTime t);
  bool active(ProcessId id) const { return active_[id] != 0; }

  /// Partitions the processes across `shards` engine shards (0 and 1, the
  /// default, both mean one shard on the calling thread). Must be called
  /// before start(). Requires every *cross-shard* pair under the
  /// p % shards partition to promise a latency floor of at least one tick
  /// (NetworkModel::min_latency(from, to)) — those floors are the
  /// conservative lookahead; intra-shard links may be arbitrarily fast,
  /// and one shard (no cross-shard pairs) accepts any model. Throws
  /// std::invalid_argument naming the offending link otherwise. Results
  /// are bit-identical (Notary logs, metrics, protocol state) for every
  /// shard count.
  void set_shards(std::size_t shards);
  /// Engine instrumentation (zeroed before start). Kept out of SimMetrics
  /// so the metrics identity across shard counts stays exact.
  ShardStats shard_stats() const {
    return engine_ ? engine_->stats() : ShardStats{};
  }

  /// Message-pool instrumentation (all-zero when the pool is disabled via
  /// NetworkConfig::message_pool). Like ShardStats, kept out of SimMetrics:
  /// allocation strategy is invisible to the identity contract.
  MessagePool::Stats pool_stats() const {
    return pool_ ? pool_->stats() : MessagePool::Stats{};
  }

  /// Calls start() on every process not scheduled by activate() (in id
  /// order). Must be called once.
  void start();

  /// Current simulated time. Inside a window this is the timestamp of the
  /// event the calling shard is dispatching; between runs it is the time
  /// of the last processed event.
  // scup-analyze: owner-ok(in-window callers take the ShardContext branch; now_ is read only between windows)
  SimTime now() const {
    if (const ShardContext* ctx = ShardEngine::current()) return ctx->now;
    return now_;
  }

  /// Processes events until `predicate` holds, the event queue empties, or
  /// simulated time would exceed `deadline`. Returns true iff the predicate
  /// held. The predicate is checked on a fixed checkpoint grid: windows are
  /// clamped to multiples of the lookahead quantum
  /// (NetworkConfig::lookahead_quantum) and the predicate runs at grid
  /// points, where every shard count has processed the identical event
  /// set — so the stop point, and with it the final metrics, is identical
  /// for every shard count. A `stride` > 1 skips grid checks until at
  /// least `stride` events have run since the last check, trading a later
  /// stop for fewer calls to an expensive predicate; the event count at a
  /// grid point is shard-invariant, and so is the strided stop.
  template <typename Pred>
  bool run_until(Pred&& predicate, SimTime deadline, std::size_t stride = 1) {
    if (!started_) throw std::logic_error("run_until before start");
    // Bind this simulation's message pool for upcalls running on the
    // calling thread (shard 0); pool threads bind it themselves in
    // ShardEngine::drain.
    const MessagePool::Scope pool_scope(pool_.get());
    if (predicate()) return true;
    deadline = std::min(deadline, kTimeInfinity - 1);
    const SimTime q = engine_->quantum();
    std::size_t since_check = 0;
    for (;;) {
      const SimTime t = engine_->next_event_time();
      if (t > deadline) return predicate();
      // The next grid point strictly past t; events inside [t, check)
      // run before the predicate does. Grid advancement depends only on
      // the global event horizon, never on the shard partition.
      const SimTime check = (t / q + 1) * q;
      const std::size_t before = metrics_.events_processed;
      while (engine_->run_window(deadline, std::min(check, deadline + 1))) {
      }
      since_check += metrics_.events_processed - before;
      if (since_check < stride) continue;
      since_check = 0;
      if (predicate()) return true;
    }
  }

  /// Processes all events with time <= deadline (or until the queue runs
  /// dry). Returns the number of events processed.
  std::size_t run_for(SimTime deadline);

  const SimMetrics& metrics() const { return metrics_; }

  const Notary& notary() const { return notary_; }

  /// Seed of process `sender`'s private network-RNG substream under run
  /// seed `seed`. Exposed so the draw-plan differential test can replay a
  /// sender's verdict stream from scratch with StreamRng::discard.
  static std::uint64_t net_stream_seed(std::uint64_t seed, ProcessId sender) {
    return hash_mix(seed, 0x6e657473ULL /* "nets" */, sender);
  }

  /// Crash-stops `id` now: no sends, no deliveries, no timer fires from
  /// this point on. Crashed processes count against the fault threshold
  /// like any other failure.
  void crash(ProcessId id);
  /// Schedules crash(id) at simulated time `t` (>= now). Usable before or
  /// after start().
  void crash_at(ProcessId id, SimTime t);
  bool crashed(ProcessId id) const { return crashed_[id] != 0; }

 private:
  friend class Process;
  friend class ShardEngine;

  void enqueue_send(ProcessId from, ProcessId to, MessagePtr msg);
  /// Queues one delivery copy whose verdict is already drawn, keyed
  /// (at, sent, from, from's next scheduling count).
  void route_delivery(ShardContext* ctx, ProcessId from, ProcessId to,
                      SimTime sent, SimTime at, MessagePtr msg);
  void enqueue_timer(ProcessId target, int timer_id, SimTime delay);
  /// Queues a driver-side event (crash or deferred activation) under the
  /// engine origin.
  void enqueue_engine_event(EventKind kind, ProcessId target, SimTime at);
  void cancel_timer(ProcessId target, int timer_id);
  std::uint64_t& timer_generation(ProcessId target, int timer_id);
  const std::uint64_t* find_timer_generation(ProcessId target,
                                             int timer_id) const;
  void counter_add(ProtoCounter counter, std::uint64_t delta);
  bool deliverable(ProcessId id) const {
    return active_[id] != 0 && crashed_[id] == 0;
  }
  /// Dispatches one event, attributing metrics to `metrics` (the
  /// dispatching shard's window delta).
  void dispatch(Event& event, SimMetrics& metrics);
  /// Adds `delta` into metrics_ field-by-field, then zeroes `delta` in
  /// place (keeping its vector capacity). Barrier-side shard merge.
  void absorb_metrics(SimMetrics& delta);

  std::size_t n_;
  NetworkConfig config_;
  std::unique_ptr<NetworkModel> model_;
  // scup-owner: engine
  SimTime now_ = 0;
  /// Scheduling count of driver-side (engine-origin) events.
  // scup-owner: engine
  std::uint64_t engine_counter_ = 0;
  // drawplan begin(owner declaration: one private StreamRng substream per
  // sender, seeded from net_stream_seed; all draws go through the audited
  // verdict site in enqueue_send)
  // scup-owner: shard
  std::vector<StreamRng> net_streams_;
  // drawplan end
  /// Per-process scheduling counts: the origin_counter word of every key
  /// a process's dispatch hands out, advanced only on its own shard.
  // scup-owner: shard
  std::vector<std::uint64_t> origin_counters_;
  /// One sign log per signer, appended only by the signer's own dispatch.
  // scup-owner: shard
  Notary notary_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> process_rngs_;
  // Byte-sized flags, not std::vector<bool>: shards read neighbouring
  // entries concurrently, and vector<bool>'s bit packing would make those
  // reads race on shared words.
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> active_;
  std::vector<SimTime> activation_time_;  // 0 = start with everyone else
  std::vector<std::pair<ProcessId, SimTime>> pending_crashes_;
  /// Pre-activation deliveries, in arrival order.
  std::vector<std::vector<std::pair<ProcessId, MessagePtr>>> mailboxes_;
  /// Generation counters for timer cancellation/re-arming. A process uses
  /// a handful of distinct timer ids, so a flat (id, generation) vector
  /// with linear scan beats the old per-process std::map.
  std::vector<std::vector<std::pair<int, std::uint64_t>>> timer_generations_;
  // scup-owner: engine
  SimMetrics metrics_;
  std::size_t shards_requested_ = 0;
  std::unique_ptr<ShardEngine> engine_;
  /// Slab arena behind make_message (null when disabled). Declared after
  /// the queues/processes it outlives within this object is irrelevant:
  /// blocks survive the pool handle via the allocator's State keep-alive,
  /// so member destruction order cannot dangle.
  std::unique_ptr<MessagePool> pool_;
  bool started_ = false;
};

}  // namespace scup::sim
