// NetworkModel — the pluggable link layer of the simulator.
//
// The paper's system model (Section III-A) is partial synchrony over
// reliable authenticated channels: messages sent before GST suffer
// arbitrary (configuration-bounded) delays; messages sent after GST arrive
// within [min_delay, max_delay]. A NetworkModel decides, per send, when (or
// whether) a message is delivered, which lets experiments express the
// adversary-space the plain uniform-delay simulator could not:
//
//  - per-link / per-direction delay overrides (asymmetric links, a slow
//    WAN edge inside a fast cluster);
//  - partition schedules: a node-set bipartition is cut for a time window
//    and heals afterwards (heal at GST to stay inside the reliable-channel
//    model — messages crossing the cut are *deferred* to the heal, never
//    lost);
//  - pre-GST message loss and duplication (channels only need to be
//    reliable from GST on for the paper's liveness arguments; protocols
//    that want liveness through a lossy pre-GST phase must retransmit, see
//    cup::DiscoveryConfig::requery_interval).
//
// The default UniformModel with a default-constructed feature set draws
// exactly one uniform delay per send from the simulation's network RNG —
// the same stream the pre-NetworkModel simulator drew — so existing
// seeds reproduce byte-identical runs.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace scup::sim {

/// Directional delay override: messages from `from` to `to` use
/// [min_delay, max_delay] instead of the global bounds (both pre- and
/// post-GST; an override models a link's physical latency, which partial
/// synchrony does not change). Add two entries for a symmetric link.
struct LinkOverride {
  ProcessId from = kInvalidProcess;
  ProcessId to = kInvalidProcess;
  SimTime min_delay = 1;
  SimTime max_delay = 10;
};

/// Bipartition cut active during [start, heal): messages crossing between
/// `side` and its complement while the window is active are deferred to
/// `heal` plus a freshly-sampled delay (reliable channels: deferred, not
/// dropped). Messages already in flight when the window opens are
/// unaffected (the cut applies at send time). Keep `heal <= gst` to stay
/// inside the paper's model; the simulator itself allows any window.
struct PartitionWindow {
  NodeSet side;
  SimTime start = 0;
  SimTime heal = 0;
};

struct NetworkConfig {
  /// Global stabilization time. 0 means the system is synchronous from the
  /// start.
  SimTime gst = 0;
  /// Post-GST delivery delay bounds [min_delay, max_delay].
  SimTime min_delay = 1;
  SimTime max_delay = 10;
  /// Pre-GST delays are uniform in [min_delay, pre_gst_max_delay]; messages
  /// in flight at GST still use their sampled delay (they are all
  /// eventually delivered, as required by reliable channels).
  SimTime pre_gst_max_delay = 200;
  std::uint64_t seed = 1;

  // ---- UniformModel feature set (all off by default; when off, the RNG
  // ---- stream is exactly the historical one-draw-per-send stream). ----

  /// Probability that a message sent before GST is lost. Post-GST sends
  /// are never dropped (reliable from GST on).
  double pre_gst_drop = 0.0;
  /// Probability that a message sent before GST is delivered twice (the
  /// duplicate gets its own sampled delay).
  double pre_gst_duplicate = 0.0;
  /// Per-direction delay overrides (first matching entry wins).
  std::vector<LinkOverride> link_overrides;
  /// Partition schedule (all active crossing windows apply; the latest
  /// heal wins).
  std::vector<PartitionWindow> partitions;

  // ---- engine lookahead knobs ----

  /// Spacing of the run_until predicate-checkpoint grid. Windows are
  /// clamped to multiples of this quantum and the predicate is evaluated
  /// only at those grid points, which is what keeps the stop point (and
  /// with it the final metrics) identical for every shard count even
  /// though window widths depend on the shard partition. 0 = auto: the
  /// model's base_min_latency(), floored at one tick.
  SimTime lookahead_quantum = 0;

  // ---- broadcast-plane knobs ----

  /// Draw message storage from the per-Simulation slab pool
  /// (sim/message_pool.hpp) inside run loops. Purely an allocation
  /// strategy — results are bit-identical either way; kept selectable so
  /// the E16 bench can A/B legacy make_shared against the pooled plane.
  bool message_pool = true;

  /// Collect the barrier-replay timing breakdown (ShardStats::*_ns) with
  /// steady_clock timers. Off by default: wall-clock reads cost more than
  /// a narrow window body, and timing lives outside the identity contract
  /// (ShardStats is never part of SimMetrics).
  bool shard_timing = false;
};

/// Link-layer policy: one verdict per send. Implementations draw all
/// randomness from the `rng` handed in (the sending process's dedicated
/// per-sender network stream), so a (model, seed) pair fully determines
/// every delivery.
///
/// Draw-plan contract: on_send must consume exactly draws_per_send(now)
/// draws from `rng`, independent of the link, the sampled values, or the
/// verdict. The simulation enforces this per send (a violation throws).
/// The contract is what lets shards evaluate verdicts in parallel at send
/// time — each sender's stream position is the prefix sum of its own draw
/// plan, so StreamRng::discard can jump any replay to the exact draw a
/// live run used (pinned by the draw-plan differential test).
class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  struct Verdict {
    /// Absolute delivery time (ignored when dropped).
    SimTime deliver_at = 0;
    /// True: the message is lost (only meaningful pre-GST).
    bool dropped = false;
    /// True: deliver a second copy at `duplicate_at`.
    bool duplicated = false;
    SimTime duplicate_at = 0;
  };

  /// Called once per send, at simulated time `now`.
  virtual Verdict on_send(ProcessId from, ProcessId to, SimTime now,
                          StreamRng& rng) = 0;

  /// Exact number of draws on_send consumes for a send at time `now` (the
  /// draw plan). Must not depend on the (from, to) pair — the plan has to
  /// be computable without knowing which link a past send used. Default 0:
  /// correct for deterministic models that never touch the stream.
  virtual std::uint64_t draws_per_send(SimTime now) const {
    (void)now;
    return 0;
  }

  /// Conservative lower bound on link latency: on_send must never schedule
  /// a delivery (either copy) earlier than `now + min_latency()`, on any
  /// link, at any time. A model must not over-promise — the sharded
  /// engine's soundness rests on these bounds. The default (0) is always
  /// safe but disables sharded execution across > 1 shard.
  virtual SimTime min_latency() const { return 0; }

  /// Per-pair refinement of min_latency(): on_send(from, to, now, ...)
  /// must never schedule a delivery earlier than
  /// now + min_latency(from, to). The sharded engine derives its window
  /// width from the minimum over *cross-shard* pairs only, so a topology
  /// with fast intra-shard links and slow cross-shard links gets windows
  /// as wide as the slow links allow. Default: the global bound.
  virtual SimTime min_latency(ProcessId from, ProcessId to) const {
    (void)from;
    (void)to;
    return min_latency();
  }

  /// One directed pair whose latency floor differs from
  /// base_min_latency().
  struct LatencyOverride {
    ProcessId from = kInvalidProcess;
    ProcessId to = kInvalidProcess;
    SimTime min_delay = 0;
  };

  /// The latency floor of every pair NOT listed by latency_overrides().
  /// Together the two describe the whole min_latency(from, to) matrix in
  /// O(#overrides) space, which is how the engine computes per-shard
  /// window widths without n^2 virtual calls. Default: the global bound.
  virtual SimTime base_min_latency() const { return min_latency(); }

  /// Sparse exceptions to base_min_latency(), at most one entry per
  /// directed (from, to) pair. Default: none.
  virtual std::vector<LatencyOverride> latency_overrides() const {
    return {};
  }
};

/// The default model: uniform delays with the NetworkConfig feature set
/// (overrides, partitions, pre-GST loss/duplication). Sampling order per
/// send is fixed — base delay, then drop chance, then duplicate chance,
/// then the duplicate's delay — and per the draw-plan contract the number
/// of draws depends only on which features are *enabled* (and on now vs
/// GST), never on the sampled outcomes: one draw for the base delay, plus
/// one pre-GST when dropping is enabled, plus two pre-GST when
/// duplication is enabled (the coin and the duplicate's delay, drawn even
/// when the coin says no).
class UniformModel : public NetworkModel {
 public:
  explicit UniformModel(const NetworkConfig& config);

  Verdict on_send(ProcessId from, ProcessId to, SimTime now,
                  StreamRng& rng) override;

  std::uint64_t draws_per_send(SimTime now) const override;

  /// min over the global min_delay and every link override's min_delay
  /// (partitions only defer deliveries, so they never lower the bound).
  SimTime min_latency() const override { return min_latency_; }

  /// Per-pair floors: an overridden link reports its own min_delay; every
  /// other pair reports the global min_delay — NOT min_latency(), whose
  /// global min would let one fast override link drag the floor down for
  /// all traffic (the pre-lookahead window pessimization).
  SimTime min_latency(ProcessId from, ProcessId to) const override;

  SimTime base_min_latency() const override { return config_.min_delay; }

  std::vector<LatencyOverride> latency_overrides() const override;

 private:
  /// Delay bounds for one directed link at time `now`.
  std::pair<SimTime, SimTime> bounds(ProcessId from, ProcessId to,
                                     SimTime now) const;
  /// Heal time of the latest partition window cutting (from, to) at `now`,
  /// or -1 when the link is uncut.
  SimTime crossing_heal(ProcessId from, ProcessId to, SimTime now) const;

  NetworkConfig config_;
  std::map<std::pair<ProcessId, ProcessId>, std::pair<SimTime, SimTime>>
      overrides_;
  SimTime min_latency_ = 0;
};

}  // namespace scup::sim
