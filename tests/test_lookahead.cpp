// Lookahead-window suite: per-pair window widths, the draw-plan RNG
// replay contract, and the identity guarantees both must preserve.
//
//  - shard_window_widths unit tests: the per-shard W_out derived from the
//    cross-shard latency matrix, the unbounded single-shard case, and the
//    configure-time errors that name the offending link (or the base
//    floor) when a topology makes sharding illegal.
//  - Identity grid: heterogeneous link overrides x partition windows x
//    pre-GST loss/duplication, run at shards {0, 1, 2, 3, 8} under both
//    run_for and run_until — metrics, Notary fingerprints, receipt logs and
//    end times must be bit-identical. The scenario-level grid repeats the
//    check through run_until's checkpoint grid for both protocols.
//  - Draw-plan differential test: a recording wrapper captures every
//    (from, to, now, stream position, verdict) a live run produced; each
//    record is then replayed from a fresh StreamRng jumped to the recorded
//    position with discard() — the verdict must reproduce exactly and the
//    stream must land at position + draws_per_send(now). This pins the
//    property the parallel send-time verdict path rests on: a sender's
//    stream position is the prefix sum of its own draw plan.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/wire.hpp"

namespace scup::sim {
namespace {

struct HetMsg final : Message {
  HetMsg(int t, std::uint64_t g) : ttl(t), tag(g) {}
  int ttl;
  std::uint64_t tag;
  std::string type_name() const override { return "test.het"; }
  std::uint16_t wire_type() const override { return kWireTestTypeFirst + 2; }
  void wire_encode(WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(ttl));
    w.u64(tag);
  }
};

/// Workload tuned for heterogeneous topologies: the (id -> id+2) lane is
/// the one the fast link overrides cover, so under an even/odd shard split
/// most traffic is fast intra-shard (delivered inside the window) while the
/// (id -> id+1) and tag-directed sends cross shards on slow links.
class HetNode : public Process {
 public:
  HetNode(std::size_t n, int ttl) : n_(n), ttl0_(ttl) {}

  void start() override {
    sign(0xbea70000 + id());
    send((id() + 1) % n_, make_message<HetMsg>(ttl0_, id() * 11 + 1));
    send((id() + 2) % n_, make_message<HetMsg>(ttl0_, id() * 17 + 2));
    set_timer(1, 1 + id() % 4);
  }

  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& m = dynamic_cast<const HetMsg&>(*msg);
    log_.push_back(hash_mix(hash_mix(from, m.tag), now(),
                            static_cast<std::uint64_t>(m.ttl)));
    sign(m.tag * 29 + static_cast<std::uint64_t>(m.ttl));
    if (m.ttl > 0) {
      send((id() + 2) % n_, make_message<HetMsg>(m.ttl - 1, m.tag + 3));
      if (m.tag % 3 == 0) {
        send((id() + m.tag) % n_, make_message<HetMsg>(m.ttl - 1, m.tag + 1));
      }
      if (m.ttl % 2 == 0) set_timer(2, m.tag % 3);
    }
  }

  void on_timer(int timer_id) override {
    log_.push_back(
        hash_mix(0x7133, static_cast<std::uint64_t>(timer_id), now()));
    if (timer_id == 1 && ++reps_ < 3) set_timer(1, 3);
  }

  std::vector<std::uint64_t> log_;

 private:
  std::size_t n_;
  int ttl0_;
  int reps_ = 0;
};

constexpr std::size_t kHetN = 24;

/// Slow base (min 6) with fast (id -> id+2) lanes (min 1): under an
/// even/odd split every override is intra-shard, so per-pair lookahead
/// keeps the 6-tick cross-shard floor while the global min collapses to 1.
NetworkConfig het_net(std::uint64_t seed) {
  NetworkConfig net;
  net.gst = 0;
  net.min_delay = 6;
  net.max_delay = 12;
  net.seed = seed;
  for (ProcessId i = 0; i < kHetN; ++i) {
    net.link_overrides.push_back(
        {i, static_cast<ProcessId>((i + 2) % kHetN), 1, 3});
  }
  return net;
}

struct HetRun {
  SimMetrics metrics;
  std::uint64_t fingerprint = 0;
  std::vector<std::vector<std::uint64_t>> logs;
  ShardStats stats;
  SimTime end = 0;
};

/// Runs the het workload to `horizon` with run_for, or — when `receipts` is
/// nonzero — with run_until, stopping at the first checkpoint-grid point
/// where that many receipts have been logged.
HetRun run_het(std::size_t shards, const NetworkConfig& net,
               SimTime horizon = 100'000, std::size_t receipts = 0) {
  Simulation sim(kHetN, net);
  std::vector<HetNode*> nodes;
  for (ProcessId i = 0; i < kHetN; ++i) {
    nodes.push_back(&sim.emplace_process<HetNode>(i, kHetN, 6));
  }
  sim.set_shards(shards);
  sim.start();
  if (receipts == 0) {
    sim.run_for(horizon);
  } else {
    sim.run_until(
        [&] {
          std::size_t total = 0;
          for (const auto* node : nodes) total += node->log_.size();
          return total >= receipts;
        },
        horizon);
  }
  HetRun out;
  out.metrics = sim.metrics();
  out.fingerprint = sim.notary().fingerprint();
  for (auto* node : nodes) out.logs.push_back(node->log_);
  out.stats = sim.shard_stats();
  out.end = sim.now();
  return out;
}

// ---------------------------------------------------------------------------
// shard_window_widths: the per-pair lookahead matrix.

TEST(LookaheadWindowTest, PerPairWidthsReflectTheCrossShardMatrix) {
  // n = 4, shards = 2 -> shard 0 = {0, 2}, shard 1 = {1, 3}. The single
  // override 0 -> 1 crosses the partition and constrains shard 0's
  // outbound floor; shard 1 has no overrides and keeps the base floor.
  NetworkConfig net;
  net.min_delay = 6;
  net.max_delay = 12;
  net.link_overrides.push_back({0, 1, 2, 9});
  const UniformModel model(net);
  const std::vector<SimTime> w = shard_window_widths(model, 4, 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 2);
  EXPECT_EQ(w[1], 6);
}

TEST(LookaheadWindowTest, IntraShardOverridesNeverConstrainTheWindow) {
  // Every fast lane in het_net is even->even or odd->odd: intra-shard
  // under an even/odd split, so both shards keep the full 6-tick base
  // floor — the fix for the global-min pessimization.
  const UniformModel model(het_net(1));
  const std::vector<SimTime> w = shard_window_widths(model, kHetN, 2);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], 6);
  EXPECT_EQ(w[1], 6);
  // Under 3 shards the same lanes cross the partition (i and i+2 differ
  // mod 3) and drag the floor down to the override minimum.
  for (SimTime width : shard_window_widths(model, kHetN, 3)) {
    EXPECT_EQ(width, 1);
  }
}

TEST(LookaheadWindowTest, SingleShardHasUnboundedLookahead) {
  // One shard means no cross-shard pairs: any model is legal, even one
  // with a zero latency floor, and the width is unbounded.
  NetworkConfig net;
  net.min_delay = 0;
  net.max_delay = 4;
  const UniformModel model(net);
  const std::vector<SimTime> w = shard_window_widths(model, 8, 1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], kTimeInfinity);
}

TEST(LookaheadWindowTest, NamesTheOffendingCrossShardLink) {
  NetworkConfig net;
  net.min_delay = 6;
  net.max_delay = 12;
  net.link_overrides.push_back({0, 1, 0, 4});  // zero-latency cross link
  const UniformModel model(net);
  try {
    shard_window_widths(model, 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 -> 1"), std::string::npos) << what;
  }
  // The same topology is fine when the link stays inside one shard: with
  // one shard there is no partition to cross.
  EXPECT_NO_THROW(shard_window_widths(model, 4, 1));
}

TEST(LookaheadWindowTest, NamesTheBaseFloorWhenUnoverriddenPairsAreTooFast) {
  NetworkConfig net;
  net.min_delay = 0;  // base floor too fast; no overrides to save it
  net.max_delay = 4;
  const UniformModel model(net);
  try {
    shard_window_widths(model, 4, 2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("base_min_latency"), std::string::npos) << what;
  }
}

TEST(LookaheadWindowTest, ZeroLatencyModelIsLegalWithOneShard) {
  // set_shards(2) rejects a zero floor, but set_shards(1) must accept it
  // (unbounded lookahead needs no latency promise), and shards 0 must run
  // the same one-shard engine bit for bit — including same-tick
  // deliveries, which land in the bucket being drained.
  NetworkConfig net;
  net.gst = 0;
  net.min_delay = 0;
  net.max_delay = 4;
  net.seed = 5;
  const HetRun zero = run_het(0, net, 2'000);
  const HetRun one = run_het(1, net, 2'000);
  EXPECT_EQ(zero.metrics, one.metrics);
  EXPECT_EQ(zero.fingerprint, one.fingerprint);
  EXPECT_EQ(zero.logs, one.logs);
  EXPECT_EQ(zero.end, one.end);
}

// ---------------------------------------------------------------------------
// Identity: lookahead must change window schedules, never results.

TEST(LookaheadIdentityTest, ZeroLatencyIntraShardLanesAreShardInvariant) {
  // The (id -> id+2) lanes have a zero latency floor, so deliveries land
  // at their send tick in the bucket being drained, behind the batch they
  // were sent from. Under an even/odd split every such lane stays inside
  // one shard, which makes shards {0, 1, 2} legal — and identical.
  NetworkConfig net = het_net(13);
  for (auto& lane : net.link_overrides) {
    lane.min_delay = 0;
    lane.max_delay = 2;
  }
  const HetRun base = run_het(1, net, 5'000);
  for (std::size_t shards : {0u, 2u}) {
    const HetRun run = run_het(shards, net, 5'000);
    EXPECT_EQ(run.metrics, base.metrics) << "shards=" << shards;
    EXPECT_EQ(run.fingerprint, base.fingerprint) << "shards=" << shards;
    EXPECT_EQ(run.logs, base.logs) << "shards=" << shards;
    EXPECT_EQ(run.end, base.end) << "shards=" << shards;
  }
}

TEST(LookaheadIdentityTest, HetLinksPartitionsAndLossAcrossShardCounts) {
  // The full feature set at once: heterogeneous links, a partition window,
  // pre-GST loss and duplication (the four-draw plan), under run_for and
  // under run_until (stopping mid-run at a checkpoint-grid point).
  NetworkConfig net = het_net(23);
  net.gst = 400;
  net.pre_gst_max_delay = 60;
  net.pre_gst_drop = 0.2;
  net.pre_gst_duplicate = 0.2;
  PartitionWindow cut;
  cut.side = NodeSet(kHetN);
  for (ProcessId i = 0; i < kHetN / 3; ++i) cut.side.add(i);
  cut.start = 50;
  cut.heal = 400;
  net.partitions.push_back(cut);

  for (std::size_t receipts : {0u, 300u}) {
    const HetRun base = run_het(1, net, 100'000, receipts);
    ASSERT_NE(base.fingerprint, 0u);
    ASSERT_GT(base.metrics.messages_dropped, 0u);
    ASSERT_GT(base.metrics.messages_duplicated, 0u);
    for (std::size_t shards : {0u, 2u, 3u, 8u}) {
      const HetRun run = run_het(shards, net, 100'000, receipts);
      EXPECT_EQ(run.metrics, base.metrics)
          << "shards=" << shards << " receipts=" << receipts;
      EXPECT_EQ(run.fingerprint, base.fingerprint)
          << "shards=" << shards << " receipts=" << receipts;
      EXPECT_EQ(run.logs, base.logs)
          << "shards=" << shards << " receipts=" << receipts;
      EXPECT_EQ(run.end, base.end)
          << "shards=" << shards << " receipts=" << receipts;
    }
  }
}

TEST(LookaheadIdentityTest, ScenarioGridBothProtocolsThroughRunUntil) {
  // run_until's checkpoint grid: scenario runs stop on a predicate, so the
  // stop point itself must be shard-count-invariant. Heterogeneous links
  // are injected on top of the churn+partition scenario to give per-pair
  // lookahead something to differ on.
  for (core::ProtocolKind protocol :
       {core::ProtocolKind::kStellarSd, core::ProtocolKind::kBftCup}) {
    core::ChurnPartitionParams p;
    p.protocol = protocol;
    p.seed = 11;
    p.with_partition = true;
    p.pre_gst_drop = 0.1;
    core::ScenarioConfig cfg = core::churn_partition_scenario(p);
    cfg.net.link_overrides.push_back({2, 7, 2, 9});
    cfg.net.link_overrides.push_back({7, 2, 2, 9});
    cfg.net.link_overrides.push_back({0, 3, 3, 9});
    cfg.shards = 1;
    const core::ScenarioReport base = core::run_scenario(cfg);
    ASSERT_TRUE(base.all_decided) << "protocol=" << static_cast<int>(protocol);
    for (std::size_t shards : {0u, 2u, 3u, 8u}) {
      cfg.shards = shards;
      const core::ScenarioReport run = core::run_scenario(cfg);
      EXPECT_EQ(run.notary_fingerprint, base.notary_fingerprint)
          << "protocol=" << static_cast<int>(protocol)
          << " shards=" << shards;
      EXPECT_EQ(run.metrics, base.metrics)
          << "protocol=" << static_cast<int>(protocol)
          << " shards=" << shards;
      EXPECT_EQ(run.decision_times, base.decision_times)
          << "protocol=" << static_cast<int>(protocol)
          << " shards=" << shards;
      EXPECT_EQ(run.end_time, base.end_time)
          << "protocol=" << static_cast<int>(protocol)
          << " shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Draw-plan replay: the contract the parallel verdict path rests on.

struct SendRecord {
  ProcessId from = 0;
  ProcessId to = 0;
  SimTime now = 0;
  std::uint64_t pos_before = 0;
  NetworkModel::Verdict verdict;
};

/// Wraps a UniformModel and records every verdict together with the stream
/// position it was drawn at. Only safe at shards {0, 1} (single-threaded).
class RecordingModel final : public NetworkModel {
 public:
  RecordingModel(const NetworkConfig& config, std::vector<SendRecord>* out)
      : inner_(config), out_(out) {}

  Verdict on_send(ProcessId from, ProcessId to, SimTime now,
                  StreamRng& rng) override {
    const std::uint64_t pos = rng.position();
    const Verdict v = inner_.on_send(from, to, now, rng);
    out_->push_back({from, to, now, pos, v});
    return v;
  }

  std::uint64_t draws_per_send(SimTime now) const override {
    return inner_.draws_per_send(now);
  }
  SimTime min_latency() const override { return inner_.min_latency(); }
  SimTime min_latency(ProcessId from, ProcessId to) const override {
    return inner_.min_latency(from, to);
  }
  SimTime base_min_latency() const override {
    return inner_.base_min_latency();
  }
  std::vector<LatencyOverride> latency_overrides() const override {
    return inner_.latency_overrides();
  }

 private:
  UniformModel inner_;
  std::vector<SendRecord>* out_;
};

std::vector<SendRecord> record_run(std::size_t shards,
                                   const NetworkConfig& net) {
  std::vector<SendRecord> records;
  Simulation sim(kHetN, net,
                 std::make_unique<RecordingModel>(net, &records));
  for (ProcessId i = 0; i < kHetN; ++i) {
    sim.emplace_process<HetNode>(i, kHetN, 5);
  }
  sim.set_shards(shards);
  sim.start();
  sim.run_for(1'500);
  return records;
}

TEST(DrawPlanTest, ReplayReproducesEveryVerdictDrawForDraw) {
  NetworkConfig net = het_net(77);
  net.gst = 300;
  net.pre_gst_max_delay = 40;
  net.pre_gst_drop = 0.3;
  net.pre_gst_duplicate = 0.3;

  const std::vector<SendRecord> live = record_run(1, net);
  ASSERT_FALSE(live.empty());

  // Per-sender histories are identical between the two single-threaded
  // selectors (the global interleave of verdict calls is free to differ,
  // each sender's own send order is not).
  const std::vector<SendRecord> zero = record_run(0, net);
  auto by_sender = [](const std::vector<SendRecord>& all) {
    std::vector<std::vector<SendRecord>> out(kHetN);
    for (const SendRecord& r : all) out[r.from].push_back(r);
    return out;
  };
  const auto live_by = by_sender(live);
  const auto zero_by = by_sender(zero);
  for (ProcessId sender = 0; sender < kHetN; ++sender) {
    ASSERT_EQ(live_by[sender].size(), zero_by[sender].size())
        << "sender " << sender;
    for (std::size_t i = 0; i < live_by[sender].size(); ++i) {
      const SendRecord& a = live_by[sender][i];
      const SendRecord& b = zero_by[sender][i];
      EXPECT_EQ(a.to, b.to);
      EXPECT_EQ(a.now, b.now);
      EXPECT_EQ(a.pos_before, b.pos_before);
      EXPECT_EQ(a.verdict.deliver_at, b.verdict.deliver_at);
      EXPECT_EQ(a.verdict.dropped, b.verdict.dropped);
      EXPECT_EQ(a.verdict.duplicated, b.verdict.duplicated);
      EXPECT_EQ(a.verdict.duplicate_at, b.verdict.duplicate_at);
    }
  }

  // Every record replays from a cold stream: seed the sender's substream,
  // jump to the recorded position with discard, and the verdict must come
  // out identical — with the stream landing exactly draws_per_send later.
  UniformModel replay_model(net);
  bool saw_drop = false;
  bool saw_dup = false;
  for (const SendRecord& r : live) {
    StreamRng stream(Simulation::net_stream_seed(net.seed, r.from));
    stream.discard(r.pos_before);
    const NetworkModel::Verdict v =
        replay_model.on_send(r.from, r.to, r.now, stream);
    EXPECT_EQ(v.deliver_at, r.verdict.deliver_at);
    EXPECT_EQ(v.dropped, r.verdict.dropped);
    EXPECT_EQ(v.duplicated, r.verdict.duplicated);
    EXPECT_EQ(v.duplicate_at, r.verdict.duplicate_at);
    EXPECT_EQ(stream.position(),
              r.pos_before + replay_model.draws_per_send(r.now));
    saw_drop = saw_drop || v.dropped;
    saw_dup = saw_dup || v.duplicated;
  }
  // The run must actually exercise the full four-draw pre-GST plan.
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_dup);
}

/// Declares a one-draw plan but consumes two: the per-send enforcement in
/// enqueue_send must catch it.
class LyingModel final : public NetworkModel {
 public:
  Verdict on_send(ProcessId, ProcessId, SimTime now,
                  StreamRng& rng) override {
    Verdict v;
    v.deliver_at = now + 1 + static_cast<SimTime>(rng.uniform(4));
    rng.next_u64();  // the undeclared second draw
    return v;
  }
  std::uint64_t draws_per_send(SimTime) const override { return 1; }
  SimTime min_latency() const override { return 1; }
};

class OneShotSender : public Process {
 public:
  void start() override { send(1, make_message<HetMsg>(0, 1)); }
  void on_message(ProcessId, const MessagePtr&) override {}
};

TEST(DrawPlanTest, ContractViolationIsDetectedAtTheSend) {
  for (std::size_t shards : {0u, 1u}) {
    NetworkConfig net;
    net.min_delay = 1;
    net.max_delay = 5;
    Simulation sim(2, net, std::make_unique<LyingModel>());
    sim.emplace_process<OneShotSender>(0);
    sim.emplace_process<OneShotSender>(1);
    sim.set_shards(shards);
    EXPECT_THROW(sim.start(), std::logic_error) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace scup::sim
