// Shard-count invariance suite for the event engine: for every workload
// here, running with shards in {0, 1, 2, 3, 8} must produce bit-identical
// observables — SimMetrics, the Notary sign-log fingerprint, per-process
// receipt logs, ledger chain digests, end time — under both run_for and
// run_until, because the engine's contract is that the shard count
// changes wall-clock time and nothing else. shards == 1 is the base every
// other count is compared against; shards == 0 selects the same one-shard
// engine.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/ledger_node.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/wire.hpp"

namespace scup::sim {
namespace {

NetworkConfig gossip_net(SimTime min_delay, SimTime max_delay,
                         std::uint64_t seed) {
  NetworkConfig net;
  net.gst = 0;
  net.min_delay = min_delay;
  net.max_delay = max_delay;
  net.seed = seed;
  return net;
}

struct GossipMsg final : Message {
  GossipMsg(int t, std::uint64_t g) : ttl(t), tag(g) {}
  int ttl;
  std::uint64_t tag;
  std::string type_name() const override { return "test.gossip"; }
  std::uint16_t wire_type() const override { return kWireTestTypeFirst + 1; }
  void wire_encode(WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(ttl));
    w.u64(tag);
  }
};

/// Fans gossip across the ring, signing every receipt, re-arming short
/// timers (delays below the window width, some zero) and spawning
/// follow-up sends — a workload that exercises every effect kind at once.
class GossipNode : public Process {
 public:
  GossipNode(std::size_t n, int ttl) : n_(n), ttl0_(ttl) {}

  void start() override {
    sign(0x5eed0000 + id());
    send((id() + 1) % n_, make_message<GossipMsg>(ttl0_, id() * 7 + 1));
    send((id() + 5) % n_, make_message<GossipMsg>(ttl0_ - 1, id() * 13 + 2));
    set_timer(1, 1 + id() % 3);
  }

  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& g = dynamic_cast<const GossipMsg&>(*msg);
    log_.push_back(hash_mix(hash_mix(from, g.tag), now(),
                            static_cast<std::uint64_t>(g.ttl)));
    sign(g.tag * 31 + static_cast<std::uint64_t>(g.ttl));
    if (g.ttl > 0) {
      send((id() + g.tag) % n_, make_message<GossipMsg>(g.ttl - 1, g.tag + 1));
      if (g.ttl % 2 == 1) set_timer(2, g.tag % 4);
    }
  }

  void on_timer(int timer_id) override {
    log_.push_back(
        hash_mix(0x717e5, static_cast<std::uint64_t>(timer_id), now()));
    if (timer_id == 1 && ++reps_ < 4) set_timer(1, 2);
  }

  std::vector<std::uint64_t> log_;

 private:
  std::size_t n_;
  int ttl0_;
  int reps_ = 0;
};

struct GossipRun {
  SimMetrics metrics;
  std::uint64_t fingerprint = 0;
  std::vector<std::vector<std::uint64_t>> logs;
  ShardStats stats;
  SimTime end = 0;
};

constexpr std::size_t kGossipN = 24;
/// The shard counts every identity test sweeps; shards == 1 is the base.
constexpr std::size_t kOtherShardCounts[] = {0, 2, 3, 8};

/// How a run is driven: run_for drains every event up to the deadline;
/// run_until stops at the first checkpoint-grid point (checked every
/// `stride` events or more) where enough receipts have been logged.
enum class Drive { kRunFor, kRunUntil };

const char* drive_name(Drive drive) {
  return drive == Drive::kRunFor ? "run_for" : "run_until";
}

std::size_t receipts(const std::vector<GossipNode*>& nodes) {
  std::size_t total = 0;
  for (const auto* node : nodes) total += node->log_.size();
  return total;
}

void advance(Simulation& sim, Drive drive, SimTime deadline,
             const std::vector<GossipNode*>& nodes, std::size_t target) {
  if (drive == Drive::kRunFor) {
    sim.run_for(deadline);
    return;
  }
  sim.run_until([&] { return receipts(nodes) >= target; }, deadline,
                /*stride=*/5);
}

/// Runs the gossip workload. Crashes in `before` are scheduled before
/// start(); with crashes in `after`, the run first advances to tick 15
/// (or 60 receipts), schedules them, then continues.
GossipRun run_gossip(
    std::size_t shards, const NetworkConfig& net, Drive drive = Drive::kRunFor,
    const std::vector<std::pair<ProcessId, SimTime>>& before = {},
    const std::vector<std::pair<ProcessId, SimTime>>& after = {}) {
  Simulation sim(kGossipN, net);
  std::vector<GossipNode*> nodes;
  for (ProcessId i = 0; i < kGossipN; ++i) {
    nodes.push_back(&sim.emplace_process<GossipNode>(i, kGossipN, 6));
  }
  for (const auto& [who, when] : before) sim.crash_at(who, when);
  sim.set_shards(shards);
  sim.start();
  if (!after.empty()) {
    advance(sim, drive, 15, nodes, 60);
    for (const auto& [who, when] : after) sim.crash_at(who, sim.now() + when);
  }
  advance(sim, drive, 100'000, nodes, 400);
  GossipRun out;
  out.metrics = sim.metrics();
  out.fingerprint = sim.notary().fingerprint();
  for (auto* node : nodes) out.logs.push_back(node->log_);
  out.stats = sim.shard_stats();
  out.end = sim.now();
  return out;
}

void expect_identical(const GossipRun& run, const GossipRun& base,
                      std::size_t shards, Drive drive) {
  EXPECT_EQ(run.metrics, base.metrics)
      << "metrics diverged at shards=" << shards << " " << drive_name(drive);
  EXPECT_EQ(run.fingerprint, base.fingerprint)
      << "sign logs diverged at shards=" << shards << " "
      << drive_name(drive);
  EXPECT_EQ(run.logs, base.logs)
      << "receipts diverged at shards=" << shards << " " << drive_name(drive);
  EXPECT_EQ(run.end, base.end)
      << "end time diverged at shards=" << shards << " " << drive_name(drive);
}

TEST(ShardedSimulationTest, SetShardsAfterStartThrows) {
  Simulation sim(2, gossip_net(1, 5, 1));
  sim.emplace_process<GossipNode>(0, 2, 1);
  sim.emplace_process<GossipNode>(1, 2, 1);
  sim.start();
  EXPECT_THROW(sim.set_shards(2), std::logic_error);
}

TEST(ShardedSimulationTest, RejectsModelsWithoutMinimumLatency) {
  // min_delay = 0 means the UniformModel cannot promise the >= 1 tick
  // cross-shard lookahead the engine needs for shards >= 2.
  Simulation sim(2, gossip_net(0, 5, 1));
  EXPECT_THROW(sim.set_shards(2), std::invalid_argument);
  sim.set_shards(1);  // one shard has no cross-shard pairs to bound
  sim.set_shards(0);
}

TEST(ShardedSimulationTest, WindowedMatchesLegacyOnFullDrain) {
  // shards == 0, the default, selects exactly the one-shard engine that
  // shards == 1 does: same observables, same window schedule.
  const NetworkConfig net = gossip_net(1, 7, 42);
  const GossipRun zero = run_gossip(0, net);
  const GossipRun one = run_gossip(1, net);
  expect_identical(zero, one, 0, Drive::kRunFor);
  EXPECT_GT(one.stats.windows, 0u);
  EXPECT_EQ(zero.stats.windows, one.stats.windows);
  EXPECT_EQ(zero.stats.shards, 1u);
  EXPECT_EQ(one.stats.shards, 1u);
  EXPECT_EQ(zero.stats.staged_ops, 0u);  // nothing crosses one shard
}

TEST(ShardedSimulationTest, ShardCountInvarianceAcrossSeeds) {
  for (Drive drive : {Drive::kRunFor, Drive::kRunUntil}) {
    for (std::uint64_t seed : {3u, 19u}) {
      const NetworkConfig net = gossip_net(2, 9, seed);
      const GossipRun base = run_gossip(1, net, drive);
      ASSERT_NE(base.fingerprint, 0u);
      for (std::size_t shards : kOtherShardCounts) {
        const GossipRun run = run_gossip(shards, net, drive);
        expect_identical(run, base, shards, drive);
        EXPECT_EQ(run.stats.shards, std::max<std::size_t>(shards, 1));
        // The window *schedule* legitimately depends on the shard count
        // (the per-shard lookahead does) — only the observables above may
        // not. Cross-shard effects wait for the barrier.
        EXPECT_GT(run.stats.windows, 0u);
        if (shards >= 2) {
          EXPECT_GT(run.stats.staged_ops, 0u);
        }
      }
    }
  }
}

TEST(ShardedSimulationTest, ProvisionalTimersStayInWindow) {
  // min_delay = 3 makes the window 3 ticks wide; gossip timers use delays
  // 0..3, so most timers fire inside the window that armed them — they go
  // straight into the owning shard's queue — and zero-delay timers land in
  // the bucket being drained. The result must not change.
  const NetworkConfig net = gossip_net(3, 11, 7);
  const GossipRun base = run_gossip(1, net);
  for (std::size_t shards : {0u, 4u}) {
    expect_identical(run_gossip(shards, net), base, shards, Drive::kRunFor);
  }
}

/// Overrides the batched upcall to count how the engine groups same-tick
/// deliveries, forwarding each delivery through on_message.
class FanInNode : public Process {
 public:
  void on_messages(Delivery* batch, std::size_t count) override {
    ++upcalls_;
    largest_batch_ = std::max(largest_batch_, count);
    for (std::size_t i = 0; i < count; ++i) {
      on_message(batch[i].from, batch[i].msg);
    }
  }
  void on_message(ProcessId from, const MessagePtr& msg) override {
    const auto& g = dynamic_cast<const GossipMsg&>(*msg);
    order_.push_back(hash_mix(from, g.tag, now()));
  }

  std::size_t upcalls_ = 0;
  std::size_t largest_batch_ = 0;
  std::vector<std::uint64_t> order_;
};

class BlastNode : public Process {
 public:
  BlastNode(ProcessId target, int count) : target_(target), count_(count) {}
  void start() override {
    for (int i = 0; i < count_; ++i) {
      send(target_, make_message<GossipMsg>(0, id() * 100 + i));
    }
  }
  void on_message(ProcessId, const MessagePtr&) override {}

 private:
  ProcessId target_;
  int count_;
};

TEST(ShardedSimulationTest, SameTickDeliveriesBatchIntoOneUpcall) {
  // A fixed-delay net lands every blast in the same tick: the engine must
  // hand process 0 one upcall covering all of them, in key order, under
  // every shard count.
  NetworkConfig net = gossip_net(5, 5, 11);
  constexpr int kSenders = 6;
  constexpr int kEach = 4;
  auto run = [&](std::size_t shards) {
    Simulation sim(kSenders + 1, net);
    auto& sink = sim.emplace_process<FanInNode>(0);
    for (ProcessId i = 1; i <= kSenders; ++i) {
      sim.emplace_process<BlastNode>(i, 0, kEach);
    }
    sim.set_shards(shards);
    sim.start();
    sim.run_for(1'000);
    return std::make_tuple(sink.upcalls_, sink.largest_batch_, sink.order_,
                           sim.shard_stats(), sim.metrics());
  };
  const auto [base_up, base_max, base_order, base_stats, base_metrics] =
      run(0);
  EXPECT_EQ(base_up, 1u);
  EXPECT_EQ(base_max, std::size_t{kSenders * kEach});
  for (std::size_t shards : {1u, 2u, 3u}) {
    const auto [up, max_batch, order, stats, metrics] = run(shards);
    EXPECT_EQ(up, 1u) << "shards=" << shards;
    EXPECT_EQ(max_batch, std::size_t{kSenders * kEach});
    EXPECT_EQ(order, base_order) << "shards=" << shards;
    EXPECT_EQ(metrics, base_metrics) << "shards=" << shards;
    EXPECT_EQ(stats.batch_upcalls, 1u);
    EXPECT_EQ(stats.batched_messages, std::size_t{kSenders * kEach});
  }
}

/// One role per process in the zero-delay ordering scenario below.
class TickTenNode : public Process {
 public:
  void start() override {
    if (id() == 1) set_timer(1, 7);   // re-armed at 7 to fire at 10
    if (id() == 2) set_timer(2, 10);  // key (10, sent 0): pops first
    if (id() == 3) set_timer(3, 5);   // sends the 5-tick message to 0
  }
  void on_timer(int timer_id) override {
    log_.push_back(timer_id);
    if (timer_id == 1) set_timer(4, 3);
    if (timer_id == 2) send(0, make_message<GossipMsg>(0, 20));
    if (timer_id == 3) send(0, make_message<GossipMsg>(0, 30));
  }
  void on_message(ProcessId, const MessagePtr& msg) override {
    const auto& g = dynamic_cast<const GossipMsg&>(*msg);
    log_.push_back(static_cast<int>(g.tag));
    if (g.tag == 30) set_timer(9, 0);  // zero-delay: key (10, 10, 0, k)
  }
  std::vector<int> log_;
};

TEST(ShardedSimulationTest, ZeroDelayEffectsKeepKeyOrderAcrossBatches) {
  // At tick 10, process 0 receives message 30 (sent at 5) and message 20
  // (sent at 10 by process 2 over a zero-latency link). Handling 30 arms a
  // zero-delay timer whose key (10, 10, origin 0) sorts before message 20
  // (10, 10, origin 2), so the timer must run between the two messages.
  // At shards 2 the two messages are adjacent in shard 0's queue; at
  // shards 1 process 1's timer (10, 7) sits between them. A batch that
  // took message 20 along with message 30 would run the timer last, and
  // only at shards 2.
  NetworkConfig net = gossip_net(5, 5, 3);
  net.link_overrides.push_back({2, 0, 0, 0});
  for (std::size_t shards : {0u, 1u, 2u}) {
    Simulation sim(4, net);
    auto& target = sim.emplace_process<TickTenNode>(0);
    for (ProcessId i = 1; i < 4; ++i) sim.emplace_process<TickTenNode>(i);
    sim.set_shards(shards);
    sim.start();
    sim.run_for(100);
    EXPECT_EQ(target.log_, (std::vector<int>{30, 9, 20}))
        << "shards=" << shards;
  }
}

TEST(ShardedSimulationTest, ScheduledCrashRoutesThroughTheEngine) {
  // crash_at before start(): the engine-origin crash events sort ahead of
  // same-tick process events on every shard count.
  const NetworkConfig net = gossip_net(1, 6, 23);
  const std::vector<std::pair<ProcessId, SimTime>> crashes = {{3, 10},
                                                              {7, 25}};
  for (Drive drive : {Drive::kRunFor, Drive::kRunUntil}) {
    const GossipRun base = run_gossip(1, net, drive, crashes);
    for (std::size_t shards : kOtherShardCounts) {
      expect_identical(run_gossip(shards, net, drive, crashes), base, shards,
                       drive);
    }
  }
}

TEST(ShardedSimulationTest, CrashAtAfterStartIsShardInvariant) {
  // crash_at between runs, relative to where the first run stopped (a
  // checkpoint-grid point under run_until): one crash at the stop tick
  // itself, one later.
  const NetworkConfig net = gossip_net(1, 6, 31);
  const std::vector<std::pair<ProcessId, SimTime>> crashes = {{5, 0},
                                                              {10, 9}};
  for (Drive drive : {Drive::kRunFor, Drive::kRunUntil}) {
    const GossipRun base = run_gossip(1, net, drive, {}, crashes);
    const GossipRun uncrashed = run_gossip(1, net, drive);
    EXPECT_NE(base.metrics, uncrashed.metrics) << drive_name(drive);
    for (std::size_t shards : kOtherShardCounts) {
      expect_identical(run_gossip(shards, net, drive, {}, crashes), base,
                       shards, drive);
    }
  }
}

TEST(ShardedSimulationTest, PreGstDuplicationIsShardInvariant) {
  // Before GST a message may be delivered twice: both copies carry the
  // same send tick and origin, told apart by the origin counter.
  NetworkConfig net = gossip_net(2, 9, 5);
  net.gst = 200;
  net.pre_gst_max_delay = 40;
  net.pre_gst_duplicate = 0.3;
  net.pre_gst_drop = 0.1;
  for (Drive drive : {Drive::kRunFor, Drive::kRunUntil}) {
    const GossipRun base = run_gossip(1, net, drive);
    ASSERT_GT(base.metrics.messages_duplicated, 0u) << drive_name(drive);
    ASSERT_GT(base.metrics.messages_dropped, 0u) << drive_name(drive);
    for (std::size_t shards : kOtherShardCounts) {
      expect_identical(run_gossip(shards, net, drive), base, shards, drive);
    }
  }
}

/// The wire-once invariant: every send either encodes its message's frame
/// or reads it from the cache, and the per-type byte counters add up to the
/// total.
void expect_wire_once(const SimMetrics& m, const std::string& where) {
  EXPECT_GT(m.messages_sent, 0u) << where;
  EXPECT_EQ(m.protocol_counter(ProtoCounter::kWireEncodes) +
                m.protocol_counter(ProtoCounter::kWireCachedSends),
            m.messages_sent)
      << where;
  std::size_t typed_bytes = 0;
  for (const auto& [type, bytes] : m.bytes_by_type()) typed_bytes += bytes;
  EXPECT_EQ(typed_bytes, m.bytes_sent) << where;
}

TEST(WireOnceTest, TestTypePlaneChargesEverySendItsFrame) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    const GossipRun run = run_gossip(shards, gossip_net(1, 7, 42));
    const std::string where = "gossip shards=" + std::to_string(shards);
    expect_wire_once(run.metrics, where);
    // A GossipMsg frame is a u16 type header, a u32 ttl and a u64 tag.
    EXPECT_EQ(run.metrics.bytes_sent, run.metrics.messages_sent * 14) << where;
  }
}

}  // namespace
}  // namespace scup::sim

namespace scup::core {
namespace {

bool reports_identical(const ScenarioReport& a, const ScenarioReport& b) {
  return a.all_decided == b.all_decided && a.agreement == b.agreement &&
         a.validity == b.validity && a.decided_value == b.decided_value &&
         a.first_decision == b.first_decision &&
         a.last_decision == b.last_decision &&
         a.decision_times == b.decision_times &&
         a.sd_all_returned == b.sd_all_returned &&
         a.sd_sink_exact == b.sd_sink_exact &&
         a.sd_flags_correct == b.sd_flags_correct &&
         a.true_sink == b.true_sink && a.metrics == b.metrics &&
         a.notary_fingerprint == b.notary_fingerprint &&
         a.end_time == b.end_time;
}

constexpr std::size_t kOtherShardCounts[] = {0, 2, 3, 8};

TEST(ShardedScenarioTest, EveryShardCountMatchesTheWindowedBaseline) {
  // Fuzz shard counts across both protocols and several seeds on the E12
  // churn + partition family (run_until through run_scenario). Every cell
  // must decide and every report must be bit-identical (fingerprint
  // included) to the shards == 1 run of the same config.
  for (ProtocolKind protocol :
       {ProtocolKind::kStellarSd, ProtocolKind::kBftCup}) {
    for (std::uint64_t seed : {1u, 2u}) {
      ChurnPartitionParams p;
      p.n = 12;
      p.f = 1;
      p.protocol = protocol;
      p.late_fraction = 0.5;
      p.late_window = 1'000;
      p.with_partition = true;
      p.gst = 1'500;
      p.seed = seed;
      ScenarioConfig cfg = churn_partition_scenario(p);
      cfg.shards = 1;
      const ScenarioReport base = run_scenario(cfg);
      EXPECT_TRUE(base.all_decided);
      EXPECT_TRUE(base.agreement);
      EXPECT_NE(base.notary_fingerprint, 0u);
      for (std::size_t shards : kOtherShardCounts) {
        cfg.shards = shards;
        const ScenarioReport r = run_scenario(cfg);
        EXPECT_TRUE(reports_identical(r, base))
            << "shards=" << shards << " seed=" << seed << " protocol="
            << static_cast<int>(protocol) << " diverged from shards=1";
      }
    }
  }
}

TEST(ShardedScenarioTest, AllMatrixShapesAreShardInvariant) {
  // The four E12 shapes (churn / +partition / +loss / +crash) x both
  // protocols, each stressing a different engine path: mailbox
  // activation, partition heal verdicts, dropped sends, and engine-origin
  // crash events.
  for (ProtocolKind protocol :
       {ProtocolKind::kStellarSd, ProtocolKind::kBftCup}) {
    for (int shape = 0; shape < 4; ++shape) {
      ChurnPartitionParams p;
      p.n = 12;
      p.f = 1;
      p.protocol = protocol;
      p.gst = 1'500;
      p.late_window = 1'000;
      p.seed = 5;
      p.with_partition = shape >= 1;
      if (shape == 2) p.pre_gst_drop = 0.2;
      p.with_crash = shape == 3;
      ScenarioConfig cfg = churn_partition_scenario(p);
      cfg.shards = 1;
      const ScenarioReport base = run_scenario(cfg);
      EXPECT_TRUE(base.all_decided) << "shape=" << shape;
      for (std::size_t shards : kOtherShardCounts) {
        cfg.shards = shards;
        EXPECT_TRUE(reports_identical(run_scenario(cfg), base))
            << "shape=" << shape << " protocol=" << static_cast<int>(protocol)
            << " diverged between shards=1 and shards=" << shards;
      }
    }
  }
}

TEST(WireOnceTest, ProtocolRunsEncodeOrReuseEveryFrame) {
  for (ProtocolKind protocol :
       {ProtocolKind::kStellarSd, ProtocolKind::kBftCup}) {
    for (int shape = 0; shape < 4; ++shape) {
      ChurnPartitionParams p;
      p.n = 12;
      p.f = 1;
      p.protocol = protocol;
      p.gst = 1'500;
      p.late_window = 1'000;
      p.seed = 5;
      p.with_partition = shape >= 1;
      if (shape == 2) p.pre_gst_drop = 0.2;
      p.with_crash = shape == 3;
      const ScenarioReport r = run_scenario(churn_partition_scenario(p));
      const std::string where = "shape=" + std::to_string(shape) +
                                " protocol=" +
                                std::to_string(static_cast<int>(protocol));
      EXPECT_TRUE(r.all_decided) << where;
      sim::expect_wire_once(r.metrics, where);
      // Broadcasts share one message object, so some sends hit the cache.
      EXPECT_GT(r.metrics.protocol_counter(sim::ProtoCounter::kWireCachedSends),
                0u)
          << where;
    }
  }
  // A short multi-slot chain: SlotEnvelope wraps are shared by broadcasts.
  const auto g = graph::fig2_graph();
  sim::NetworkConfig net;
  net.seed = 17;
  net.min_delay = 1;
  net.max_delay = 10;
  sim::Simulation sim(g.node_count(), net);
  for (ProcessId i = 0; i < g.node_count(); ++i) {
    sim.emplace_process<LedgerNode>(i, g.pd_of(i), 1, 3);
  }
  sim.start();
  sim.run_for(20'000);
  sim::expect_wire_once(sim.metrics(), "ledger chain");
  EXPECT_GT(sim.metrics().protocol_counter(sim::ProtoCounter::kWireCachedSends),
            0u);
}

TEST(ShardedScenarioTest, LedgerChainsAndZeroCopyWrapsAreShardInvariant) {
  // Multi-slot SCP through the engine: chains must match across replicas
  // and across shard counts under both drives, and the SlotHost
  // shared-wrap cache must be serving broadcasts (the zero-copy envelope
  // path).
  const auto g = graph::fig2_graph();
  constexpr std::uint64_t kSlots = 3;
  struct LedgerRun {
    std::uint64_t digest = 0;
    std::uint64_t fingerprint = 0;
    sim::SimMetrics metrics;
    SimTime end = 0;
  };
  auto run = [&](std::size_t shards, bool until) {
    sim::NetworkConfig net;
    net.seed = 17;
    net.min_delay = 1;
    net.max_delay = 10;
    sim::Simulation sim(g.node_count(), net);
    std::vector<LedgerNode*> nodes;
    for (ProcessId i = 0; i < g.node_count(); ++i) {
      nodes.push_back(
          &sim.emplace_process<LedgerNode>(i, g.pd_of(i), 1, kSlots));
    }
    auto chains_done = [&] {
      for (auto* node : nodes) {
        if (node->decided_slots() < kSlots) return false;
      }
      return true;
    };
    sim.set_shards(shards);
    sim.start();
    if (until) {
      sim.run_until(chains_done, 3'000'000);
    } else {
      sim.run_for(20'000);
    }
    EXPECT_TRUE(chains_done()) << "shards=" << shards << " until=" << until;
    LedgerRun out;
    out.digest = nodes[0]->chain_digest();
    for (auto* node : nodes) EXPECT_EQ(node->chain_digest(), out.digest);
    out.fingerprint = sim.notary().fingerprint();
    out.metrics = sim.metrics();
    out.end = sim.now();
    return out;
  };
  for (bool until : {false, true}) {
    const LedgerRun base = run(1, until);
    EXPECT_NE(base.digest, 0u);
    for (std::size_t shards : kOtherShardCounts) {
      const LedgerRun r = run(shards, until);
      EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
      EXPECT_EQ(r.fingerprint, base.fingerprint) << "shards=" << shards;
      EXPECT_EQ(r.metrics, base.metrics) << "shards=" << shards;
      EXPECT_EQ(r.end, base.end) << "shards=" << shards;
    }
    const auto shared =
        base.metrics.protocol_counter(sim::ProtoCounter::kSlotWrapsShared);
    const auto wraps =
        base.metrics.protocol_counter(sim::ProtoCounter::kSlotWraps);
    EXPECT_GT(wraps, 0u);
    // Broadcasts go to several peers: most sends must hit the cache.
    EXPECT_GT(shared, wraps);
  }
}

}  // namespace
}  // namespace scup::core
