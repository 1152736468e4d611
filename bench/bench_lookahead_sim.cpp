// E15: lookahead windows. Three claims, one bench binary:
//
//  1. Window schedule (BM_Het): on a heterogeneous topology — slow 6-tick
//     base links with fast 1-tick intra-shard lanes — per-pair lookahead
//     keeps the 6-tick cross-shard window floor at shards:2, while at
//     shards:8 the fast lanes cross shards and the floor drops to 1 tick.
//     Rows report windows, average window width and the cross-shard
//     effects held for the barrier (staged_ops).
//  2. Identity (BM_LookaheadIdentity): the full feature set (het links,
//     a partition window, pre-GST loss + duplication) at shard counts
//     {0, 1, 2, 3, 8} must produce bit-identical metrics and Notary
//     fingerprints; a mismatch fails the bench run.
//  3. Discovery sharing (BM_DiscoveryPayloadSharing): E12 scenario
//     shapes report the shared-payload counters of the discovery
//     broadcast plane — payload_shared / (payload_builds +
//     payload_shared) is the fraction of sends served by a cached
//     message instead of a fresh construction + size walk.
#include "bench_common.hpp"

#include "sim/simulation.hpp"
#include "sim/wire.hpp"

namespace scup {
namespace {

struct HetMsg final : sim::Message {
  HetMsg(int t, std::uint64_t g) : ttl(t), tag(g) {}
  int ttl;
  std::uint64_t tag;
  std::string type_name() const override { return "bench.het"; }
  std::uint16_t wire_type() const override {
    return sim::kWireTestTypeFirst + 18;
  }
  void wire_encode(sim::WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(ttl));
    w.u64(tag);
  }
};

/// The heterogeneous-plane workload: the (id -> id+2) lane rides the fast
/// link overrides (intra-shard under an even/odd split), everything else
/// crosses shards on slow base links. Per-delivery hash work gives the
/// shards something to run in parallel.
class HetNode : public sim::Process {
 public:
  HetNode(std::size_t n, int ttl) : n_(n), ttl0_(ttl) {}

  void start() override {
    send((id() + 1) % n_, sim::make_message<HetMsg>(ttl0_, id() * 11 + 1));
    send((id() + 2) % n_, sim::make_message<HetMsg>(ttl0_, id() * 17 + 2));
    set_timer(1, 1 + id() % 4);
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    const auto& m = dynamic_cast<const HetMsg&>(*msg);
    std::uint64_t h = m.tag;
    for (int round = 0; round < 32; ++round) h = hash_mix(h, from, id());
    digest_ ^= h;
    if (m.ttl > 0) {
      send((id() + 2) % n_, sim::make_message<HetMsg>(m.ttl - 1, h | 1));
      if (m.tag % 3 == 0) {
        send((id() + m.tag) % n_, sim::make_message<HetMsg>(m.ttl - 1, h));
      }
    }
  }

  void on_timer(int timer_id) override {
    digest_ ^= hash_mix(0x7133, static_cast<std::uint64_t>(timer_id), now());
    if (timer_id == 1 && ++reps_ < 6) set_timer(1, 3);
  }

  std::uint64_t digest_ = 0;

 private:
  std::size_t n_;
  int ttl0_;
  int reps_ = 0;
};

/// Slow base links (min 6) with fast (id -> id+2) lanes (min 1). Under an
/// even/odd shard split the fast lanes never cross shards, so the per-pair
/// window floor stays at 6 although the global min is 1.
sim::NetworkConfig het_net(std::size_t n, std::uint64_t seed) {
  sim::NetworkConfig net;
  net.gst = 0;
  net.min_delay = 6;
  net.max_delay = 12;
  net.seed = seed;
  for (ProcessId i = 0; i < n; ++i) {
    net.link_overrides.push_back(
        {i, static_cast<ProcessId>((i + 2) % n), 1, 3});
  }
  return net;
}

struct HetResult {
  sim::SimMetrics metrics;
  std::uint64_t fingerprint = 0;
  std::uint64_t digest = 0;  // xor over nodes: order-insensitive checksum
  sim::ShardStats stats;
};

HetResult run_het(std::size_t n, std::size_t shards,
                  const sim::NetworkConfig& net, SimTime horizon) {
  sim::Simulation sim(n, net);
  std::vector<HetNode*> nodes;
  nodes.reserve(n);
  for (ProcessId i = 0; i < n; ++i) {
    nodes.push_back(&sim.emplace_process<HetNode>(i, n, 8));
  }
  sim.set_shards(shards);
  sim.start();
  sim.run_for(horizon);
  HetResult out;
  out.metrics = sim.metrics();
  out.fingerprint = sim.notary().fingerprint();
  for (const auto* node : nodes) out.digest ^= node->digest_;
  out.stats = sim.shard_stats();
  return out;
}

void report_stats(benchmark::State& state, const sim::ShardStats& stats) {
  state.counters["windows"] = static_cast<double>(stats.windows);
  state.counters["avg_window_width"] =
      stats.windows == 0 ? 0.0
                         : static_cast<double>(stats.window_width_sum) /
                               static_cast<double>(stats.windows);
  state.counters["staged_ops"] = static_cast<double>(stats.staged_ops);
}

void BM_Het(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const SimTime horizon = 4'000;
  const sim::NetworkConfig net = het_net(n, 99);
  std::size_t events = 0;
  sim::ShardStats stats;
  for (auto _ : state) {
    const HetResult r = run_het(n, shards, net, horizon);
    benchmark::DoNotOptimize(r.digest);
    events += r.metrics.events_processed;
    stats = r.stats;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  report_stats(state, stats);
}
BENCHMARK(BM_Het)
    ->ArgNames({"n", "shards"})
    ->Args({256, 2})
    ->Args({256, 8})
    ->Args({1'024, 8})
    // Wall-clock rates: with pool threads doing the work, a CPU-time rate
    // would only meter the coordinating thread and overstate throughput.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LookaheadIdentity(benchmark::State& state) {
  // Full feature set — het links, a partition window, pre-GST loss and
  // duplication (the four-draw plan) — at every shard count.
  const std::size_t n = 128;
  const SimTime horizon = 2'500;
  sim::NetworkConfig net = het_net(n, 23);
  net.gst = 400;
  net.pre_gst_max_delay = 60;
  net.pre_gst_drop = 0.2;
  net.pre_gst_duplicate = 0.2;
  sim::PartitionWindow cut;
  cut.side = NodeSet(n);
  for (ProcessId i = 0; i < n / 3; ++i) cut.side.add(i);
  cut.start = 50;
  cut.heal = 400;
  net.partitions.push_back(cut);
  std::size_t checks = 0;
  for (auto _ : state) {
    const HetResult base = run_het(n, 1, net, horizon);
    for (std::size_t shards : {0u, 2u, 3u, 8u}) {
      const HetResult r = run_het(n, shards, net, horizon);
      if (!(r.metrics == base.metrics) ||
          r.fingerprint != base.fingerprint || r.digest != base.digest) {
        state.SkipWithError("lookahead shard-count identity violated");
        return;
      }
      ++checks;
    }
  }
  // Per iteration, so the gated count does not depend on how many
  // iterations the host's speed buys within the min time.
  state.counters["identity_checks"] = benchmark::Counter(
      static_cast<double>(checks), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LookaheadIdentity)->Unit(benchmark::kMillisecond);

void BM_DiscoveryPayloadSharing(benchmark::State& state) {
  // E12 scenario shapes through the shared-payload discovery plane. The
  // requery shape retransmits DISCOVER/KNOWN on a timer, which is where
  // payload sharing pays: every retransmission hits the cache.
  const auto protocol = static_cast<core::ProtocolKind>(state.range(0));
  const bool with_loss = state.range(1) != 0;
  double builds = 0;
  double shared = 0;
  std::size_t decided = 0;
  for (auto _ : state) {
    core::ChurnPartitionParams p;
    p.protocol = protocol;
    p.seed = 3;
    p.with_partition = true;
    if (with_loss) p.pre_gst_drop = 0.2;
    core::ScenarioConfig cfg = core::churn_partition_scenario(p);
    cfg.shards = 2;
    const core::ScenarioReport r = core::run_scenario(cfg);
    if (!r.all_decided) {
      state.SkipWithError("scenario failed to decide");
      return;
    }
    builds = static_cast<double>(
        r.metrics.protocol_counter(sim::ProtoCounter::kDiscoveryPayloadBuilds));
    shared = static_cast<double>(
        r.metrics.protocol_counter(sim::ProtoCounter::kDiscoveryPayloadShared));
    ++decided;
  }
  state.counters["payload_builds"] = builds;
  state.counters["payload_shared"] = shared;
  state.counters["sharing_ratio"] =
      builds + shared == 0 ? 0.0 : shared / (builds + shared);
  state.counters["decided_runs"] = benchmark::Counter(
      static_cast<double>(decided), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DiscoveryPayloadSharing)
    ->ArgNames({"proto", "loss"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E15");
