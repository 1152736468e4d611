// E14: the sharded simulator. Throughput of the windowed engine on a
// sustained gossip plane with per-delivery protocol work, at
// n in {512, 4096, 10000}:
//  - Plane/n:*/shards:0 and shards:1 both run one shard on the calling
//    thread (0 is the default selector; the rows must match);
//  - shards:4 and shards:8 spread the plane over the shard pool.
// Rows report events/sec (items_per_second) plus the event-plane
// counters: windows, cross-shard effects held for the barrier (staged
// ops), and batch upcall amortization.
// Identity rows re-prove the engine's contract under bench conditions:
// every shard count must produce bit-identical metrics and Notary
// fingerprints, across the plane workload and the full E12 scenario-matrix
// shapes; a mismatch fails the bench run.
#include "bench_common.hpp"

#include "sim/simulation.hpp"
#include "sim/wire.hpp"

namespace scup {
namespace {

struct PlaneMsg final : sim::Message {
  explicit PlaneMsg(std::uint64_t p) : payload(p) {}
  std::uint64_t payload;
  std::string type_name() const override { return "bench.plane"; }
  std::uint16_t wire_type() const override {
    return sim::kWireTestTypeFirst + 17;
  }
  void wire_encode(sim::WireWriter& w) const override { w.u64(payload); }
};

/// Sustains a fixed in-flight message population (each delivery forwards
/// exactly one message) and burns a slice of hash work per delivery — the
/// stand-in for protocol computation that gives shards something to run in
/// parallel.
class PlaneNode : public sim::Process {
 public:
  PlaneNode(std::size_t n, bool seeds) : n_(n), seeds_(seeds) {}

  void start() override {
    if (seeds_) send((id() + 1) % n_, sim::make_message<PlaneMsg>(id()));
  }

  void on_message(ProcessId from, const sim::MessagePtr& msg) override {
    const auto& m = dynamic_cast<const PlaneMsg&>(*msg);
    std::uint64_t h = m.payload;
    for (int round = 0; round < 64; ++round) h = hash_mix(h, from, id());
    digest_ ^= h;
    send((id() + 1 + h % 7) % n_, sim::make_message<PlaneMsg>(h));
  }

  std::uint64_t digest_ = 0;

 private:
  std::size_t n_;
  bool seeds_;
};

struct PlaneResult {
  sim::SimMetrics metrics;
  std::uint64_t digest = 0;  // xor over nodes: order-insensitive checksum
  sim::ShardStats stats;
};

PlaneResult run_plane(std::size_t n, std::size_t shards, SimTime horizon,
                      std::uint64_t seed) {
  sim::NetworkConfig net;
  net.min_delay = 2;
  net.max_delay = 12;
  net.seed = seed;
  // Barrier-replay profile (E16): where window wall-clock goes — parallel
  // drain vs. the serialized barrier phases. Timing lives in ShardStats,
  // outside the identity contract, so the identity rows are unaffected.
  net.shard_timing = true;
  sim::Simulation sim(n, net);
  std::vector<PlaneNode*> nodes;
  nodes.reserve(n);
  for (ProcessId i = 0; i < n; ++i) {
    nodes.push_back(&sim.emplace_process<PlaneNode>(i, n, i % 4 == 0));
  }
  sim.set_shards(shards);
  sim.start();
  sim.run_for(horizon);
  PlaneResult out;
  out.metrics = sim.metrics();
  for (const auto* node : nodes) out.digest ^= node->digest_;
  out.stats = sim.shard_stats();
  return out;
}

void BM_Plane(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  const SimTime horizon = 1'500;
  std::size_t events = 0;
  sim::ShardStats stats;
  for (auto _ : state) {
    const PlaneResult r = run_plane(n, shards, horizon, 99);
    benchmark::DoNotOptimize(r.digest);
    events += r.metrics.events_processed;
    stats = r.stats;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_run"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
  state.counters["windows"] = static_cast<double>(stats.windows);
  state.counters["staged_ops"] = static_cast<double>(stats.staged_ops);
  state.counters["batch_upcalls"] = static_cast<double>(stats.batch_upcalls);
  state.counters["batched_messages"] =
      static_cast<double>(stats.batched_messages);
  if (stats.timing_enabled) {
    // Window profile (last run): parallel window execution vs. the
    // serialized barrier phases, in milliseconds.
    state.counters["window_ms"] = static_cast<double>(stats.window_ns) / 1e6;
    state.counters["merge_ms"] = static_cast<double>(stats.merge_ns) / 1e6;
    state.counters["reset_ms"] = static_cast<double>(stats.reset_ns) / 1e6;
    state.counters["drain_ms"] = static_cast<double>(stats.drain_ns) / 1e6;
    for (std::size_t s = 0; s < stats.shard_drain_ns.size(); ++s) {
      state.counters["drain_s" + std::to_string(s) + "_ms"] =
          static_cast<double>(stats.shard_drain_ns[s]) / 1e6;
    }
  }
}
BENCHMARK(BM_Plane)
    ->ArgNames({"n", "shards"})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 4})
    ->Args({512, 8})
    ->Args({4'096, 0})
    ->Args({4'096, 1})
    ->Args({4'096, 4})
    ->Args({4'096, 8})
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Args({10'000, 4})
    ->Args({10'000, 8})
    // Wall-clock rates: with pool threads doing the work, a CPU-time rate
    // would only meter the coordinating thread and overstate throughput.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PlaneIdentity(benchmark::State& state) {
  // The determinism contract under bench conditions: metrics and node
  // digests bit-identical for every shard count.
  const std::size_t n = 512;
  const SimTime horizon = 600;
  std::size_t checks = 0;
  for (auto _ : state) {
    const PlaneResult base = run_plane(n, 1, horizon, 7);
    for (std::size_t shards : {0u, 2u, 3u, 8u}) {
      const PlaneResult r = run_plane(n, shards, horizon, 7);
      if (!(r.metrics == base.metrics) || r.digest != base.digest) {
        state.SkipWithError("shard-count identity violated");
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
BENCHMARK(BM_PlaneIdentity)->Unit(benchmark::kMillisecond);

void BM_MatrixIdentity(benchmark::State& state) {
  // Every E12 scenario-matrix shape (churn / +partition / +loss / +crash)
  // x both protocols: the shards=2 report must equal the shards=1
  // baseline bit for bit, Notary fingerprint included.
  std::size_t cells = 0;
  for (auto _ : state) {
    for (int shape = 0; shape < 4; ++shape) {
      for (core::ProtocolKind protocol :
           {core::ProtocolKind::kStellarSd, core::ProtocolKind::kBftCup}) {
        core::ChurnPartitionParams p;
        p.protocol = protocol;
        p.seed = 3;
        p.with_partition = shape >= 1;
        if (shape == 2) p.pre_gst_drop = 0.2;
        p.with_crash = shape == 3;
        core::ScenarioConfig cfg = core::churn_partition_scenario(p);
        cfg.shards = 1;
        const core::ScenarioReport base = core::run_scenario(cfg);
        cfg.shards = 2;
        const core::ScenarioReport sharded = core::run_scenario(cfg);
        if (!base.all_decided ||
            sharded.notary_fingerprint != base.notary_fingerprint ||
            !(sharded.metrics == base.metrics) ||
            sharded.decision_times != base.decision_times ||
            sharded.end_time != base.end_time) {
          state.SkipWithError("matrix shard identity violated");
          return;
        }
        ++cells;
      }
    }
  }
  state.counters["cells"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MatrixIdentity)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E14");
