// ScenarioMatrix: deterministic parallel scenario execution, the churn +
// partition scenario family, and crash-fault injection through
// ScenarioConfig. The key contracts:
//  - same seed => byte-identical behaviour (SimMetrics, notary log,
//    decision times) across independent runs;
//  - the parallel matrix equals the serial matrix cell by cell;
//  - consensus properties survive churn, partitions, pre-GST loss and
//    crash faults (they are theorems; any failure here is a correctness
//    regression).
#include "core/scenario_matrix.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "bftcup/bftcup_node.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/simulation.hpp"

namespace scup::core {
namespace {

ChurnPartitionParams small_params(ProtocolKind protocol, std::uint64_t seed) {
  ChurnPartitionParams p;
  p.n = 12;
  p.f = 1;
  p.protocol = protocol;
  p.late_fraction = 0.5;
  p.late_window = 1'000;
  p.with_partition = true;
  p.gst = 1'500;
  p.seed = seed;
  return p;
}

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

TEST(ParallelCellsTest, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_cells(hits.size(), 4,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelCellsTest, PropagatesTheFirstException) {
  EXPECT_THROW(parallel_cells(64, 4,
                              [](std::size_t i) {
                                if (i == 13) throw std::runtime_error("boom");
                              }),
               std::runtime_error);
}

TEST(DeterminismTest, SameSeedSameMetricsAndNotaryLog) {
  // Two independent runs of the same seeded simulation must agree on every
  // observable: the metrics block and the notary's signing trace (which
  // fingerprints the full protocol behaviour, not just traffic totals).
  auto run = [](std::uint64_t seed) {
    graph::KosrGenParams gen;
    gen.sink_size = 5;
    gen.non_sink_size = 3;
    gen.k = 3;
    gen.seed = 11;
    const auto g = graph::random_kosr_graph(gen);
    sim::NetworkConfig net;
    net.seed = seed;
    sim::Simulation sim(g.node_count(), net);
    // BFT-CUP exercises the notary (PBFT prepares/commits are signed), so
    // the log fingerprints real protocol behaviour.
    std::vector<bftcup::BftCupNode*> nodes(g.node_count());
    for (ProcessId i = 0; i < g.node_count(); ++i) {
      nodes[i] = &sim.emplace_process<bftcup::BftCupNode>(i, g.pd_of(i), 1,
                                                          default_value(i));
    }
    sim.start();
    sim.run_until(
        [&] {
          for (auto* node : nodes) {
            if (!node->decided()) return false;
          }
          return true;
        },
        2'000'000);
    return std::make_pair(sim.metrics(), sim.notary().log());
  };
  const auto [metrics_a, log_a] = run(7);
  const auto [metrics_b, log_b] = run(7);
  EXPECT_EQ(metrics_a, metrics_b);
  ASSERT_FALSE(log_a.empty());
  EXPECT_EQ(log_a, log_b);

  // A different network seed gives a different run. The sign logs record
  // what each process signed, in its own order, which for this workload
  // does not depend on message delays; the traffic does.
  const auto [metrics_c, log_c] = run(8);
  EXPECT_NE(metrics_a, metrics_c);
}

TEST(DeterminismTest, RunScenarioIsAPureFunctionOfItsConfig) {
  const ScenarioConfig cfg =
      churn_partition_scenario(small_params(ProtocolKind::kStellarSd, 5));
  const ScenarioReport a = run_scenario(cfg);
  const ScenarioReport b = run_scenario(cfg);
  EXPECT_TRUE(reports_identical(a, b));
}

TEST(ScenarioMatrixTest, ParallelEqualsSerialCellByCell) {
  ScenarioMatrix matrix;
  matrix
      .add_variant("stellar/churn",
                   [](std::uint64_t seed) {
                     return churn_partition_scenario(
                         small_params(ProtocolKind::kStellarSd, seed));
                   })
      .add_variant("bftcup/churn",
                   [](std::uint64_t seed) {
                     return churn_partition_scenario(
                         small_params(ProtocolKind::kBftCup, seed));
                   })
      .seeds({1, 2, 3});
  const auto serial = matrix.run(1);
  const auto parallel = matrix.run(4);
  ASSERT_EQ(serial.size(), matrix.cell_count());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].variant, parallel[i].variant);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_TRUE(reports_identical(serial[i].report, parallel[i].report))
        << "cell " << i << " (" << serial[i].variant << ", seed "
        << serial[i].seed << ") diverged between serial and parallel runs";
  }
}

TEST(ScenarioMatrixTest, SummaryAggregates) {
  ScenarioMatrix matrix;
  matrix
      .add_variant("stellar/churn",
                   [](std::uint64_t seed) {
                     return churn_partition_scenario(
                         small_params(ProtocolKind::kStellarSd, seed));
                   })
      .seeds({1, 2});
  const auto results = matrix.run(2);
  const MatrixSummary s = ScenarioMatrix::summarize(results);
  EXPECT_EQ(s.cells, 2u);
  EXPECT_EQ(s.decided_cells, 2u);
  EXPECT_EQ(s.agreement_cells, 2u);
  EXPECT_EQ(s.validity_cells, 2u);
  EXPECT_DOUBLE_EQ(s.decision_rate, 1.0);
  EXPECT_LE(s.p50_decision, s.p99_decision);
  EXPECT_LE(s.p99_decision, s.max_decision);
  EXPECT_GT(s.messages, 0u);
  EXPECT_FALSE(s.summary().empty());
}

class ChurnPartitionTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ChurnPartitionTest, ConsensusSurvivesChurnAndPartition) {
  const ScenarioConfig cfg =
      churn_partition_scenario(small_params(GetParam(), 3));
  // The family must actually exercise churn: some activation is late.
  SimTime latest_activation = 0;
  for (SimTime t : cfg.activations) {
    latest_activation = std::max(latest_activation, t);
  }
  EXPECT_GT(latest_activation, 0);
  ASSERT_FALSE(cfg.net.partitions.empty());

  const ScenarioReport r = run_scenario(cfg);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  // Half the sink was unreachable until GST, so no full decision round can
  // complete before the heal.
  EXPECT_GE(r.last_decision, cfg.net.gst);
}

TEST_P(ChurnPartitionTest, ConsensusSurvivesPreGstLoss) {
  ChurnPartitionParams p = small_params(GetParam(), 4);
  p.pre_gst_drop = 0.3;
  const ScenarioConfig cfg = churn_partition_scenario(p);
  EXPECT_GT(cfg.discovery_requery, 0);  // loss enables retransmission
  const ScenarioReport r = run_scenario(cfg);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  EXPECT_GT(r.metrics.messages_dropped, 0u);
}

TEST_P(ChurnPartitionTest, CrashFaultInjectionConsumesTheBudget) {
  ChurnPartitionParams p = small_params(GetParam(), 6);
  p.with_crash = true;  // one sink member crash-stops at gst/2 ...
  const ScenarioConfig cfg = churn_partition_scenario(p);
  EXPECT_TRUE(cfg.faulty.empty());  // ... instead of a Byzantine placement
  ASSERT_EQ(cfg.crashes.size(), 1u);
  const ScenarioReport r = run_scenario(cfg);
  EXPECT_TRUE(r.all_decided);  // every surviving process still decides
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
}

INSTANTIATE_TEST_SUITE_P(BothProtocols, ChurnPartitionTest,
                         ::testing::Values(ProtocolKind::kStellarSd,
                                           ProtocolKind::kBftCup));

TEST(ScenarioConfigTest, CrashBudgetIsEnforced) {
  ChurnPartitionParams p = small_params(ProtocolKind::kBftCup, 1);
  ScenarioConfig cfg = churn_partition_scenario(p);
  // faulty already holds f = 1 processes; crashing another correct process
  // would exceed the budget.
  ProcessId extra = 0;
  while (cfg.faulty.contains(extra)) ++extra;
  cfg.crashes.emplace_back(extra, 100);
  EXPECT_THROW(run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace scup::core
