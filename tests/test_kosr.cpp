#include "graph/kosr.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"

namespace scup::graph {
namespace {

TEST(KosrTest, Fig2Is3Osr) {
  // The paper states Fig. 2 is a 3-OSR PD with sink {1,2,3,4}.
  const Digraph g = fig2_graph();
  const KosrReport report = check_kosr(g, 3);
  EXPECT_TRUE(report.weakly_connected);
  EXPECT_TRUE(report.single_sink);
  EXPECT_TRUE(report.sink_k_connected);
  EXPECT_TRUE(report.paths_to_sink);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.sink, fig2_sink());
}

TEST(KosrTest, Fig1IsOsrWithSmallK) {
  // Fig. 1's sink {5,6,7,8} is 2-strongly connected; the graph is 1-OSR at
  // least (it is the paper's running example for f = 1 with the failure
  // outside critical paths).
  const Digraph g = fig1_graph();
  const KosrReport r1 = check_kosr(g, 1);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_EQ(r1.sink, fig1_sink());
}

TEST(KosrTest, DisconnectedFails) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const KosrReport r = check_kosr(g, 1);
  EXPECT_FALSE(r.weakly_connected);
  EXPECT_FALSE(r.ok());
}

TEST(KosrTest, TwoSinksFail) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  g.add_edge(0, 2);  // connect weakly: component A reaches B... B is sink
  // Now only one sink: {2,3}. Break it with an isolated extra sink:
  const KosrReport r = check_kosr(g, 1);
  EXPECT_TRUE(r.single_sink);
  // Add a second sink: node isolated except incoming edge.
  Digraph h(5);
  h.add_edge(0, 1);
  h.add_edge(1, 0);
  h.add_edge(0, 2);
  h.add_edge(0, 3);
  h.add_edge(3, 4);
  // sinks: {2} and {4}
  const KosrReport rh = check_kosr(h, 1);
  EXPECT_TRUE(rh.weakly_connected);
  EXPECT_FALSE(rh.single_sink);
  EXPECT_FALSE(rh.ok());
}

TEST(KosrTest, InsufficientSinkConnectivity) {
  // Sink is a directed cycle (1-connected); demand k = 2.
  Digraph g(5);
  for (ProcessId i = 0; i < 4; ++i) g.add_edge(i, (i + 1) % 4);
  g.add_edge(4, 0);  // non-sink node 4 points in
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.single_sink);
  EXPECT_FALSE(r.sink_k_connected);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(check_kosr(g, 1).ok());
}

TEST(KosrTest, InsufficientPathsFromNonSink) {
  // Sink = K4-ish circulant (2-connected); non-sink node has only 1 edge in.
  Digraph g(5);
  for (ProcessId i = 0; i < 4; ++i) {
    g.add_edge(i, (i + 1) % 4);
    g.add_edge(i, (i + 2) % 4);
  }
  g.add_edge(4, 0);
  const KosrReport r = check_kosr(g, 2);
  EXPECT_TRUE(r.sink_k_connected);
  EXPECT_FALSE(r.paths_to_sink);
  EXPECT_TRUE(check_kosr(g, 1).ok());
}

TEST(KosrGeneratorTest, GeneratedGraphsPassChecker) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    KosrGenParams params;
    params.sink_size = 5;
    params.non_sink_size = 4;
    params.k = 2;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    const KosrReport r = check_kosr(g, params.k);
    EXPECT_TRUE(r.ok()) << "seed=" << seed << " " << r.to_string();
    EXPECT_EQ(r.sink.count(), params.sink_size);
    // Sink members are exactly ids [0, sink_size).
    for (ProcessId i = 0; i < params.sink_size; ++i) {
      EXPECT_TRUE(r.sink.contains(i));
    }
  }
}

TEST(KosrGeneratorTest, ClauseFourMatchesThePerPairHelper) {
  // check_kosr answers clause (4) from one prepared flow network; the
  // per-pair helper builds a fresh one per query. They must agree on
  // random k-OSR graphs, with random edges and nodes knocked out so both
  // verdicts occur, for every k including the trivial k = 0.
  Rng rng(4242);
  std::size_t holds = 0;
  std::size_t fails = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    KosrGenParams params;
    params.sink_size = 6;
    params.non_sink_size = 5;
    params.k = 3;
    params.seed = seed;
    const Digraph full = random_kosr_graph(params);
    const std::size_t n = full.node_count();
    Digraph g(n);
    for (ProcessId u = 0; u < n; ++u) {
      for (ProcessId v : full.successors(u)) {
        if (!rng.chance(0.15)) g.add_edge(u, v);
      }
    }
    NodeSet active = NodeSet::full(n);
    if (seed % 3 == 0) active.remove(static_cast<ProcessId>(rng.uniform(n)));
    for (std::size_t k = 0; k <= 4; ++k) {
      const KosrReport r = check_kosr(g, k, active);
      if (!r.single_sink || !r.sink_k_connected) continue;
      bool expected = true;
      for (ProcessId i : active) {
        if (r.sink.contains(i)) continue;
        for (ProcessId j : r.sink) {
          expected =
              expected && has_k_vertex_disjoint_paths(g, i, j, k, active);
        }
      }
      EXPECT_EQ(r.paths_to_sink, expected) << "seed=" << seed << " k=" << k;
      ++(expected ? holds : fails);
    }
  }
  EXPECT_GT(holds, 0u);
  EXPECT_GT(fails, 0u);

  // Small random graphs whose sink candidates are ids [0, s), s = 1..5,
  // with dense direct edges i -> j from non-sink nodes into the sink. A
  // one-node sink with k >= 2 is the |S| < k case, answered per pair; the
  // others take the fan query.
  std::size_t small_holds = 0;
  std::size_t small_fails = 0;
  std::size_t fan_checks = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t s = 1 + rng.uniform(5);
    const std::size_t n = s + 1 + rng.uniform(5);
    Digraph g(n);
    for (ProcessId u = 0; u < n; ++u) {
      for (ProcessId v = 0; v < n; ++v) {
        if (u == v || (u < s && v >= s)) continue;  // no edge leaves the sink
        if (rng.chance(u < s ? 0.8 : 0.5)) g.add_edge(u, v);
      }
    }
    NodeSet active = NodeSet::full(n);
    if (rng.chance(0.3)) {
      active.remove(static_cast<ProcessId>(s + rng.uniform(n - s)));
    }
    for (std::size_t k = 0; k <= 4; ++k) {
      const KosrReport r = check_kosr(g, k, active);
      if (!r.single_sink || !r.sink_k_connected) continue;
      bool expected = true;
      for (ProcessId i : active) {
        if (r.sink.contains(i)) continue;
        for (ProcessId j : r.sink) {
          expected =
              expected && has_k_vertex_disjoint_paths(g, i, j, k, active);
        }
      }
      EXPECT_EQ(r.paths_to_sink, expected) << "trial=" << trial << " k=" << k;
      if (r.sink.count() < k) {
        ++(expected ? small_holds : small_fails);
      } else if (k > 0) {
        ++fan_checks;
      }
    }
  }
  EXPECT_GT(small_holds, 0u);
  EXPECT_GT(small_fails, 0u);
  EXPECT_GT(fan_checks, 100u);
}

TEST(KosrGeneratorTest, FlowQueriesStayWithinTheSampledSourceAndFanBound) {
  // n = 128, k = 2: the per-pair check paid |S|(|S| - 1) flows for clause
  // (3) plus |active \ S|·|S| for clause (4), about 8,100; the sampled
  // sources and the fan pay at most 2k(|S| - 1) + |active \ S|.
  KosrGenParams params;
  params.sink_size = 64;
  params.non_sink_size = 64;
  params.k = 2;
  params.seed = 11;
  const Digraph g = random_kosr_graph(params);
  const KosrReport r = check_kosr(g, params.k);
  ASSERT_TRUE(r.ok()) << r.to_string();
  const std::uint64_t sink = r.sink.count();
  const std::uint64_t non_sink = g.node_count() - sink;
  EXPECT_LE(r.flow_queries, 2 * params.k * (sink - 1) + non_sink);
  EXPECT_GT(r.flow_queries, 0u);
}

TEST(KosrGeneratorTest, RejectsBadParameters) {
  KosrGenParams params;
  params.sink_size = 0;
  EXPECT_THROW(random_kosr_graph(params), std::invalid_argument);
  params.sink_size = 3;
  params.k = 3;
  EXPECT_THROW(random_kosr_graph(params), std::invalid_argument);
}

TEST(ByzantineSafetyTest, Fig2SafeForF1) {
  // Fig. 2 provides enough knowledge for f = 1 per the paper: whether the
  // faulty process is in the sink or not, the residual graph is 2-OSR.
  const Digraph g = fig2_graph();
  for (ProcessId victim = 0; victim < 7; ++victim) {
    NodeSet faulty(7, {victim});
    EXPECT_TRUE(is_byzantine_safe(g, faulty, 1)) << "victim=" << victim;
    EXPECT_TRUE(satisfies_bft_cup_preconditions(g, faulty, 1))
        << "victim=" << victim;
  }
}

TEST(ByzantineSafetyTest, TooManyFaultsRejected) {
  const Digraph g = fig2_graph();
  EXPECT_FALSE(is_byzantine_safe(g, NodeSet(7, {0, 1}), 1));
}

TEST(ByzantineSafetyTest, SinkNeeds2fPlus1Correct) {
  // A graph whose sink has only 2 correct members cannot satisfy the
  // BFT-CUP precondition for f = 1 even if k-OSR holds.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(2, 0);
  g.add_edge(2, 1);
  NodeSet faulty(3, {1});
  EXPECT_FALSE(satisfies_bft_cup_preconditions(g, faulty, 1));
}

TEST(ByzantineSafetyTest, GeneratedFamiliesWithSafeFaultPlacement) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::size_t f = 1;
    KosrGenParams params;
    params.sink_size = 3 * f + 2;  // tolerate in-sink faults
    params.non_sink_size = 3;
    params.k = 2 * f + 1;
    params.seed = seed;
    const Digraph g = random_kosr_graph(params);
    Rng rng(seed + 1000);
    const NodeSet sink = unique_sink_component(g);
    const NodeSet faulty =
        pick_safe_faulty_set(g, sink, f, /*allow_in_sink=*/true, rng);
    EXPECT_EQ(faulty.count(), f);
    EXPECT_TRUE(satisfies_bft_cup_preconditions(g, faulty, f));
  }
}

}  // namespace
}  // namespace scup::graph
