// Unit tests for the SINK algorithm (cup::SinkDiscovery) driven through a
// fake ProtocolHost, without a simulation: the step-3 matching rules, the
// owner-indexed certificate table (union merge, malformed-certificate
// guard), the incremental admission machinery (memoized verdicts +
// dirty-set recheck) against a recompute-from-scratch reference, and the
// shared gossip-reply cache. The simulation-level behaviour is covered by
// test_sink_detector and test_sink_convergence.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "cup/sink_discovery.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/generators.hpp"
#include "sim/host.hpp"

namespace scup::cup {
namespace {

class FakeHost : public sim::ProtocolHost {
 public:
  FakeHost(ProcessId self, std::size_t n, std::size_t f)
      : self_(self), n_(n), f_(f) {}

  ProcessId self() const override { return self_; }
  std::size_t universe() const override { return n_; }
  std::size_t fault_threshold() const override { return f_; }
  void host_send(ProcessId to, sim::MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void host_set_timer(int, SimTime) override {}
  SimTime host_now() const override { return 0; }
  std::uint64_t host_sign(std::uint64_t) const override { return 0; }
  bool host_verify(ProcessId, std::uint64_t, std::uint64_t) const override {
    return true;
  }

  std::vector<std::pair<ProcessId, sim::MessagePtr>> sent;

 private:
  ProcessId self_;
  std::size_t n_;
  std::size_t f_;
};

/// Builds a discovery at process 0 over a triangle {0,1,2} (f = 1) and
/// brings it to the published-KNOWN state.
struct TriangleFixture {
  static constexpr std::size_t kN = 8;
  FakeHost host{0, kN, 1};
  SinkDiscovery discovery{host, NodeSet(kN, {1, 2})};

  TriangleFixture() {
    discovery.start();
    discovery.handle(1, DiscoverMsg({1, NodeSet(kN, {0, 2})}));
    discovery.handle(2, DiscoverMsg({2, NodeSet(kN, {0, 1})}));
    // Candidate is the triangle and both members responded, so KNOWN is out.
    EXPECT_EQ(discovery.candidate_set(), NodeSet(kN, {0, 1, 2}));
  }
};

TEST(SinkDiscoveryMatch, OutsiderDisagreementDoesNotFlipProbablyNonSink) {
  TriangleFixture fx;
  // f+1 = 2 chatty outsiders report KNOWN sets different from our
  // candidate. Only candidate members' views bear on whether the candidate
  // is a self-contained sink; outsiders must be ignored.
  fx.discovery.handle(5, KnownMsg(NodeSet(TriangleFixture::kN, {5, 6})));
  fx.discovery.handle(6, KnownMsg(NodeSet(TriangleFixture::kN, {5, 6, 7})));
  EXPECT_FALSE(fx.discovery.probably_non_sink());

  // The direct match must still complete from the members' reports.
  fx.discovery.handle(1, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  fx.discovery.handle(2, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  EXPECT_TRUE(fx.discovery.finished());
  EXPECT_EQ(fx.discovery.sink(), NodeSet(TriangleFixture::kN, {0, 1, 2}));
}

TEST(SinkDiscoveryMatch, MemberDisagreementStillFlipsProbablyNonSink) {
  TriangleFixture fx;
  // Both *members* report supersets: strong evidence we are not in a sink.
  fx.discovery.handle(1, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2, 3})));
  fx.discovery.handle(2, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2, 3})));
  EXPECT_TRUE(fx.discovery.probably_non_sink());
  EXPECT_FALSE(fx.discovery.finished());
}

TEST(SinkDiscoveryMatch, OutsiderAgreementDoesNotCountTowardMatching) {
  TriangleFixture fx;
  // One member matches; two outsiders echo the candidate. 1 (self) + 1
  // member = 2 >= |V| - f = 2 only after the member's report — outsider
  // echoes alone must not complete the match.
  fx.discovery.handle(5, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  fx.discovery.handle(6, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  EXPECT_FALSE(fx.discovery.finished());
  fx.discovery.handle(2, KnownMsg(NodeSet(TriangleFixture::kN, {0, 1, 2})));
  EXPECT_TRUE(fx.discovery.finished());
}

/// A gossip payload as an owner -> PD map. Fails the test unless the owners
/// are strictly ascending, the canonical frame order.
std::map<ProcessId, NodeSet> as_map(const CertGossipMsg& msg) {
  std::map<ProcessId, NodeSet> out;
  for (const PdCertificate& cert : msg.certs) {
    EXPECT_TRUE(out.empty() || out.rbegin()->first < cert.owner)
        << "owner " << cert.owner << " out of order";
    out.emplace(cert.owner, cert.pd);
  }
  return out;
}

/// A gossip message carrying `certs` in ascending owner order.
CertGossipMsg gossip_of(const std::map<ProcessId, NodeSet>& certs) {
  std::vector<PdCertificate> flat;
  for (const auto& [owner, pd] : certs) flat.push_back({owner, pd});
  return CertGossipMsg(std::move(flat));
}

TEST(SinkDiscoveryGossip, ReplyIsSharedUntilCertificatesChange) {
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 2}));
  discovery.start();

  const auto gossip_replies = [&] {
    std::vector<const CertGossipMsg*> replies;
    for (const auto& [to, msg] : host.sent) {
      if (const auto* g = dynamic_cast<const CertGossipMsg*>(msg.get())) {
        replies.push_back(g);
      }
    }
    return replies;
  };

  // Two DISCOVERs carrying already-known certificates: the replies must be
  // the same shared immutable object, not two map copies.
  discovery.handle(1, DiscoverMsg({0, NodeSet(n, {1, 2})}));
  discovery.handle(2, DiscoverMsg({0, NodeSet(n, {1, 2})}));
  auto replies = gossip_replies();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], replies[1]);

  // A certificate that adds knowledge invalidates the cached reply.
  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {0})}));
  replies = gossip_replies();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_NE(replies[1], replies[2]);
  EXPECT_EQ(as_map(*replies[2]).count(3), 1u);
}

/// The most recent gossip reply the host sent, or nullptr.
const CertGossipMsg* last_gossip_reply(const FakeHost& host) {
  for (auto it = host.sent.rbegin(); it != host.sent.rend(); ++it) {
    if (const auto* g = dynamic_cast<const CertGossipMsg*>(it->second.get())) {
      return g;
    }
  }
  return nullptr;
}

/// Asks `discovery` for its gossip reply with a DISCOVER that carries an
/// already-known certificate (so the probe itself merges nothing).
const CertGossipMsg* probe_reply(SinkDiscovery& discovery, FakeHost& host,
                                 const PdCertificate& known) {
  discovery.handle(known.owner, DiscoverMsg(known));
  return last_gossip_reply(host);
}

TEST(SinkDiscoveryTable, ConflictingByzantineCertificatesMergeToTheUnion) {
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 2}));
  discovery.start();
  const PdCertificate known{1, NodeSet(n, {0, 2})};
  discovery.handle(1, DiscoverMsg(known));

  // Byzantine owner 3 tells 1 and 2 different stories.
  discovery.handle(1, CertGossipMsg({{3, NodeSet(n, {4})}}));
  discovery.handle(
      2, CertGossipMsg({{2, NodeSet(n, {0})}, {3, NodeSet(n, {5})}}));
  const CertGossipMsg* merged = probe_reply(discovery, host, known);
  ASSERT_NE(merged, nullptr);
  const std::map<ProcessId, NodeSet> expected{{0, NodeSet(n, {1, 2})},
                                              {1, NodeSet(n, {0, 2})},
                                              {2, NodeSet(n, {0})},
                                              {3, NodeSet(n, {4, 5})}};
  EXPECT_EQ(as_map(*merged), expected);
  EXPECT_TRUE(discovery.certified_graph().has_edge(3, 4));
  EXPECT_TRUE(discovery.certified_graph().has_edge(3, 5));

  // Re-delivering a subset of what 3 already claimed changes nothing: the
  // next reply is the same cached object.
  discovery.handle(2, CertGossipMsg({{3, NodeSet(n, {5})}}));
  discovery.handle(4, DiscoverMsg({3, NodeSet(n, {4})}));
  EXPECT_EQ(last_gossip_reply(host), merged);
  EXPECT_EQ(probe_reply(discovery, host, known), merged);

  // A superset adds knowledge: the reply is rebuilt and shows the union.
  discovery.handle(1, CertGossipMsg({{3, NodeSet(n, {4, 6})}}));
  const CertGossipMsg* grown = probe_reply(discovery, host, known);
  ASSERT_NE(grown, nullptr);
  EXPECT_NE(grown, merged);
  EXPECT_EQ(as_map(*grown).at(3), NodeSet(n, {4, 5, 6}));
  EXPECT_EQ(grown->certs.size(), expected.size());
  EXPECT_TRUE(discovery.certified_graph().has_edge(3, 6));
}

TEST(SinkDiscoveryTable, MalformedCertificatesChangeNothing) {
  // Owners index the table directly, so the guard in front of it is what
  // keeps hostile owner ids and foreign-universe sets out of bounds.
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 2}));
  discovery.start();
  const PdCertificate known{1, NodeSet(n, {0, 2})};
  const CertGossipMsg* before = probe_reply(discovery, host, known);
  ASSERT_NE(before, nullptr);
  const std::vector<PdCertificate> certs_before = before->certs;
  const NodeSet candidate_before = discovery.candidate_set();
  const std::size_t edges_before = discovery.certified_graph().edge_count();
  const auto epoch_before = discovery.stats().cert_epoch;

  const std::vector<PdCertificate> malformed{
      {kInvalidProcess, NodeSet(n, {1})},
      {static_cast<ProcessId>(n), NodeSet(n, {1})},
      {static_cast<ProcessId>(n) + 1000000, NodeSet(n, {1})},
      // PDs over a larger, a smaller and the empty (default) universe.
      {3, NodeSet(n + 1, {1, static_cast<ProcessId>(n)})},
      {3, NodeSet(n - 1, {1})},
      {3, NodeSet()},
  };
  for (const PdCertificate& cert : malformed) {
    discovery.handle(2, DiscoverMsg(cert));
    EXPECT_EQ(last_gossip_reply(host), before) << "owner=" << cert.owner;
    discovery.handle(2, CertGossipMsg({{cert.owner, cert.pd}}));
    EXPECT_EQ(probe_reply(discovery, host, known), before)
        << "owner=" << cert.owner;
  }
  // All of them in one gossip payload, after a well-formed but known entry.
  std::vector<PdCertificate> batch{{1, NodeSet(n, {0})}};
  batch.insert(batch.end(), malformed.begin(), malformed.end());
  discovery.handle(2, CertGossipMsg(std::move(batch)));

  EXPECT_EQ(probe_reply(discovery, host, known), before);
  EXPECT_EQ(before->certs, certs_before);
  EXPECT_EQ(discovery.candidate_set(), candidate_before);
  EXPECT_EQ(discovery.certified_graph().edge_count(), edges_before);
  EXPECT_EQ(discovery.stats().cert_epoch, epoch_before);
}

/// Recompute-from-scratch reference for the candidate set: self, own PD,
/// plus every reachable node with f+1 vertex-disjoint certified paths.
NodeSet reference_candidate(const SinkDiscovery& d, ProcessId self,
                            const NodeSet& pd, std::size_t f) {
  const auto& g = d.certified_graph();
  const NodeSet reachable = g.reachable_from(self);
  NodeSet expected = pd;
  expected.add(self);
  for (ProcessId j : reachable) {
    if (j == self || pd.contains(j)) continue;
    if (graph::has_k_vertex_disjoint_paths(g, self, j, f + 1, reachable)) {
      expected.add(j);
    }
  }
  return expected;
}

class SinkDiscoveryEquivalenceTest
    : public ::testing::TestWithParam<std::size_t> {};

// f = 1 exercises the dominator-tree batch path, f = 2 the max-flow path
// with cut-certificate caching; both must agree with the from-scratch
// reference after every single certificate merge.
INSTANTIATE_TEST_SUITE_P(FaultThresholds, SinkDiscoveryEquivalenceTest,
                         ::testing::Values(1, 2));

TEST_P(SinkDiscoveryEquivalenceTest, MatchesFromScratchRecomputeOnRandomFeeds) {
  const std::size_t f = GetParam();
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    graph::KosrGenParams params;
    params.sink_size = 8;
    params.non_sink_size = 8;
    params.k = 2 * f + 1;
    params.seed = 100 + static_cast<std::uint64_t>(trial);
    const auto g = graph::random_kosr_graph(params);
    const std::size_t n = g.node_count();

    // Observe from a non-sink process (it reaches both sink and non-sink
    // nodes, so negative verdicts matter) and from a sink member.
    for (const ProcessId self : {static_cast<ProcessId>(n - 1), ProcessId{0}}) {
      FakeHost host(self, n, f);
      SinkDiscovery discovery(host, g.pd_of(self));
      discovery.start();

      // Feed single-owner certificates in random order, interleaved with
      // updates, and compare against the reference after every step.
      std::vector<ProcessId> order;
      for (ProcessId v = 0; v < n; ++v) {
        if (v != self) order.push_back(v);
      }
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.uniform_range(0, i - 1)]);
      }
      for (ProcessId owner : order) {
        discovery.handle(owner, CertGossipMsg({{owner, g.pd_of(owner)}}));
        ASSERT_EQ(discovery.candidate_set(),
                  reference_candidate(discovery, self, g.pd_of(self), f))
            << "trial=" << trial << " self=" << self << " owner=" << owner;
      }
      // The incremental run must not have paid more flow evaluations than
      // the recompute-everything baseline, and redundant deliveries must
      // hit the memoized verdicts.
      const auto& stats = discovery.stats();
      EXPECT_LE(stats.flow_evals, stats.flow_evals_baseline);

      // Replaying every certificate is pure noise: no new edges, no new
      // evaluations.
      const auto evals_before = stats.flow_evals;
      const auto dirty_before = stats.dirty_updates;
      for (ProcessId owner : order) {
        discovery.handle(owner, CertGossipMsg({{owner, g.pd_of(owner)}}));
      }
      EXPECT_EQ(discovery.stats().flow_evals, evals_before);
      EXPECT_EQ(discovery.stats().dirty_updates, dirty_before);
    }
  }
}

TEST_P(SinkDiscoveryEquivalenceTest,
       MultiOwnerAndConflictingGossipMatchesReferences) {
  // Gossip maps carry several owners at once, and f Byzantine owners issue
  // several conflicting certificates each. After every delivery the
  // candidate set must match the from-scratch reference and the gossip
  // reply must equal a plain std::map union of everything delivered.
  const std::size_t f = GetParam();
  Rng rng(77 + f);
  for (int trial = 0; trial < 8; ++trial) {
    graph::KosrGenParams params;
    params.sink_size = 8;
    params.non_sink_size = 8;
    params.k = 2 * f + 1;
    params.seed = 300 + static_cast<std::uint64_t>(trial);
    const auto g = graph::random_kosr_graph(params);
    const std::size_t n = g.node_count();

    for (const ProcessId self : {static_cast<ProcessId>(n - 1), ProcessId{0}}) {
      FakeHost host(self, n, f);
      SinkDiscovery discovery(host, g.pd_of(self));
      discovery.start();
      const PdCertificate own{self, g.pd_of(self)};
      std::map<ProcessId, NodeSet> reference{{self, g.pd_of(self)}};

      // Honest owners certify their true PD; Byzantine ones (never self)
      // issue three random, mutually conflicting certificates each.
      std::vector<PdCertificate> deliveries;
      NodeSet byzantine(n);
      while (byzantine.count() < f) {
        const auto b = static_cast<ProcessId>(rng.uniform(n));
        if (b != self) byzantine.add(b);
      }
      for (ProcessId v = 0; v < n; ++v) {
        if (v == self) continue;
        if (!byzantine.contains(v)) {
          deliveries.push_back({v, g.pd_of(v)});
          continue;
        }
        for (int lie = 0; lie < 3; ++lie) {
          NodeSet pd(n);
          for (ProcessId t = 0; t < n; ++t) {
            if (t != v && rng.chance(0.3)) pd.add(t);
          }
          deliveries.push_back({v, std::move(pd)});
        }
      }
      rng.shuffle(deliveries);

      std::size_t next = 0;
      while (next < deliveries.size()) {
        // One gossip map of up to 4 distinct owners.
        std::map<ProcessId, NodeSet> certs;
        const auto batch = static_cast<std::size_t>(rng.uniform_range(1, 4));
        while (next < deliveries.size() && certs.size() < batch &&
               certs.count(deliveries[next].owner) == 0) {
          certs.emplace(deliveries[next].owner, deliveries[next].pd);
          ++next;
        }
        for (const auto& [owner, pd] : certs) {
          auto [it, inserted] = reference.emplace(owner, pd);
          if (!inserted) it->second |= pd;
        }
        const ProcessId sender = certs.begin()->first;
        discovery.handle(sender, gossip_of(certs));
        ASSERT_EQ(discovery.candidate_set(),
                  reference_candidate(discovery, self, g.pd_of(self), f))
            << "trial=" << trial << " self=" << self << " next=" << next;
        const CertGossipMsg* reply = probe_reply(discovery, host, own);
        ASSERT_NE(reply, nullptr);
        ASSERT_EQ(as_map(*reply), reference)
            << "trial=" << trial << " self=" << self << " next=" << next;
      }
    }
  }
}

TEST(SinkDiscoveryIncremental, CutCertificateInvalidatedByEdgeFromEarlierEpoch) {
  // Regression: a frontier-crossing edge must void a cached negative
  // verdict even when it arrives in an epoch where the rejected node is
  // outside the `affected` set (the crossing and the path completion can
  // land in different batches). Here node 3 is first rejected with
  // separator {2} (only path 0→1→2→3); the bypass is then built in two
  // steps — 5→6 first (crosses the frontier, but nothing reaches 3 through
  // it yet), 6→3 second. A cut checked only against the current batch
  // would keep 3 rejected forever.
  const std::size_t n = 8;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1, 5}));
  discovery.start();
  discovery.handle(1, DiscoverMsg({1, NodeSet(n, {2})}));
  discovery.handle(2, DiscoverMsg({2, NodeSet(n, {3, 4})}));
  discovery.handle(4, DiscoverMsg({4, NodeSet(n, {3})}));
  EXPECT_EQ(discovery.candidate_set(), NodeSet(n, {0, 1, 5}))
      << "3 must be rejected while 2 separates it";
  discovery.handle(5, DiscoverMsg({5, NodeSet(n, {6})}));
  discovery.handle(6, DiscoverMsg({6, NodeSet(n, {3})}));
  // Ground truth now has 0→1→2→3 and 0→5→6→3.
  EXPECT_TRUE(discovery.candidate_set().contains(3));
  EXPECT_EQ(discovery.candidate_set(),
            reference_candidate(discovery, 0, NodeSet(n, {1, 5}), 1));
}

TEST(SinkDiscoveryIncremental, MemoizedVerdictsSkipUnaffectedNodes) {
  // Line graph into a far island: 0 -> 1 -> 2 -> 3 with f = 1, so nothing
  // beyond PD is ever admitted (a single path is not 2 disjoint paths).
  // Certificates about the far end must not re-evaluate near nodes that no
  // new path can reach.
  const std::size_t n = 6;
  FakeHost host(0, n, 1);
  SinkDiscovery discovery(host, NodeSet(n, {1}));
  discovery.start();
  discovery.handle(1, DiscoverMsg({1, NodeSet(n, {2})}));
  discovery.handle(2, DiscoverMsg({2, NodeSet(n, {3})}));
  const auto baseline = discovery.stats().flow_evals_baseline;
  EXPECT_GT(baseline, 0u);
  // Node 3's certificate about 4 only affects {4}: nodes 2 and 3 keep
  // their memoized negative verdicts.
  discovery.handle(3, DiscoverMsg({3, NodeSet(n, {4})}));
  const auto& stats = discovery.stats();
  EXPECT_GT(stats.memoized_skips, 0u);
  EXPECT_EQ(stats.flow_evals, 0u);  // degree bound prunes every check here
  EXPECT_GT(stats.degree_prunes, 0u);
  EXPECT_EQ(discovery.candidate_set(), NodeSet(n, {0, 1}));
}

}  // namespace
}  // namespace scup::cup
