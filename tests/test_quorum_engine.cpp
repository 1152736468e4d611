// QuorumEngine unit suite: hash-consed interning, flattened-vs-recursive
// evaluation equivalence on randomized nested qsets, closure memoization
// (hits, invalidation), and — at the ScpNode level — from-scratch
// equivalence of the incrementally maintained support views against the
// historical gather path, plus the PREPARE commit-range statement
// invariant (c_n != 0 ⇒ c_n ≤ h_n).
#include "fbqs/quorum_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "scp/scp_node.hpp"
#include "sim/host.hpp"

namespace scup::fbqs {
namespace {

QSet random_qset(Rng& rng, std::size_t universe, int depth) {
  std::vector<ProcessId> validators;
  const std::size_t n_validators = 1 + rng.uniform(3);
  for (std::size_t i = 0; i < n_validators; ++i) {
    validators.push_back(static_cast<ProcessId>(rng.uniform(universe)));
  }
  std::vector<QSet> inner;
  if (depth > 0) {
    const std::size_t n_inner = rng.uniform(3);  // 0..2
    for (std::size_t i = 0; i < n_inner; ++i) {
      inner.push_back(random_qset(rng, universe, depth - 1));
    }
  }
  const std::size_t elements = validators.size() + inner.size();
  const std::size_t threshold = 1 + rng.uniform(elements);
  return QSet(threshold, std::move(validators), std::move(inner));
}

NodeSet random_set(Rng& rng, std::size_t universe) {
  NodeSet s(universe);
  for (ProcessId i = 0; i < universe; ++i) {
    if (rng.uniform(2) == 0) s.add(i);
  }
  return s;
}

TEST(QuorumEngineTest, InterningIdentity) {
  QuorumEngine engine;
  const QSet a = QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  const QSet b = QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
  const QSet c = QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2});
  const QSet nested(1, {}, {a, c});

  const QSetId ia = engine.intern(a);
  const QSetId ib = engine.intern(b);
  const QSetId ic = engine.intern(c);
  const QSetId in = engine.intern(nested);
  EXPECT_EQ(ia, ib) << "structurally equal qsets must share an id";
  EXPECT_NE(ia, ic);
  EXPECT_NE(in, ia);
  EXPECT_EQ(engine.interned_count(), 3u);
  EXPECT_EQ(engine.stats().intern_hits, 1u);
  EXPECT_TRUE(engine.qset(ia) == a);
  EXPECT_TRUE(engine.qset(in) == nested);

  // Re-interning the nested set is a hit, not a new entry.
  EXPECT_EQ(engine.intern(nested), in);
  EXPECT_EQ(engine.interned_count(), 3u);
}

TEST(QuorumEngineTest, FlattenedMatchesRecursiveOnRandomNestedQSets) {
  constexpr std::size_t kUniverse = 12;
  Rng rng(20260802);
  QuorumEngine engine;
  for (int trial = 0; trial < 200; ++trial) {
    const QSet q = random_qset(rng, kUniverse, /*depth=*/3);
    const QSetId id = engine.intern(q);
    for (int probe = 0; probe < 10; ++probe) {
      const NodeSet nodes = random_set(rng, kUniverse);
      EXPECT_EQ(engine.satisfied_by(id, nodes), q.satisfied_by(nodes))
          << "trial=" << trial << " qset=" << q.to_string()
          << " nodes=" << nodes.to_string();
      EXPECT_EQ(engine.blocked_by(id, nodes), q.blocked_by(nodes))
          << "trial=" << trial << " qset=" << q.to_string()
          << " nodes=" << nodes.to_string();
    }
  }
}

TEST(QuorumEngineTest, EmptyQSetSemantics) {
  QuorumEngine engine;
  const QSetId id = engine.intern(QSet());
  const NodeSet none(4);
  EXPECT_TRUE(engine.satisfied_by(id, none));   // vacuous slice
  EXPECT_FALSE(engine.blocked_by(id, NodeSet::full(4)));
}

/// Reference closure: the historical ScpNode loop verbatim, on recursive
/// QSet evaluation.
bool reference_quorum_contains(const NodeSet& support, ProcessId member,
                               const std::vector<const QSet*>& qsets) {
  NodeSet live = support;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ProcessId id : live) {
      if (qsets[id] == nullptr || !qsets[id]->satisfied_by(live)) {
        live.remove(id);
        changed = true;
      }
    }
  }
  return live.contains(member);
}

TEST(QuorumEngineTest, ClosureMatchesReferenceOnRandomConfigurations) {
  constexpr std::size_t kUniverse = 10;
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    QuorumEngine engine;
    std::vector<QSetId> ids(kUniverse, kNoQSetId);
    std::vector<const QSet*> ref(kUniverse, nullptr);
    std::vector<QSet> storage;
    storage.reserve(kUniverse);
    for (ProcessId i = 0; i < kUniverse; ++i) {
      if (rng.uniform(8) == 0) continue;  // some processes never spoke
      storage.push_back(random_qset(rng, kUniverse, 2));
      ids[i] = engine.intern(storage.back());
    }
    // Pointers resolved after storage stops reallocating.
    std::size_t next = 0;
    for (ProcessId i = 0; i < kUniverse; ++i) {
      if (ids[i] != kNoQSetId) ref[i] = &storage[next++];
    }
    for (int probe = 0; probe < 20; ++probe) {
      const NodeSet support = random_set(rng, kUniverse);
      const auto member = static_cast<ProcessId>(rng.uniform(kUniverse));
      EXPECT_EQ(engine.quorum_contains(support, member, ids),
                reference_quorum_contains(support, member, ref))
          << "trial=" << trial << " support=" << support.to_string()
          << " member=" << member;
    }
  }
}

TEST(QuorumEngineTest, ClosureMemoizationHitsAndSelfValidation) {
  QuorumEngine engine;
  constexpr std::size_t kN = 4;
  const QSet q = QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2, 3});
  std::vector<QSetId> ids(kN, engine.intern(q));
  const NodeSet support = NodeSet::full(kN);

  EXPECT_TRUE(engine.quorum_contains(support, 0, ids));
  const auto runs = engine.stats().closure_runs;
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(engine.stats().closure_cache_hits, 0u);

  // Same support + same assignment: served from cache — and the baseline
  // is charged what the original run cost, so savings are measurable.
  const auto baseline_before = engine.stats().qset_evals_baseline;
  const auto evals_before = engine.stats().qset_evals;
  EXPECT_TRUE(engine.quorum_contains(support, 0, ids));
  EXPECT_EQ(engine.stats().closure_runs, runs);
  EXPECT_GE(engine.stats().closure_cache_hits, 1u);
  EXPECT_EQ(engine.stats().qset_evals, evals_before) << "hit must be free";
  EXPECT_GT(engine.stats().qset_evals_baseline, baseline_before)
      << "the rescan baseline would have paid for the closure again";

  // A member re-announces a different qset: cached entries re-validate
  // against the current assignment and stop matching — the verdict is
  // recomputed, and it honours the new (stricter) qset.
  const QSet strict = QSet::threshold_of(4, std::vector<ProcessId>{0, 1, 2, 3});
  ids[1] = engine.intern(strict);
  const auto hits_before = engine.stats().closure_cache_hits;
  NodeSet three(kN, {0, 1, 2});
  // {0,1,2} satisfies 3-of-4 for members 0 and 2 but not 1's new 4-of-4:
  // the closure drops 1, then 0 and 2 lack their threshold — FALSE.
  EXPECT_FALSE(engine.quorum_contains(three, 0, ids));
  EXPECT_GT(engine.stats().closure_runs, runs);
  EXPECT_EQ(engine.stats().closure_cache_hits, hits_before)
      << "stale entries must not match the changed assignment";
}

}  // namespace
}  // namespace scup::fbqs

// ---------------------------------------------------------------------------
// ScpNode-level: incremental support views vs the from-scratch gather path,
// closure-cache invalidation on envelope (qset) change, and the PREPARE
// statement invariant.
// ---------------------------------------------------------------------------
namespace scup::scp {
namespace {

class FakeHost : public sim::ProtocolHost {
 public:
  FakeHost(ProcessId self, std::size_t n) : self_(self), n_(n) {}
  ProcessId self() const override { return self_; }
  std::size_t universe() const override { return n_; }
  std::size_t fault_threshold() const override { return 1; }
  void host_send(ProcessId to, sim::MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void host_set_timer(int, SimTime) override {}
  SimTime host_now() const override { return 0; }
  std::uint64_t host_sign(std::uint64_t) const override { return 0; }
  bool host_verify(ProcessId, std::uint64_t, std::uint64_t) const override {
    return true;
  }
  void host_counter_add(sim::ProtoCounter counter,
                        std::uint64_t delta) override {
    counters[static_cast<std::size_t>(counter)] += delta;
  }

  std::vector<std::pair<ProcessId, sim::MessagePtr>> sent;
  std::array<std::uint64_t, sim::kProtoCounterCount> counters{};

 private:
  ProcessId self_;
  std::size_t n_;
};

/// Every PREPARE this host ever saw emitted must satisfy the commit-range
/// invariant: a commit vote range [c_n, h_n] is only published under a
/// confirmed-prepared bound (c_n != 0 ⇒ c_n ≤ h_n).
void expect_prepare_invariant(const FakeHost& host) {
  for (const auto& [to, msg] : host.sent) {
    const auto* env = dynamic_cast<const Envelope*>(msg.get());
    if (env == nullptr) continue;
    if (const auto* p = std::get_if<PrepareStmt>(&env->statement)) {
      EXPECT_TRUE(p->c_n == 0 || p->c_n <= p->h_n)
          << "malformed commit range [" << p->c_n << ", " << p->h_n << "]";
    }
  }
}

fbqs::QSet majority4() {
  return fbqs::QSet::threshold_of(3, std::vector<ProcessId>{0, 1, 2, 3});
}

TEST(ScpNodeEngineTest, IncrementalSupportMatchesFromScratchThroughDecision) {
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), /*own_value=*/42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  EXPECT_TRUE(node.support_views_consistent());

  // Peers nominate 42: node accepts, ratifies, moves to PREPARE.
  for (ProcessId p = 1; p < kN; ++p) {
    NominateStmt nom;
    nom.voted.push_back(42);
    nom.accepted.push_back(42);
    node.handle(p, Envelope(p, 1, majority4(), Statement{nom}));
    EXPECT_TRUE(node.support_views_consistent()) << "after nominate from " << p;
  }
  EXPECT_EQ(node.phase(), ScpNode::Phase::kPrepare);

  // Peers prepare (1, 42); then publish the commit range; then confirm.
  for (ProcessId p = 1; p < kN; ++p) {
    PrepareStmt prep;
    prep.b = Ballot{1, 42};
    prep.p = Ballot{1, 42};
    node.handle(p, Envelope(p, 2, majority4(), Statement{prep}));
    EXPECT_TRUE(node.support_views_consistent()) << "after prepare from " << p;
  }
  for (ProcessId p = 1; p < kN; ++p) {
    PrepareStmt prep;
    prep.b = Ballot{1, 42};
    prep.p = Ballot{1, 42};
    prep.c_n = 1;
    prep.h_n = 1;
    node.handle(p, Envelope(p, 3, majority4(), Statement{prep}));
    EXPECT_TRUE(node.support_views_consistent());
  }
  for (ProcessId p = 1; p < kN; ++p) {
    ConfirmStmt conf;
    conf.b = Ballot{1, 42};
    conf.p_n = 1;
    conf.c_n = 1;
    conf.h_n = 1;
    node.handle(p, Envelope(p, 4, majority4(), Statement{conf}));
    EXPECT_TRUE(node.support_views_consistent());
  }
  ASSERT_TRUE(node.decided());
  EXPECT_EQ(node.decision(), 42u);
  expect_prepare_invariant(host);

  // The memoizing path must have done real work and found real reuse.
  const auto& s = node.engine().stats();
  EXPECT_GT(s.closure_runs, 0u);
  EXPECT_GT(s.closure_cache_hits, 0u);
  EXPECT_GT(s.qset_evals_baseline, s.qset_evals)
      << "rescan baseline should cost more than the memoized path";
  // An owned-engine node flushes its counters to the host's SimMetrics.
  EXPECT_EQ(host.counters[static_cast<std::size_t>(
                sim::ProtoCounter::kQuorumClosureRuns)],
            s.closure_runs);
  EXPECT_EQ(host.counters[static_cast<std::size_t>(
                sim::ProtoCounter::kQsetEvals)],
            s.qset_evals);
}

TEST(ScpNodeEngineTest, QsetChangeInvalidatesClosureCache) {
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), 42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();

  NominateStmt nom;
  nom.voted.push_back(42);
  nom.accepted.push_back(42);
  for (ProcessId p = 1; p < kN; ++p) {
    node.handle(p, Envelope(p, 1, majority4(), Statement{nom}));
  }
  const auto runs_before = node.engine().stats().closure_runs;

  // Sender 1 re-announces with a DIFFERENT qset: every cached closure
  // verdict embeds the old assignment, so the next check must re-run even
  // though the support sets are unchanged.
  const fbqs::QSet other =
      fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2, 3});
  NominateStmt nom2 = nom;
  nom2.voted.push_back(43);  // grow the statement so the envelope is fresh
  node.handle(1, Envelope(1, 5, other, Statement{nom2}));
  EXPECT_TRUE(node.support_views_consistent());
  EXPECT_GT(node.engine().stats().closure_runs, runs_before)
      << "qset change must invalidate the closure cache";
}

/// A fuzzed envelope stream over 6 processes (node 0 under test, peers
/// 1..5), values 100..105. Peer 5 is Byzantine: its first NOMINATE names
/// every value and each later one withdraws part of it. Peers rebind
/// between three structurally different qsets mid-stream.
class EnvelopeFuzz {
 public:
  static constexpr std::size_t kN = 6;
  static constexpr ProcessId kShrinker = 5;

  /// `ballot_weight` out of 8 statements are ballot statements.
  EnvelopeFuzz(std::uint64_t seed, std::uint64_t ballot_weight)
      : rng_(seed), ballot_weight_(ballot_weight) {}

  static fbqs::QSet qa() {
    return fbqs::QSet::threshold_of(
        4, std::vector<ProcessId>{0, 1, 2, 3, 4, 5});
  }

  Envelope next() {
    const auto p = static_cast<ProcessId>(1 + rng_.uniform(kN - 1));
    const fbqs::QSet q = pick_qset();
    Statement stmt;
    if (rng_.uniform(8) >= ballot_weight_) {
      stmt = p == kShrinker ? shrinking_nomination() : random_nomination();
    } else {
      stmt = random_ballot();
    }
    return Envelope(p, ++seq_[p], q, std::move(stmt));
  }

 private:
  fbqs::QSet pick_qset() {
    switch (rng_.uniform(8)) {
      case 0:
        return fbqs::QSet::threshold_of(
            3, std::vector<ProcessId>{0, 1, 2, 3, 4, 5});
      case 1:
        return fbqs::QSet::threshold_of(2, std::vector<ProcessId>{0, 1, 2});
      default:
        return qa();
    }
  }

  NominateStmt random_nomination() {
    std::set<Value> voted;
    std::set<Value> accepted;
    const std::size_t k = 1 + rng_.uniform(3);
    for (std::size_t i = 0; i < k; ++i) {
      const Value v = 100 + rng_.uniform(4);
      if (rng_.uniform(2) == 0) voted.insert(v); else accepted.insert(v);
    }
    return NominateStmt{{voted.begin(), voted.end()},
                        {accepted.begin(), accepted.end()}};
  }

  NominateStmt shrinking_nomination() {
    // Withdraw one value per statement (from the top), down to {100}.
    NominateStmt s;
    for (Value v = 100; v < 100 + shrinker_width_; ++v) s.voted.push_back(v);
    s.accepted.assign(s.voted.begin(),
                      s.voted.begin() + (s.voted.size() + 1) / 2);
    if (shrinker_width_ > 1) --shrinker_width_;
    return s;
  }

  Statement random_ballot() {
    switch (rng_.uniform(3)) {
      case 0: {
        PrepareStmt s;
        s.b = Ballot{1 + static_cast<std::uint32_t>(rng_.uniform(3)),
                     100 + rng_.uniform(4)};
        if (rng_.uniform(2) == 0) s.p = s.b;
        if (rng_.uniform(3) == 0) {
          s.c_n = 1;
          s.h_n = s.b.n;
        }
        return s;
      }
      case 1: {
        ConfirmStmt s;
        s.b = Ballot{1 + static_cast<std::uint32_t>(rng_.uniform(3)),
                     100 + rng_.uniform(4)};
        s.p_n = s.b.n;
        s.c_n = 1;
        s.h_n = s.b.n;
        return s;
      }
      default: {
        ExternalizeStmt s;
        s.commit = Ballot{1, 100 + rng_.uniform(4)};
        s.h_n = 1 + static_cast<std::uint32_t>(rng_.uniform(2));
        return s;
      }
    }
  }

  Rng rng_;
  std::uint64_t ballot_weight_;
  std::vector<std::uint64_t> seq_ = std::vector<std::uint64_t>(kN, 0);
  Value shrinker_width_ = 6;
};

TEST(ScpNodeEngineTest, RandomizedEnvelopeFuzzKeepsViewsConsistent) {
  constexpr std::size_t kN = EnvelopeFuzz::kN;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EnvelopeFuzz fuzz(seed, /*ballot_weight=*/6);
    FakeHost host(0, kN);
    ScpNode node(host, kN, EnvelopeFuzz::qa(), 100 + seed);
    for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
    // Envelopes buffered before start(): indexed, never echoed.
    for (int step = 0; step < 12; ++step) {
      const Envelope env = fuzz.next();
      node.handle(env.sender, env);
      ASSERT_TRUE(node.support_views_consistent())
          << "seed=" << seed << " pre-start step=" << step;
    }
    node.start();
    ASSERT_TRUE(node.support_views_consistent()) << "seed=" << seed;
    ASSERT_TRUE(node.nomination_settled()) << "seed=" << seed;

    for (int step = 0; step < 120; ++step) {
      const Envelope env = fuzz.next();
      node.handle(env.sender, env);
      ASSERT_TRUE(node.support_views_consistent())
          << "seed=" << seed << " step=" << step;
      ASSERT_TRUE(node.nomination_settled())
          << "seed=" << seed << " step=" << step;
    }
    expect_prepare_invariant(host);
  }
}

/// Reference model of rescan nomination: keeps every sender's latest
/// NOMINATE and, on every step, re-checks every value anyone currently
/// nominates, with Algorithm-1 closures evaluated directly on QSets (no
/// QuorumEngine, no materialized supports). Mirrors ScpNode's storage
/// rules: per-stream seq filtering, ballot-stream qset wins, the rebind
/// budget, no echo before start().
class RescanNomination {
 public:
  RescanNomination(std::size_t n, fbqs::QSet qset, Value own)
      : n_(n), qset_(std::move(qset)), own_(own), bound_(n), rebinds_(n, 0) {}

  void start() {
    started_ = true;
    voted_ = {own_};
    publish();
    while (step()) {
    }
  }

  void receive(const Envelope& env) {
    const ProcessId id = env.sender;
    const auto* nom = std::get_if<NominateStmt>(&env.statement);
    auto& seqs = nom != nullptr ? nom_seq_ : ballot_seq_;
    if (seqs.count(id) > 0 && seqs[id] >= env.seq) return;
    seqs[id] = env.seq;
    if (nom != nullptr) {
      nom_[id] = *nom;
      if (ballot_seq_.count(id) == 0) bind(id, env.qset);
    } else {
      bind(id, env.qset);
    }
    if (!started_) return;
    if (nom != nullptr) {
      const std::size_t before = voted_.size();
      voted_.insert(nom->voted.begin(), nom->voted.end());
      voted_.insert(nom->accepted.begin(), nom->accepted.end());
      if (voted_.size() != before) publish();
    }
    while (step()) {
    }
  }

  std::vector<Value> accepted() const {
    return {accepted_.begin(), accepted_.end()};
  }
  std::vector<Value> candidates() const {
    return {candidates_.begin(), candidates_.end()};
  }

 private:
  void publish() {
    nom_[0] = NominateStmt{{voted_.begin(), voted_.end()},
                           {accepted_.begin(), accepted_.end()}};
    bind(0, qset_);
  }

  void bind(ProcessId id, const fbqs::QSet& q) {
    if (bound_[id].has_value()) {
      if (*bound_[id] == q) return;
      if (rebinds_[id] >= ScpNode::kMaxQsetRebinds) return;
      ++rebinds_[id];
    }
    bound_[id] = q;
  }

  bool in_quorum(NodeSet support) const {
    for (bool shrunk = true; shrunk;) {
      shrunk = false;
      for (ProcessId m : support.to_vector()) {
        if (!bound_[m].has_value() || !bound_[m]->satisfied_by(support)) {
          support.remove(m);
          shrunk = true;
        }
      }
    }
    return support.contains(0);
  }

  bool step() {
    std::set<Value> seen = voted_;
    for (const auto& [id, nom] : nom_) {
      seen.insert(nom.voted.begin(), nom.voted.end());
      seen.insert(nom.accepted.begin(), nom.accepted.end());
    }
    bool changed = false;
    for (Value v : seen) {
      NodeSet vote(n_);
      NodeSet accept(n_);
      for (const auto& [id, nom] : nom_) {
        const Statement s{nom};
        if (votes_nominate(s, v)) vote.add(id);
        if (accepts_nominate(s, v)) accept.add(id);
      }
      if (accepted_.count(v) == 0) {
        NodeSet blockers = accept;
        blockers.remove(0);
        if (qset_.blocked_by(blockers) || in_quorum(vote)) {
          accepted_.insert(v);
          voted_.insert(v);
          changed = true;
        }
      }
      if (accepted_.count(v) > 0 && candidates_.count(v) == 0 &&
          in_quorum(accept)) {
        candidates_.insert(v);
        changed = true;
      }
    }
    if (changed) publish();
    return changed;
  }

  std::size_t n_;
  fbqs::QSet qset_;
  Value own_;
  bool started_ = false;
  std::map<ProcessId, NominateStmt> nom_;
  std::map<ProcessId, std::uint64_t> nom_seq_;
  std::map<ProcessId, std::uint64_t> ballot_seq_;
  std::vector<std::optional<fbqs::QSet>> bound_;
  std::vector<std::size_t> rebinds_;
  std::set<Value> voted_;
  std::set<Value> accepted_;
  std::set<Value> candidates_;
};

TEST(ScpNodeEngineTest, IncrementalNominationMatchesTheRescanReference) {
  constexpr std::size_t kN = EnvelopeFuzz::kN;
  std::size_t compared = 0;
  std::size_t with_candidates = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    EnvelopeFuzz fuzz(seed * 7919, /*ballot_weight=*/1);
    FakeHost host(0, kN);
    ScpNode node(host, kN, EnvelopeFuzz::qa(), 100 + seed % 4);
    RescanNomination ref(kN, EnvelopeFuzz::qa(), 100 + seed % 4);
    for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
    for (int step = 0; step < 8; ++step) {
      const Envelope env = fuzz.next();
      node.handle(env.sender, env);
      ref.receive(env);
    }
    node.start();
    ref.start();
    for (int step = 0; step < 150 && !node.decided(); ++step) {
      ASSERT_EQ(node.nominations_accepted(), ref.accepted())
          << "seed=" << seed << " step=" << step;
      ASSERT_EQ(node.candidates(), ref.candidates())
          << "seed=" << seed << " step=" << step;
      ++compared;
      const Envelope env = fuzz.next();
      node.handle(env.sender, env);
      ref.receive(env);
    }
    if (!node.candidates().empty()) ++with_candidates;
  }
  // The streams must exercise the interesting paths, not just agree on
  // empty sets.
  EXPECT_GT(compared, 1000u);
  EXPECT_GT(with_candidates, 12u);
}

TEST(ScpNodeEngineTest, NominateIsSentOnlyWhenTheStatementChanged) {
  // Candidates are not part of a NOMINATE: confirming one must not
  // re-broadcast an identical (voted, accepted) statement.
  constexpr std::size_t kN = EnvelopeFuzz::kN;
  std::size_t confirmed = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    EnvelopeFuzz fuzz(seed * 7919, /*ballot_weight=*/1);
    FakeHost host(0, kN);
    ScpNode node(host, kN, EnvelopeFuzz::qa(), 100 + seed % 4);
    for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
    node.start();
    for (int step = 0; step < 150 && !node.decided(); ++step) {
      const Envelope env = fuzz.next();
      node.handle(env.sender, env);
    }
    confirmed += node.candidates().size();
    // A broadcast hands one message object to every peer.
    std::vector<const NominateStmt*> emitted;
    const sim::Message* last = nullptr;
    for (const auto& [to, msg] : host.sent) {
      const auto* env = dynamic_cast<const Envelope*>(msg.get());
      if (env == nullptr || msg.get() == last) continue;
      last = msg.get();
      if (const auto* nom = std::get_if<NominateStmt>(&env->statement)) {
        emitted.push_back(nom);
      }
    }
    ASSERT_FALSE(emitted.empty());
    for (std::size_t i = 1; i < emitted.size(); ++i) {
      EXPECT_FALSE(emitted[i]->voted == emitted[i - 1]->voted &&
                   emitted[i]->accepted == emitted[i - 1]->accepted)
          << "seed=" << seed << " NOMINATE #" << i << " repeats #" << i - 1;
    }
  }
  EXPECT_GT(confirmed, 12u) << "the streams must confirm candidates";
}

TEST(ScpNodeEngineTest, OutOfOrderNominationListsAreDropped) {
  // The in-memory twin of the decoder's canonical-order check: a NOMINATE
  // whose lists are not strictly ascending is dropped unread (no echo).
  constexpr std::size_t kN = 4;
  FakeHost host(0, kN);
  ScpNode node(host, kN, majority4(), 42);
  for (ProcessId p = 1; p < kN; ++p) node.add_peer(p);
  node.start();
  const std::size_t sent = host.sent.size();
  const auto nominate = [&](std::uint64_t seq, std::vector<Value> voted,
                            std::vector<Value> accepted) {
    EXPECT_TRUE(node.handle(
        1, Envelope(1, seq, majority4(),
                    Statement{NominateStmt{std::move(voted),
                                           std::move(accepted)}})));
  };
  nominate(1, {44, 43}, {});
  nominate(2, {43, 43}, {});
  nominate(3, {43}, {45, 44});
  EXPECT_EQ(host.sent.size(), sent);
  EXPECT_TRUE(node.support_views_consistent());
  nominate(4, {43, 44}, {});
  EXPECT_GT(host.sent.size(), sent) << "a well-formed NOMINATE is echoed";
  EXPECT_TRUE(node.support_views_consistent());
}

}  // namespace
}  // namespace scup::scp
