// Scenario harness shared by integration tests, benches and examples: build
// a simulated network from a knowledge connectivity graph, place failures,
// run a protocol (Stellar+SD or BFT-CUP) to decision, and report
// correctness + cost metrics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/node_set.hpp"
#include "graph/digraph.hpp"
#include "sim/simulation.hpp"

namespace scup::core {

enum class AdversaryKind {
  kSilent,
  kDiscoveryLiar,
  kDiscoveryEquivocator,
  kScpEquivocator,
};

enum class ProtocolKind {
  kStellarSd,  // the paper's construction: SD + Algorithm 2 + SCP
  kBftCup,     // the baseline: SD + PBFT among sink + dissemination
};

struct ScenarioConfig {
  graph::Digraph graph;   // knowledge connectivity graph (PDs)
  std::size_t f = 0;      // known fault threshold
  NodeSet faulty;         // actual failure set
  AdversaryKind adversary = AdversaryKind::kSilent;
  ProtocolKind protocol = ProtocolKind::kStellarSd;
  sim::NetworkConfig net;
  SimTime deadline = 2'000'000;

  /// Proposal of process i (defaults to i + 1000 when empty).
  std::vector<Value> values;

  /// Staged arrival (churn): activation time of process i, indexed by id
  /// (0 or missing = starts with everyone else). Late joiners run
  /// discovery over a knowledge graph that grows as they appear.
  std::vector<SimTime> activations;
  /// Crash-fault schedule: process -> crash time. Crashed processes count
  /// against f together with `faulty` (|faulty ∪ crashed| <= f), are
  /// excluded from the termination requirement, but still participate in
  /// the agreement check if they decided before crashing.
  std::vector<std::pair<ProcessId, SimTime>> crashes;
  /// Discovery retransmission interval, forwarded to every correct node's
  /// cup::DiscoveryConfig (0 = off). Required for liveness when
  /// net.pre_gst_drop > 0.
  SimTime discovery_requery = 0;
  /// Simulator shard count (sim::Simulation::set_shards); 0 and 1 both
  /// mean one shard on the calling thread. Every value yields a
  /// bit-identical report (fingerprint, metrics, decisions).
  std::size_t shards = 0;
};

struct ScenarioReport {
  // Consensus properties over correct processes.
  bool all_decided = false;   // Termination
  bool agreement = false;     // Agreement (vacuous if none decided)
  bool validity = false;      // decided value was proposed by some process
  Value decided_value = kNoValue;
  SimTime first_decision = kTimeInfinity;
  SimTime last_decision = kTimeInfinity;
  std::vector<SimTime> decision_times;  // indexed by process; inf if none

  // Sink detector outcomes (Stellar+SD and BFT-CUP both run it).
  bool sd_all_returned = false;
  bool sd_sink_exact = false;  // every returned V equals the true sink
  bool sd_flags_correct = false;  // is_sink flags match true membership
  SimTime sd_last_return = kTimeInfinity;
  NodeSet true_sink;

  sim::SimMetrics metrics;
  /// Order-sensitive hash of the Notary sign log (sim::Notary::fingerprint)
  /// — the determinism witness the shard/parallel identity suites compare.
  std::uint64_t notary_fingerprint = 0;
  SimTime end_time = 0;

  std::string summary() const;
};

/// Builds and runs the scenario to completion (all correct processes decide)
/// or to the deadline.
ScenarioReport run_scenario(const ScenarioConfig& config);

/// Proposal value used for process i in a scenario (when values is empty).
Value default_value(ProcessId i);

/// Large-n scenario family (E11, `bench_scale_discovery`): a k-OSR graph at
/// discovery scale with k = 2f+1, a sink of ~`sink_fraction`·n members
/// (floored at 3f+1 so a safe faulty placement exists), and an optional
/// worst-case in-sink failure set. The same family backs the scale tests,
/// so benches and tests sweep identical graphs.
struct LargeScaleParams {
  std::size_t n = 256;
  std::size_t f = 1;
  double sink_fraction = 0.5;
  std::uint64_t seed = 1;
  ProtocolKind protocol = ProtocolKind::kBftCup;
  bool with_faults = true;
};
ScenarioConfig large_scale_scenario(const LargeScaleParams& params);

/// Churn + partition scenario family (E12, `bench_scenario_matrix`): a
/// k-OSR graph (k = 2f+1) under the adversarial network conditions the
/// paper's partial-synchrony model allows before GST —
///  - churn: a fraction of the non-sink processes activates late, spread
///    over (0, late_window], so discovery runs over a growing participant
///    set (the unknown-participants setting made literal);
///  - partition: a bipartition separating part of the sink is cut from
///    time 0 and heals at GST;
///  - loss: optional pre-GST message drop probability (enables discovery
///    requery for liveness);
///  - crash: optionally the f processes of a safe failure placement
///    (preferably inside the sink) crash-stop at gst/2, consuming the
///    failure budget instead of a Byzantine placement.
/// All consensus properties must still hold in every cell: decisions land
/// after GST, but agreement/validity are unconditional.
struct ChurnPartitionParams {
  std::size_t n = 20;
  std::size_t f = 1;
  double sink_fraction = 0.4;
  ProtocolKind protocol = ProtocolKind::kStellarSd;
  double late_fraction = 0.5;   // fraction of non-sink processes arriving late
  SimTime late_window = 1'500;  // activations uniform in (0, late_window]
  bool with_partition = true;   // cut part of the sink until GST
  bool with_crash = false;      // crash the f placed processes at gst/2
  double pre_gst_drop = 0.0;    // pre-GST loss probability
  SimTime gst = 2'000;
  std::uint64_t seed = 1;
};
ScenarioConfig churn_partition_scenario(const ChurnPartitionParams& params);

}  // namespace scup::core
