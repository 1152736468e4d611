#include "cells.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "bftcup/bftcup_node.hpp"
#include "common/rng.hpp"
#include "core/adversaries.hpp"
#include "core/experiment.hpp"
#include "core/ledger_node.hpp"
#include "core/stellar_cup_node.hpp"
#include "graph/kosr.hpp"
#include "graph/scc.hpp"
#include "sim/simulation.hpp"
#include "timed.hpp"

namespace perfbench {

using scup::kTimeInfinity;
using scup::NodeSet;
using scup::ProcessId;
using scup::SimTime;
using scup::Value;
namespace core = scup::core;
namespace sim = scup::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- workload inputs -------------------------------------------------------

struct CellInputs {
  std::string label;
  core::ScenarioConfig config;
  /// Ledger cells: slots each replica closes (0 = one-shot cell).
  std::size_t slots = 0;
  std::uint64_t value_seed = 0;
  /// Decision latency is measured from this tick (GST for churn_faults).
  SimTime latency_origin = 0;
};

constexpr std::size_t kLedgerSlots = 50;
constexpr std::size_t kLedgerProposals = 16;
/// churn_faults round: four fault shapes x two protocols.
constexpr std::size_t kChurnRound = 8;

std::uint64_t cell_seed(std::uint64_t seed, std::size_t index) {
  return scup::hash_mix(seed, 0x70657266 /* "perf" */, index);
}

/// Stellar+SD at n=32, f=1, all-distinct proposals, one silent Byzantine
/// process placed inside the sink (first safe sink member in seeded order).
CellInputs stellar_oneshot(std::uint64_t seed, std::size_t n) {
  core::LargeScaleParams params;
  params.n = n;
  params.f = 1;
  params.seed = seed;
  params.protocol = core::ProtocolKind::kStellarSd;
  params.with_faults = false;
  CellInputs in;
  in.config = core::large_scale_scenario(params);
  const NodeSet sink = scup::graph::unique_sink_component(in.config.graph);
  std::vector<ProcessId> members;
  for (ProcessId p : sink) members.push_back(p);
  scup::Rng rng(seed ^ 0x5111ULL);
  rng.shuffle(members);
  for (ProcessId p : members) {
    NodeSet faulty(params.n);
    faulty.add(p);
    if (scup::graph::satisfies_bft_cup_preconditions(in.config.graph, faulty,
                                                     params.f)) {
      in.config.faulty = faulty;
      break;
    }
  }
  if (in.config.faulty.empty()) {
    throw std::runtime_error("stellar_oneshot: no safe in-sink placement");
  }
  in.label = "stellar/n" + std::to_string(n);
  return in;
}

/// The E13 shape: 16 LedgerNodes on a k-OSR graph (silent Byzantine
/// placement), 50 slots, 16 contending proposals per slot.
CellInputs ledger_chain(std::uint64_t seed, std::size_t n) {
  core::LargeScaleParams params;
  params.n = n;
  params.f = 1;
  params.seed = seed;
  CellInputs in;
  in.config = core::large_scale_scenario(params);
  in.slots = kLedgerSlots;
  in.value_seed = seed;
  in.label = "ledger/n" + std::to_string(n);
  return in;
}

/// The E12 shapes at n=20, GST=2000: churn, +partition, +20% pre-GST loss,
/// +crash (instead of the Byzantine placement).
CellInputs churn_faults(std::uint64_t seed, std::size_t n, int shape,
                        core::ProtocolKind protocol) {
  static constexpr const char* kShapes[] = {"churn", "churn+partition",
                                            "churn+partition+loss",
                                            "churn+partition+crash"};
  core::ChurnPartitionParams p;
  p.n = n;
  p.f = 1;
  p.protocol = protocol;
  p.seed = seed;
  p.gst = 2'000;
  p.late_fraction = 0.5;
  p.with_partition = shape != 0;
  if (shape == 2) p.pre_gst_drop = 0.2;
  p.with_crash = shape == 3;
  CellInputs in;
  in.config = core::churn_partition_scenario(p);
  in.latency_origin = p.gst;
  in.label = std::string(protocol == core::ProtocolKind::kStellarSd
                             ? "stellar/"
                             : "bftcup/") +
             kShapes[shape];
  return in;
}

/// BFT-CUP at n=128 on the windowed sharded engine with one shard.
CellInputs bftcup_scale(std::uint64_t seed, std::size_t n) {
  core::LargeScaleParams params;
  params.n = n;
  params.f = 1;
  params.seed = seed;
  params.protocol = core::ProtocolKind::kBftCup;
  CellInputs in;
  in.config = core::large_scale_scenario(params);
  in.config.shards = 1;
  in.label = "bftcup/n" + std::to_string(n) + "/S1";
  return in;
}

/// Processes per cell of each workload.
std::size_t default_process_count(Workload w) {
  switch (w) {
    case Workload::kStellarOneshot: return 32;
    case Workload::kLedgerChain: return 16;
    case Workload::kChurnFaults: return 20;
    case Workload::kBftcupScale: return 128;
  }
  return 0;
}

/// The inputs of cell `index` of workload `w` under `seed`.
CellInputs make_cell_inputs(Workload w, std::uint64_t seed, std::size_t index,
                            std::size_t n) {
  if (n == 0) n = default_process_count(w);
  switch (w) {
    case Workload::kStellarOneshot:
      return stellar_oneshot(cell_seed(seed, index), n);
    case Workload::kLedgerChain:
      return ledger_chain(cell_seed(seed, index), n);
    case Workload::kChurnFaults: {
      // One round = the four shapes under Stellar+SD, then under BFT-CUP,
      // all on the round's graph seed.
      const std::uint64_t round_seed = cell_seed(seed, index / kChurnRound);
      const auto protocol = (index % kChurnRound) < kChurnRound / 2
                                ? core::ProtocolKind::kStellarSd
                                : core::ProtocolKind::kBftCup;
      return churn_faults(round_seed, n, static_cast<int>(index % 4),
                          protocol);
    }
    case Workload::kBftcupScale:
      return bftcup_scale(cell_seed(seed, index), n);
  }
  throw std::logic_error("unknown workload");
}

// ---- harness ---------------------------------------------------------------

template <bool kTraced, typename Node>
using NodeFor = std::conditional_t<kTraced, Timed<Node>, Node>;

template <bool kTraced>
std::unique_ptr<sim::Simulation> make_simulation(std::size_t n,
                                                 sim::NetworkConfig net) {
  if constexpr (kTraced) {
    net.shard_timing = true;
    return std::make_unique<sim::Simulation>(
        n, net,
        std::make_unique<TimedModel>(std::make_unique<sim::UniformModel>(net)));
  } else {
    return std::make_unique<sim::Simulation>(n, net);
  }
}

/// Latency samples and the correctness gate need the proposals; this is
/// run_scenario's default when ScenarioConfig::values is empty.
Value proposal_of(const core::ScenarioConfig& config, ProcessId i) {
  return i < config.values.size() ? config.values[i] : core::default_value(i);
}

/// Phase timer that also opens the matching span in traced cells.
class Phase {
 public:
  Phase(SpanName name, double& seconds)
      : span_(name), seconds_(seconds), start_(Clock::now()) {}
  ~Phase() { seconds_ = seconds_since(start_); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Scope span_;
  double& seconds_;
  Clock::time_point start_;
};

/// The run phase: start() and run_until, timed, with the heap allocations
/// it made (counted only while the allocation meter is on).
template <typename Run>
void run_phase(CellOutcome& out, Run&& run) {
  const Phase phase(SpanName::kRun, out.run_s);
  const AllocCount before = alloc_count();
  run();
  const AllocCount after = alloc_count();
  out.allocs = after.allocs - before.allocs;
  out.alloc_bytes = after.bytes - before.bytes;
}

/// What a traced node observed; also checks that every batched delivery
/// went through a classified on_message span.
void absorb_node_trace(const NodeTrace& t, ProcessId i, CellOutcome& out) {
  if (t.sink_return != kTimeInfinity) {
    out.sd_last_return = std::max(out.sd_last_return, t.sink_return);
  }
  if (t.batched_deliveries != t.batched_handled) {
    out.violation = "process " + std::to_string(i) +
                    ": a batched delivery bypassed on_message";
  }
}

void record_simulation(const sim::Simulation& s, CellOutcome& out) {
  out.metrics = s.metrics();
  out.fingerprint = s.notary().fingerprint();
  out.end_time = s.now();
  out.shard = s.shard_stats();
  out.pool = s.pool_stats();
}

template <bool kTraced>
void run_oneshot(const CellInputs& in, CellOutcome& out) {
  using Stellar = NodeFor<kTraced, core::StellarCupNode>;
  using Bft = NodeFor<kTraced, scup::bftcup::BftCupNode>;
  const core::ScenarioConfig& config = in.config;
  if (config.adversary != core::AdversaryKind::kSilent) {
    throw std::logic_error("perfbench cells use silent Byzantine processes");
  }
  const std::size_t n = config.graph.node_count();
  std::unique_ptr<sim::Simulation> simulation;
  std::vector<Stellar*> stellar(n, nullptr);
  std::vector<Bft*> bft(n, nullptr);
  {
    // Mirrors core::run_scenario step for step (the harness-equivalence
    // check holds it to that).
    const Phase phase(SpanName::kSetupBuild, out.build_s);
    simulation = make_simulation<kTraced>(n, config.net);
    scup::cup::DiscoveryConfig discovery;
    discovery.requery_interval = config.discovery_requery;
    for (ProcessId i = 0; i < n; ++i) {
      if (config.faulty.contains(i)) {
        simulation->emplace_process<core::SilentNode>(i);
        continue;
      }
      const NodeSet pd = config.graph.pd_of(i);
      if (config.protocol == core::ProtocolKind::kStellarSd) {
        core::StellarCupConfig node_config;
        node_config.discovery = discovery;
        stellar[i] = &simulation->emplace_process<Stellar>(
            i, pd, config.f, proposal_of(config, i), node_config);
      } else {
        bft[i] = &simulation->emplace_process<Bft>(
            i, pd, config.f, proposal_of(config, i),
            scup::bftcup::PbftConfig{}, discovery);
      }
    }
    for (ProcessId i = 0; i < n && i < config.activations.size(); ++i) {
      if (config.activations[i] > 0) {
        simulation->activate(i, config.activations[i]);
      }
    }
    for (const auto& [who, when] : config.crashes) {
      simulation->crash_at(who, when);
    }
    simulation->set_shards(config.shards);
  }
  sim::Simulation& s = *simulation;
  const NodeSet correct = config.faulty.complement();
  // Applies `f` to correct process i's node, whichever protocol it runs.
  auto on_node = [&](ProcessId i, auto&& f) {
    return stellar[i] != nullptr ? f(*stellar[i]) : f(*bft[i]);
  };
  auto all_decided = [&] {
    for (ProcessId i : correct) {
      if (!s.crashed(i) &&
          !on_node(i, [](const auto& node) { return node.decided(); })) {
        return false;
      }
    }
    return true;
  };
  run_phase(out, [&] {
    s.start();
    s.run_until(all_decided, config.deadline);
  });

  // Correctness gate: agreement and validity over every decided correct
  // process, exactness of every returned sink. Termination is measured,
  // not gated (an undecided cell counts against decided_frac).
  const NodeSet true_sink = scup::graph::unique_sink_component(config.graph);
  out.attempted = 1;
  out.decision_times.assign(n, kTimeInfinity);
  bool owed_all = true;
  std::optional<Value> agreed;
  for (ProcessId i : correct) {
    on_node(i, [&](const auto& node) {
      if (node.sink_detected() &&
          (!(node.sink_result().sink == true_sink) ||
           node.sink_result().is_sink_member != true_sink.contains(i))) {
        out.violation =
            "process " + std::to_string(i) + " returned an inexact sink";
      }
      if constexpr (kTraced) absorb_node_trace(node.node_trace(), i, out);
      if (!node.decided()) {
        if (!s.crashed(i)) owed_all = false;
        return;
      }
      const SimTime t = node.decision_time();
      out.decision_times[i] = t;
      out.latencies.push_back(std::max<SimTime>(0, t - in.latency_origin));
      if (!agreed) agreed = node.decision();
      if (*agreed != node.decision()) out.violation = "agreement violated";
    });
  }
  if (agreed) {
    bool proposed = false;
    for (ProcessId i = 0; i < n; ++i) {
      if (proposal_of(config, i) == *agreed) proposed = true;
    }
    if (!proposed) out.violation = "validity violated";
  }
  out.completed = owed_all ? 1 : 0;
  record_simulation(s, out);
}

template <bool kTraced>
void run_ledger(const CellInputs& in, CellOutcome& out) {
  using Ledger = NodeFor<kTraced, core::LedgerNode>;
  const core::ScenarioConfig& config = in.config;
  const std::size_t n = config.graph.node_count();
  const std::size_t slots = in.slots;
  const std::uint64_t value_seed = in.value_seed;
  std::unique_ptr<sim::Simulation> simulation;
  std::vector<Ledger*> nodes(n, nullptr);
  // closes[i][s-1]: tick at which replica i's closed prefix reached slot s.
  std::vector<std::vector<SimTime>> closes(n);
  {
    const Phase phase(SpanName::kSetupBuild, out.build_s);
    simulation = make_simulation<kTraced>(n, config.net);
    for (ProcessId i = 0; i < n; ++i) {
      if (config.faulty.contains(i)) {
        simulation->emplace_process<core::SilentNode>(i);
        continue;
      }
      Ledger& node = simulation->emplace_process<Ledger>(
          i, config.graph.pd_of(i), config.f, slots);
      nodes[i] = &node;
      node.set_value_provider([i, value_seed](std::uint64_t slot) {
        return scup::hash_mix(0xE13, value_seed ^ slot, i % kLedgerProposals) |
               1;
      });
      // Observe closes without changing the node's own callback.
      auto inner = std::move(node.ledger().on_slot_decided);
      sim::Simulation* sp = simulation.get();
      std::vector<SimTime>* mine = &closes[i];
      node.ledger().on_slot_decided = [inner = std::move(inner), &node, sp,
                                       mine](std::uint64_t slot, Value v) {
        if (inner) inner(slot, v);
        while (mine->size() < node.decided_slots()) mine->push_back(sp->now());
      };
    }
  }
  sim::Simulation& s = *simulation;
  const NodeSet correct = config.faulty.complement();
  // The E13 bench's stop rule: every correct replica closed the chain.
  run_phase(out, [&] {
    s.start();
    s.run_until(
        [&] {
          for (ProcessId i : correct) {
            if (nodes[i]->decided_slots() < slots) return false;
          }
          return true;
        },
        config.deadline * 4, /*stride=*/64);
  });

  // Correctness gate: every pair of correct replicas agrees on every slot
  // both closed, equal-length chains have equal digests, and every closed
  // slot's value is one of its contending proposals.
  ProcessId longest = correct.min_member();
  for (ProcessId i : correct) {
    if (nodes[i]->decided_slots() > nodes[longest]->decided_slots()) {
      longest = i;
    }
  }
  const core::LedgerNode& ref = *nodes[longest];
  std::size_t closed_by_all = slots;
  out.digests.assign(n, 0);
  for (ProcessId i : correct) {
    const core::LedgerNode& node = *nodes[i];
    const std::uint64_t closed = node.decided_slots();
    closed_by_all = std::min<std::size_t>(closed_by_all, closed);
    out.digests[i] = node.chain_digest();
    for (std::uint64_t slot = 1; slot <= closed; ++slot) {
      if (node.slot_decision(slot) != ref.slot_decision(slot)) {
        out.violation = "replicas disagree on slot " + std::to_string(slot);
      }
    }
    if (closed == ref.decided_slots() &&
        node.chain_digest() != ref.chain_digest()) {
      out.violation = "chain digests differ";
    }
    SimTime previous = 0;
    for (const SimTime t : closes[i]) {
      out.latencies.push_back(t - previous);
      previous = t;
    }
    if constexpr (kTraced) absorb_node_trace(nodes[i]->node_trace(), i, out);
  }
  for (std::uint64_t slot = 1; slot <= ref.decided_slots(); ++slot) {
    bool proposed = false;
    for (std::size_t k = 0; k < kLedgerProposals; ++k) {
      if (ref.slot_decision(slot) ==
          (scup::hash_mix(0xE13, value_seed ^ slot, k) | 1)) {
        proposed = true;
      }
    }
    if (!proposed) {
      out.violation = "validity violated on slot " + std::to_string(slot);
    }
  }
  out.attempted = slots;
  out.completed = closed_by_all;
  record_simulation(s, out);
}

template <bool kTraced>
CellOutcome run_cell_impl(Workload w, std::uint64_t seed, std::size_t index,
                          std::size_t n) {
  CellOutcome out;
  const Scope cell_span(SpanName::kCell);
  std::optional<CellInputs> in;
  {
    const Phase phase(SpanName::kSetupGraph, out.graph_s);
    in = make_cell_inputs(w, seed, index, n);
  }
  out.label = in->label;
  if (in->slots > 0) {
    run_ledger<kTraced>(*in, out);
  } else {
    run_oneshot<kTraced>(*in, out);
  }
  return out;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kStellarOneshot, Workload::kLedgerChain,
                     Workload::kChurnFaults, Workload::kBftcupScale}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kStellarOneshot: return "stellar_oneshot";
    case Workload::kLedgerChain: return "ledger_chain";
    case Workload::kChurnFaults: return "churn_faults";
    case Workload::kBftcupScale: return "bftcup_scale";
  }
  return "?";
}

std::size_t cells_per_round(Workload w) {
  return w == Workload::kChurnFaults ? kChurnRound : 1;
}

std::size_t cells_for(Workload w, double seconds) {
  double nominal = 1.0;  // wall seconds per cell, set-up included
  switch (w) {
    case Workload::kStellarOneshot: nominal = 1.45; break;
    case Workload::kLedgerChain: nominal = 3.0; break;
    case Workload::kChurnFaults: nominal = 0.055; break;
    case Workload::kBftcupScale: nominal = 1.3; break;
  }
  const std::size_t round = cells_per_round(w);
  const double rounds =
      std::floor(seconds / (nominal * static_cast<double>(round)));
  return std::max<std::size_t>(1, static_cast<std::size_t>(rounds)) * round;
}

CellOutcome run_cell(Workload w, std::uint64_t seed, std::size_t index,
                     bool traced, std::size_t n) {
  return traced ? run_cell_impl<true>(w, seed, index, n)
                : run_cell_impl<false>(w, seed, index, n);
}

std::string compare_outcomes(const CellOutcome& a, const CellOutcome& b) {
  if (a.fingerprint != b.fingerprint) return "notary fingerprints differ";
  if (!(a.metrics == b.metrics)) return "SimMetrics differ";
  if (a.end_time != b.end_time) return "end times differ";
  if (a.decision_times != b.decision_times) return "decision times differ";
  if (a.digests != b.digests) return "chain digests differ";
  if (a.latencies != b.latencies) return "decision latencies differ";
  return {};
}

std::string check_harness_equivalence(Workload w, std::uint64_t seed,
                                      std::size_t index, std::size_t n,
                                      const CellOutcome& untraced) {
  const CellInputs in = make_cell_inputs(w, seed, index, n);
  if (in.slots > 0) return "harness equivalence is for one-shot cells";
  const core::ScenarioReport report = core::run_scenario(in.config);
  if (report.notary_fingerprint != untraced.fingerprint) {
    return "notary fingerprint differs from run_scenario";
  }
  if (!(report.metrics == untraced.metrics)) {
    return "SimMetrics differ from run_scenario";
  }
  if (report.decision_times != untraced.decision_times) {
    return "decision times differ from run_scenario";
  }
  if (report.end_time != untraced.end_time) {
    return "end time differs from run_scenario";
  }
  return {};
}

}  // namespace perfbench
