// The benchmark's workloads and the harness that runs one cell of them.
//
// A cell is one self-contained simulation: its inputs are a pure function
// of (workload, workload seed, cell index), and the library receives only
// the generated ScenarioConfig / graph. The harness builds the nodes itself
// (instead of calling core::run_scenario) so that the traced run can swap
// in the Timed<> wrappers and the decorating NetworkModel; a self-check
// (check_harness_equivalence) pins the untraced harness to run_scenario.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sim/message_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/sharded_engine.hpp"

namespace perfbench {

enum class Workload {
  kStellarOneshot,
  kLedgerChain,
  kChurnFaults,
  kBftcupScale,
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Cells that belong together and are always run as a unit (churn_faults
/// runs its four fault shapes under both protocols on one graph seed).
std::size_t cells_per_round(Workload w);

/// Cells in the whole rounds that fill `seconds` of wall time at a nominal
/// per-cell cost (set a little above what a 4-vCPU x86 host measures), at
/// least one round. Fixes the work of a run from --seconds alone, so that
/// every count in it repeats exactly for a seed on any host.
std::size_t cells_for(Workload w, double seconds);

struct CellOutcome {
  std::string label;
  double graph_s = 0;  // graph and scenario generation
  double build_s = 0;  // Simulation construction and node installation
  double run_s = 0;    // start() and run_until
  scup::sim::SimMetrics metrics;
  std::uint64_t fingerprint = 0;
  scup::SimTime end_time = 0;
  /// One-shot cells: decision time by process id (kTimeInfinity = none).
  std::vector<scup::SimTime> decision_times;
  /// Ledger cells: chain digest by process id (0 for faulty slots).
  std::vector<std::uint64_t> digests;
  /// Decision-latency samples in ticks (see latency_origin).
  std::vector<scup::SimTime> latencies;
  /// Consensus instances attempted / completed by every owed process.
  std::size_t attempted = 0;
  std::size_t completed = 0;
  scup::sim::ShardStats shard;
  scup::sim::MessagePool::Stats pool;
  /// Traced cells only: latest sink-detector return over correct processes.
  scup::SimTime sd_last_return = 0;
  /// Traced cells only: heap allocations during the run phase.
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  /// Empty when every correctness check passed.
  std::string violation;
};

/// Runs cell `index`, whose inputs are a pure function of (w, seed, index).
/// `traced` swaps in the Timed<> wrappers, the decorating NetworkModel,
/// shard timing and the allocation meter, and records spans; results must
/// not change. `n` overrides the process count (0 = the workload's own;
/// other values are for scaling probes, never for the benchmark's runs).
CellOutcome run_cell(Workload w, std::uint64_t seed, std::size_t index,
                     bool traced, std::size_t n = 0);

/// The fields the tracing-invariance check compares, as a message naming
/// the first difference (empty: identical).
std::string compare_outcomes(const CellOutcome& a, const CellOutcome& b);

/// Runs core::run_scenario on cell `index` and compares its report with
/// `untraced` (fingerprint, SimMetrics, decision times). Returns the first
/// difference, or empty. One-shot workloads only.
std::string check_harness_equivalence(Workload w, std::uint64_t seed,
                                      std::size_t index, std::size_t n,
                                      const CellOutcome& untraced);

}  // namespace perfbench
