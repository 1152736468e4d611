// Quickstart: the paper's Fig. 1 network, end to end.
//
// Eight processes start knowing only their participant detector output
// (PD_i) and the fault threshold f = 1; process 8 (paper numbering) is
// Byzantine and stays silent. Each correct process runs the full
// Stellar-on-CUP pipeline:
//
//   get_sink (Algorithm 3)  ->  build_slices (Algorithm 2)  ->  SCP
//
// and all of them decide the same value (Theorem 5).
//
// Build & run:  cmake --build build && ./build/examples/quickstart
//
// Pass --shards=N to spread the simulation over N engine shards
// (DESIGN.md §4.6) — the report is bit-identical for every N, and the
// program verifies that against a one-shard run.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiment.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace scup;

  std::size_t shards = 0;  // 0 or 1: one shard on the calling thread
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<std::size_t>(std::strtoul(argv[i] + 9, nullptr, 10));
    } else {
      std::fprintf(stderr, "usage: %s [--shards=N]\n", argv[0]);
      return 2;
    }
  }

  core::ScenarioConfig cfg;
  cfg.graph = graph::fig1_graph();
  cfg.f = 1;
  cfg.faulty = graph::fig1_faulty();  // paper process 8 = our id 7
  cfg.protocol = core::ProtocolKind::kStellarSd;
  cfg.adversary = core::AdversaryKind::kSilent;
  cfg.net.seed = 2023;
  cfg.shards = shards;

  std::printf("Fig. 1 knowledge connectivity graph (0-based ids):\n");
  for (ProcessId i = 0; i < cfg.graph.node_count(); ++i) {
    std::printf("  PD_%u = %s%s\n", i, cfg.graph.pd_of(i).to_string().c_str(),
                cfg.faulty.contains(i) ? "   <- Byzantine (silent)" : "");
  }

  if (shards > 1) {
    std::printf("\nRunning on the sharded engine with %zu shards.\n", shards);
  }
  const core::ScenarioReport report = core::run_scenario(cfg);

  if (shards > 1) {
    // The engine's contract: every shard count yields the same run, bit
    // for bit. Check this execution against the single-shard baseline.
    core::ScenarioConfig baseline = cfg;
    baseline.shards = 1;
    const core::ScenarioReport ref = core::run_scenario(baseline);
    const bool identical =
        report.notary_fingerprint == ref.notary_fingerprint &&
        report.metrics == ref.metrics &&
        report.decision_times == ref.decision_times;
    std::printf("Shard-count invariance vs 1 shard: %s (fingerprint %016llx)\n",
                identical ? "bit-identical" : "DIVERGED",
                static_cast<unsigned long long>(report.notary_fingerprint));
    if (!identical) return 1;
  }

  std::printf("\nTrue sink component: %s\n",
              report.true_sink.to_string().c_str());
  std::printf("Sink detector: all returned=%s, estimate exact=%s, "
              "membership flags correct=%s\n",
              report.sd_all_returned ? "yes" : "no",
              report.sd_sink_exact ? "yes" : "no",
              report.sd_flags_correct ? "yes" : "no");

  std::printf("\nConsensus outcome: %s\n", report.summary().c_str());
  std::printf("Per-process decision times (simulated ticks):\n");
  for (ProcessId i = 0; i < cfg.graph.node_count(); ++i) {
    if (cfg.faulty.contains(i)) {
      std::printf("  p%u: (Byzantine)\n", i);
    } else {
      std::printf("  p%u: decided value %llu at t=%lld\n", i,
                  static_cast<unsigned long long>(report.decided_value),
                  static_cast<long long>(report.decision_times[i]));
    }
  }
  std::printf("\nNetwork totals: %zu messages, %.1f KiB\n",
              report.metrics.messages_sent,
              static_cast<double>(report.metrics.bytes_sent) / 1024.0);

  const bool ok = report.all_decided && report.agreement && report.validity;
  std::printf("\n%s\n", ok ? "SUCCESS: consensus reached (Theorem 5)."
                           : "FAILURE: consensus not reached!");
  return ok ? 0 : 1;
}
