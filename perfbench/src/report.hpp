// Metric definitions: the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced run, computed from cell outcomes and span
// totals, plus the one-line JSON result.
#pragma once

#include <string>
#include <vector>

#include "cells.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Printed next to the metric in the human-readable lines (sample counts).
  std::string note;
};

/// setup_s, instances_per_s, events_per_s, decide_ticks_p50/p95,
/// msgs_per_instance, kb_per_instance, decided_frac, peak_rss_mb. `cells`
/// holds whole rounds of `round` cells, in index order. setup_s and the two
/// rates use every cell (the rates as medians over rounds, so a burst of
/// host noise moves them less); the other metrics use the first `fixed`
/// cells, and `peak_rss_mb` was read when those had run.
std::vector<Metric> end_to_end_metrics(const std::vector<CellOutcome>& cells,
                                       std::size_t fixed, std::size_t round,
                                       double peak_rss_mb);

/// Every per-layer metric, from the traced cells and their span totals.
/// `untraced_run_s` / `traced_run_s`: summed run phases of the same cells
/// without and with tracing (for trace.overhead_frac).
std::vector<Metric> per_layer_metrics(const std::vector<CellOutcome>& traced,
                                      const TraceTotals& totals,
                                      double untraced_run_s,
                                      double traced_run_s);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Human-readable lines, one per metric.
void print_metrics(const std::vector<Metric>& metrics);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
