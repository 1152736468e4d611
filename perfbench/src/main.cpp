// scup_perfbench — runs one benchmark workload and prints its metrics.
//
//   scup_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans <path>] [--cells 1] [--n <processes>]
//
// --trace 0 runs cells of the workload back to back on one thread (a
// closed loop): first the fixed cell set sized from --seconds, then more
// cells until --seconds of wall time have passed; it prints the end-to-end
// metrics. --trace 1 runs the fixed cell set of half the budget, each cell
// once untraced and once traced, checks that the two runs are identical
// and that the harness reproduces core::run_scenario, prints the per-layer
// metrics, and writes the traced spans to --spans. The last line of stdout
// is the JSON result. Any correctness violation exits 1.
//
// --cells 1 adds one line per cell; --n overrides the workload's process
// count for scaling probes (the benchmark itself never passes it).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "cells.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct Options {
  Workload workload = Workload::kStellarOneshot;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  bool cells = false;
  std::size_t n = 0;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "scup_perfbench: %s\nusage: scup_perfbench --workload "
               "<stellar_oneshot|ledger_chain|churn_faults|bftcup_scale> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans <path>] "
               "[--cells 1] [--n <processes>]\n",
               problem);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload");
      o.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
      if (!(o.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else if (arg == "--cells") {
      o.cells = value == "1";
    } else if (arg == "--n") {
      o.n = std::stoull(value);
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& what, std::size_t attempted,
                       std::size_t failed) {
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", what.c_str());
  std::printf("%s\n", result_json(false, attempted, failed, {}).c_str());
  std::fflush(stdout);
  std::exit(1);
}

/// One line per cell (--cells 1), for looking into a run's spread.
void print_cell(std::size_t index, const CellOutcome& c) {
  std::vector<scup::SimTime> lat = c.latencies;
  std::sort(lat.begin(), lat.end());
  std::printf(
      "  cell %4zu %-28s graph %.6f s build %.6f s run %.6f s events %zu "
      "msgs %zu end %lld completed %zu/%zu latency min/med/max %lld %lld "
      "%lld\n",
      index, c.label.c_str(), c.graph_s, c.build_s, c.run_s,
      c.metrics.events_processed, c.metrics.messages_sent,
      static_cast<long long>(c.end_time), c.completed, c.attempted,
      static_cast<long long>(lat.empty() ? -1 : lat.front()),
      static_cast<long long>(lat.empty() ? -1 : lat[lat.size() / 2]),
      static_cast<long long>(lat.empty() ? -1 : lat.back()));
}

void tally(const CellOutcome& c, std::size_t& attempted, std::size_t& failed) {
  attempted += c.attempted;
  failed += c.attempted - c.completed;
}

/// End-to-end run, in two phases. The first runs the fixed cell set
/// cells_for(--seconds): the decision ticks, traffic, decided share and
/// peak memory come from it alone, so they are the same for a seed on any
/// host and at any program speed. The second keeps running whole rounds
/// until --seconds of wall time have passed; the rates and setup_s use
/// every cell.
int run_untraced(const Options& o) {
  std::vector<CellOutcome> cells;
  std::size_t attempted = 0, failed = 0;
  const std::size_t round = cells_per_round(o.workload);
  const std::size_t fixed = cells_for(o.workload, o.seconds);
  double rss_mb = 0;
  const Clock::time_point start = Clock::now();
  std::size_t index = 0;
  while (index < fixed ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             o.seconds) {
    for (std::size_t k = 0; k < round; ++k, ++index) {
      CellOutcome c = run_cell(o.workload, o.seed, index, /*traced=*/false,
                               o.n);
      if (o.cells) print_cell(index, c);
      tally(c, attempted, failed);
      if (!c.violation.empty()) {
        fail("cell " + std::to_string(index) + " (" + c.label +
                 "): " + c.violation,
             attempted, failed);
      }
      cells.push_back(std::move(c));
    }
    if (index == fixed) rss_mb = peak_rss_mb();
  }

  const std::vector<Metric> metrics =
      end_to_end_metrics(cells, fixed, round, rss_mb);
  std::printf("workload %s seed %llu: %zu cells (%zu fixed), end-to-end "
              "metrics\n",
              workload_name(o.workload),
              static_cast<unsigned long long>(o.seed), cells.size(), fixed);
  print_metrics(metrics);
  std::printf("%s\n", result_json(true, attempted, failed, metrics).c_str());
  return 0;
}

/// Traced run: a fixed cell set, each cell untraced then traced.
int run_traced(const Options& o) {
  // Half the budget for each of the two passes.
  const std::size_t cell_count = cells_for(o.workload, o.seconds / 2);
  const bool one_shot = o.workload != Workload::kLedgerChain;

  std::vector<CellOutcome> traced;
  std::size_t attempted = 0, failed = 0;
  double untraced_run_s = 0, traced_run_s = 0;
  trace_reset_totals();
  for (std::size_t index = 0; index < cell_count; ++index) {
    const CellOutcome plain = run_cell(o.workload, o.seed, index, false, o.n);
    trace_set_cell(static_cast<std::uint32_t>(index));
    trace_enable(true);
    alloc_meter_enable(true);
    CellOutcome timed = run_cell(o.workload, o.seed, index, true, o.n);
    alloc_meter_enable(false);
    trace_enable(false);
    tally(timed, attempted, failed);
    const std::string where =
        "cell " + std::to_string(index) + " (" + timed.label + "): ";
    for (const std::string& violation : {plain.violation, timed.violation}) {
      if (!violation.empty()) fail(where + violation, attempted, failed);
    }
    const std::string diff = compare_outcomes(plain, timed);
    if (!diff.empty()) {
      fail(where + "tracing changed the run: " + diff, attempted, failed);
    }
    if (one_shot && index == 0) {
      const std::string mismatch =
          check_harness_equivalence(o.workload, o.seed, index, o.n, plain);
      if (!mismatch.empty()) fail(where + mismatch, attempted, failed);
    }
    untraced_run_s += plain.run_s;
    traced_run_s += timed.run_s;
    traced.push_back(std::move(timed));
  }

  const TraceTotals totals = trace_totals();
  const std::vector<Metric> metrics =
      per_layer_metrics(traced, totals, untraced_run_s, traced_run_s);
  std::printf("workload %s seed %llu: %zu cells traced, per-layer metrics\n",
              workload_name(o.workload),
              static_cast<unsigned long long>(o.seed), traced.size());
  std::printf("  checks passed: tracing invariance on every cell%s\n",
              one_shot ? ", harness equivalence with run_scenario on cell 0"
                       : "");
  if (const std::uint64_t other =
          totals[static_cast<std::size_t>(SpanName::kOtherMsg)].calls;
      other > 0) {
    std::printf("  %llu handler calls matched no protocol family\n",
                static_cast<unsigned long long>(other));
  }
  print_metrics(metrics);
  if (!o.spans_path.empty()) {
    std::size_t dropped = 0;
    const std::size_t written = trace_write_spans(o.spans_path, dropped);
    std::printf("  spans: %zu written to %s, %zu past the in-memory cap\n",
                written, o.spans_path.c_str(), dropped);
  }
  std::printf("%s\n", result_json(true, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse(argc, argv);
    return o.trace ? perfbench::run_traced(o) : perfbench::run_untraced(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
