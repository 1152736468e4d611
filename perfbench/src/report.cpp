#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "sim/counters.hpp"

namespace perfbench {

using scup::sim::ProtoCounter;

namespace {

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank percentile (p in (0, 1]) of integer samples.
double percentile(std::vector<scup::SimTime> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string format_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::uint64_t counter_sum(const std::vector<CellOutcome>& cells,
                          ProtoCounter c) {
  std::uint64_t sum = 0;
  for (const CellOutcome& cell : cells) sum += cell.metrics.protocol_counter(c);
  return sum;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end_metrics(const std::vector<CellOutcome>& cells,
                                       std::size_t fixed, std::size_t round,
                                       double rss_mb) {
  std::vector<double> setup;
  for (const CellOutcome& c : cells) setup.push_back(c.graph_s + c.build_s);
  std::vector<scup::SimTime> latencies;
  double messages = 0, bytes = 0;
  double attempted = 0, completed = 0;
  for (std::size_t k = 0; k < fixed && k < cells.size(); ++k) {
    const CellOutcome& c = cells[k];
    latencies.insert(latencies.end(), c.latencies.begin(), c.latencies.end());
    messages += static_cast<double>(c.metrics.messages_sent);
    bytes += static_cast<double>(c.metrics.bytes_sent);
    attempted += static_cast<double>(c.attempted);
    completed += static_cast<double>(c.completed);
  }
  // Per-round rates over the run phases (set-up excluded).
  std::vector<double> instance_rates, event_rates;
  for (std::size_t first = 0; first + round <= cells.size(); first += round) {
    double run_s = 0, done = 0, events = 0;
    for (std::size_t k = first; k < first + round; ++k) {
      run_s += cells[k].run_s;
      done += static_cast<double>(cells[k].completed);
      events += static_cast<double>(cells[k].metrics.events_processed);
    }
    instance_rates.push_back(ratio(done, run_s));
    event_rates.push_back(ratio(events, run_s));
  }
  const std::string rounds =
      "median of " + std::to_string(instance_rates.size()) + " rounds";
  const std::string samples =
      std::to_string(latencies.size()) + " samples from " +
      std::to_string(std::min(fixed, cells.size())) + " cells";
  return {
      {"setup_s", median(setup), "s",
       "median of " + std::to_string(cells.size()) + " cell set-ups"},
      {"instances_per_s", median(instance_rates), "1/s", rounds},
      {"events_per_s", median(event_rates), "1/s", rounds},
      {"decide_ticks_p50", percentile(latencies, 0.5), "ticks", samples},
      {"decide_ticks_p95", percentile(latencies, 0.95), "ticks", samples},
      {"msgs_per_instance", ratio(messages, completed), "count", ""},
      {"kb_per_instance", ratio(bytes / 1024.0, completed), "KiB", ""},
      {"decided_frac", ratio(completed, attempted), "ratio",
       format_number(completed) + " of " + format_number(attempted) +
           " instances"},
      {"peak_rss_mb", rss_mb, "MiB", ""},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<CellOutcome>& traced,
                                      const TraceTotals& totals,
                                      double untraced_run_s,
                                      double traced_run_s) {
  auto span = [&](SpanName n) -> const SpanTotals& {
    return totals[static_cast<std::size_t>(n)];
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> graph_s, build_s, sd_return;
  double events = 0, timer_fires = 0, dropped = 0, duplicated = 0;
  double allocs = 0, alloc_bytes = 0, slabs = 0, fallbacks = 0;
  double windows = 0, staged = 0, batch_upcalls = 0;
  double drain_ns = 0, merge_ns = 0, replay_ns = 0;
  // Traffic mix, by the same family classifier as the handler spans.
  std::array<double, kSpanNameCount> msgs{};
  for (const CellOutcome& c : traced) {
    graph_s.push_back(c.graph_s);
    build_s.push_back(c.build_s);
    sd_return.push_back(static_cast<double>(c.sd_last_return));
    events += count(c.metrics.events_processed);
    timer_fires += count(c.metrics.timer_fires);
    dropped += count(c.metrics.messages_dropped);
    duplicated += count(c.metrics.messages_duplicated);
    allocs += count(c.allocs);
    alloc_bytes += count(c.alloc_bytes);
    slabs += count(c.pool.slabs_created);
    fallbacks += count(c.pool.fallback_allocs);
    windows += count(c.shard.windows);
    staged += count(c.shard.staged_ops);
    batch_upcalls += count(c.shard.batch_upcalls);
    drain_ns += count(c.shard.drain_ns);
    merge_ns += count(c.shard.merge_ns);
    replay_ns += count(c.shard.replay_ns);
    for (const auto& [type, sent] : c.metrics.messages_by_type()) {
      msgs[static_cast<std::size_t>(family_of_type(type))] += count(sent);
    }
  }
  auto msgs_of = [&](SpanName n) { return msgs[static_cast<std::size_t>(n)]; };
  auto sum = [&](ProtoCounter c) { return count(counter_sum(traced, c)); };
  const double encodes = sum(ProtoCounter::kWireEncodes);
  const double cached_sends = sum(ProtoCounter::kWireCachedSends);
  const double closure_runs = sum(ProtoCounter::kQuorumClosureRuns);
  const double closure_hits = sum(ProtoCounter::kQuorumClosureCacheHits);
  const double qset_evals = sum(ProtoCounter::kQsetEvals);
  const double payload_builds = sum(ProtoCounter::kDiscoveryPayloadBuilds);
  const double payload_shared = sum(ProtoCounter::kDiscoveryPayloadShared);
  const double wraps = sum(ProtoCounter::kSlotWraps);
  const double wraps_shared = sum(ProtoCounter::kSlotWrapsShared);
  // start() launches discovery, so its upcalls count as cup handler work.
  const SpanTotals& start = span(SpanName::kStart);
  const SpanTotals& cup = span(SpanName::kCup);
  return {
      {"graph.gen_s", median(graph_s), "s", "median per cell"},
      {"sim.build_s", median(build_s), "s", "median per cell"},
      {"sim.events", events, "count", ""},
      {"sim.timer_fires", timer_fires, "count", ""},
      {"sim.engine_self_s", seconds(span(SpanName::kRun).self_ns), "s",
       "run wall minus handler and verdict spans on the driving thread"},
      {"net.verdicts", count(span(SpanName::kVerdict).calls), "count", ""},
      {"net.verdict_s", seconds(span(SpanName::kVerdict).self_ns), "s", ""},
      {"net.dropped", dropped, "count", ""},
      {"net.duplicated", duplicated, "count", ""},
      {"wire.encodes", encodes, "count", ""},
      {"wire.cached_sends", cached_sends, "count", ""},
      {"wire.sends_per_encode", ratio(encodes + cached_sends, encodes),
       "ratio", ""},
      {"alloc.per_event", ratio(allocs, events), "allocs/event", ""},
      {"alloc.bytes_per_event", ratio(alloc_bytes, events), "B/event", ""},
      {"pool.slabs", slabs, "count", ""},
      {"pool.fallbacks", fallbacks, "count", ""},
      {"shard.windows", windows, "count", ""},
      {"shard.staged_ops", staged, "count", ""},
      {"shard.batch_upcalls", batch_upcalls, "count", ""},
      {"shard.drain_s", drain_ns * 1e-9, "s", "summed over shards"},
      {"shard.merge_s", merge_ns * 1e-9, "s", ""},
      {"shard.replay_s", replay_ns * 1e-9, "s", ""},
      {"cup.handle_s", seconds(cup.self_ns + start.self_ns), "s",
       "includes start()"},
      {"cup.calls", count(cup.calls + start.calls), "count",
       "includes start()"},
      {"sd.handle_s", seconds(span(SpanName::kSd).self_ns), "s", ""},
      {"sd.calls", count(span(SpanName::kSd).calls), "count", ""},
      {"scp.nominate_s", seconds(span(SpanName::kScpNominate).self_ns), "s",
       ""},
      {"scp.nominate_calls", count(span(SpanName::kScpNominate).calls),
       "count", ""},
      {"scp.ballot_s", seconds(span(SpanName::kScpBallot).self_ns), "s", ""},
      {"scp.ballot_calls", count(span(SpanName::kScpBallot).calls), "count",
       ""},
      {"pbft.handle_s", seconds(span(SpanName::kPbft).self_ns), "s", ""},
      {"pbft.calls", count(span(SpanName::kPbft).calls), "count", ""},
      {"timer_s", seconds(span(SpanName::kTimer).self_ns), "s", ""},
      {"timer_calls", count(span(SpanName::kTimer).calls), "count", ""},
      {"msgs.cup", msgs_of(SpanName::kCup), "count", ""},
      {"msgs.sd", msgs_of(SpanName::kSd), "count", ""},
      {"msgs.scp_nominate", msgs_of(SpanName::kScpNominate), "count", ""},
      {"msgs.scp_ballot", msgs_of(SpanName::kScpBallot), "count", ""},
      {"msgs.pbft", msgs_of(SpanName::kPbft), "count", ""},
      {"fbqs.closure_runs", closure_runs, "count", ""},
      {"fbqs.closure_hit_ratio",
       ratio(closure_hits, closure_runs + closure_hits), "ratio", ""},
      {"fbqs.qset_evals", qset_evals, "count", ""},
      {"fbqs.qset_savings",
       ratio(sum(ProtoCounter::kQsetEvalsBaseline), qset_evals), "ratio", ""},
      {"fbqs.support_updates", sum(ProtoCounter::kSupportUpdates), "count",
       ""},
      {"cup.payload_builds", payload_builds, "count", ""},
      {"cup.payload_share_ratio",
       ratio(payload_shared, payload_builds + payload_shared), "ratio", ""},
      {"sd.last_return_ticks", median(sd_return), "ticks", "median per cell"},
      {"ledger.slot_wraps_shared_ratio",
       ratio(wraps_shared, wraps + wraps_shared), "ratio", ""},
      {"trace.overhead_frac", ratio(traced_run_s, untraced_run_s) - 1.0,
       "ratio", "traced vs untraced run phase, same cells"},
  };
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16s %-12s%s%s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
