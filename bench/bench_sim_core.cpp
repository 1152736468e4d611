// Event-loop microbenchmarks: the cost of the simulator hot path itself,
// independent of any protocol.
//
//  - RunUntil rows measure the per-event predicate overhead of run_until:
//    the historical std::function signature vs. the templated overload vs.
//    a check-every-k stride, over an identical message storm. The
//    predicate scans all processes, which is exactly what run_scenario's
//    all-decided check does — the stride knob is what large-n sweeps use.
//  - EventQueue rows compare the indexed calendar queue against the
//    std::priority_queue it replaced on the simulator's actual workload
//    shape (bounded delays, FIFO within a tick).
#include "bench_common.hpp"

#include <functional>
#include <queue>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/wire.hpp"

namespace scup {
namespace {

struct StormMsg final : sim::Message {
  std::string type_name() const override { return "bench.storm"; }
  std::uint16_t wire_type() const override {
    return sim::kWireTestTypeFirst + 16;
  }
  void wire_encode(sim::WireWriter& /*w*/) const override {}
};

/// Each process forwards every message to a random peer, seeding the storm
/// with one initial send; the storm sustains itself forever.
class StormNode : public sim::Process {
 public:
  explicit StormNode(std::size_t n, bool seed_storm)
      : n_(n), seed_storm_(seed_storm) {}
  void start() override {
    if (seed_storm_) {
      send(static_cast<ProcessId>(rng().uniform(n_)),
           sim::make_message<StormMsg>());
    }
  }
  void on_message(ProcessId, const sim::MessagePtr&) override {
    ++received;
    send(static_cast<ProcessId>(rng().uniform(n_)),
         sim::make_message<StormMsg>());
  }
  std::size_t received = 0;

 private:
  std::size_t n_;
  bool seed_storm_;
};

constexpr std::size_t kStormNodes = 32;
constexpr std::size_t kStormTarget = 20'000;

std::unique_ptr<sim::Simulation> make_storm(std::vector<StormNode*>& nodes) {
  sim::NetworkConfig net;
  net.min_delay = 1;
  net.max_delay = 10;
  net.seed = 99;
  auto sim = std::make_unique<sim::Simulation>(kStormNodes, net);
  nodes.assign(kStormNodes, nullptr);
  for (ProcessId i = 0; i < kStormNodes; ++i) {
    nodes[i] = &sim->emplace_process<StormNode>(i, kStormNodes, i < 4);
  }
  return sim;
}

/// The all-processes scan predicate run_scenario uses, parameterized over
/// how run_until consumes it.
template <typename RunPolicy>
void run_until_bench(benchmark::State& state, RunPolicy&& run) {
  std::size_t events = 0;
  for (auto _ : state) {
    std::vector<StormNode*> nodes;
    const auto sim = make_storm(nodes);
    sim->start();
    auto total_received = [&nodes] {
      std::size_t total = 0;
      for (const StormNode* node : nodes) total += node->received;
      return total;
    };
    const bool ok =
        run(*sim, [&] { return total_received() >= kStormTarget; });
    benchmark::DoNotOptimize(ok);
    events += sim->metrics().events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_run"] =
      static_cast<double>(events) /
      static_cast<double>(state.iterations());
}

void BM_RunUntil_StdFunction(benchmark::State& state) {
  // The historical signature: the predicate crosses a std::function
  // boundary on every check (type erasure beats inlining).
  run_until_bench(state, [](sim::Simulation& sim, auto&& pred) {
    const std::function<bool()> erased = pred;
    return sim.run_until(erased, 100'000'000);
  });
}
BENCHMARK(BM_RunUntil_StdFunction)->Unit(benchmark::kMillisecond);

void BM_RunUntil_Template(benchmark::State& state) {
  // Same predicate, passed as-is: the templated run_until inlines it.
  run_until_bench(state, [](sim::Simulation& sim, auto&& pred) {
    return sim.run_until(pred, 100'000'000);
  });
}
BENCHMARK(BM_RunUntil_Template)->Unit(benchmark::kMillisecond);

void BM_RunUntil_Stride(benchmark::State& state) {
  // Check every k events: the O(n) scan stops dominating the event loop.
  const auto stride = static_cast<std::size_t>(state.range(0));
  run_until_bench(state, [stride](sim::Simulation& sim, auto&& pred) {
    return sim.run_until(pred, 100'000'000, stride);
  });
  state.counters["stride"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_RunUntil_Stride)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// ---- raw queue comparison on the simulator's workload shape ----

struct EventLater {
  bool operator()(const sim::Event& a, const sim::Event& b) const {
    return b.key < a.key;
  }
};

template <typename PushPop>
void queue_bench(benchmark::State& state, PushPop&& ops) {
  // Steady-state churn: keep ~4k events in flight, pop one, push one with
  // a bounded random delay — the delivery pattern of a running simulation.
  const std::size_t kInFlight = 4'096;
  const std::size_t kOps = 100'000;
  Rng rng(7);
  std::size_t processed = 0;
  for (auto _ : state) {
    processed += ops(rng, kInFlight, kOps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
}

void BM_EventQueue_Calendar(benchmark::State& state) {
  queue_bench(state, [](Rng& rng, std::size_t in_flight, std::size_t ops) {
    sim::CalendarQueue queue;
    std::uint64_t counter = 0;
    SimTime now = 0;
    for (std::size_t i = 0; i < in_flight; ++i) {
      sim::Event e;
      e.key = {now + 1 + static_cast<SimTime>(rng.uniform(200)), now,
               1 + rng.uniform(64), counter++};
      queue.push(std::move(e));
    }
    for (std::size_t i = 0; i < ops; ++i) {
      sim::Event e = queue.pop();
      now = e.key.time;
      e.key = {now + 1 + static_cast<SimTime>(rng.uniform(200)), now,
               1 + rng.uniform(64), counter++};
      queue.push(std::move(e));
    }
    benchmark::DoNotOptimize(now);
    return ops;
  });
}
BENCHMARK(BM_EventQueue_Calendar);

void BM_EventQueue_PriorityQueue(benchmark::State& state) {
  queue_bench(state, [](Rng& rng, std::size_t in_flight, std::size_t ops) {
    std::priority_queue<sim::Event, std::vector<sim::Event>, EventLater>
        queue;
    std::uint64_t counter = 0;
    SimTime now = 0;
    for (std::size_t i = 0; i < in_flight; ++i) {
      sim::Event e;
      e.key = {now + 1 + static_cast<SimTime>(rng.uniform(200)), now,
               1 + rng.uniform(64), counter++};
      queue.push(std::move(e));
    }
    for (std::size_t i = 0; i < ops; ++i) {
      sim::Event e = std::move(const_cast<sim::Event&>(queue.top()));
      queue.pop();
      now = e.key.time;
      e.key = {now + 1 + static_cast<SimTime>(rng.uniform(200)), now,
               1 + rng.uniform(64), counter++};
      queue.push(std::move(e));
    }
    benchmark::DoNotOptimize(now);
    return ops;
  });
}
BENCHMARK(BM_EventQueue_PriorityQueue);

}  // namespace
}  // namespace scup

SCUP_BENCH_MAIN("E0");
