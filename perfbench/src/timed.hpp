// Span-recording wrappers around the library's public extension points.
//
// Timed<Node> subclasses a protocol node (StellarCupNode, BftCupNode,
// LedgerNode) and wraps each upcall the simulator makes into it in a span
// named after the upcall's protocol family. TimedModel decorates a
// NetworkModel and wraps each verdict. Neither changes what the wrapped
// object does: the traced run must reproduce the untraced run's notary
// fingerprint and metrics exactly, and the benchmark checks that it does.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "sim/network_model.hpp"
#include "sim/process.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-node observations the traced run adds to the cell outcome.
struct NodeTrace {
  /// Simulated time the sink detector returned (kTimeInfinity: never).
  scup::SimTime sink_return = scup::kTimeInfinity;
  /// Deliveries handed over through on_messages vs. the ones that reached
  /// a classified on_message span from inside it; the harness checks they
  /// match, so no delivery escapes the handler spans.
  std::uint64_t batched_deliveries = 0;
  std::uint64_t batched_handled = 0;
};

template <typename Node>
class Timed final : public Node {
 public:
  using Node::Node;

  void start() override {
    {
      const Scope span(SpanName::kStart);
      Node::start();
    }
    observe();
  }

  void on_message(scup::ProcessId from,
                  const scup::sim::MessagePtr& msg) override {
    if (in_batch_) ++trace_.batched_handled;
    {
      const Scope span(family_of(*msg));
      Node::on_message(from, msg);
    }
    observe();
  }

  // Spans come from on_message, which the base implementation calls once
  // per delivery; this override only counts what the batch carried.
  void on_messages(scup::sim::Delivery* batch, std::size_t count) override {
    trace_.batched_deliveries += count;
    in_batch_ = true;
    Node::on_messages(batch, count);
    in_batch_ = false;
  }

  void on_timer(int timer_id) override {
    {
      const Scope span(SpanName::kTimer);
      Node::on_timer(timer_id);
    }
    observe();
  }

  const NodeTrace& node_trace() const { return trace_; }

 private:
  void observe() {
    if (trace_.sink_return == scup::kTimeInfinity && this->sink_detected()) {
      trace_.sink_return = this->now();
    }
  }

  NodeTrace trace_;
  bool in_batch_ = false;
};

/// Decorating NetworkModel: forwards everything to `inner`, timing each
/// verdict. Passed to the three-argument sim::Simulation constructor.
class TimedModel final : public scup::sim::NetworkModel {
 public:
  explicit TimedModel(std::unique_ptr<scup::sim::NetworkModel> inner)
      : inner_(std::move(inner)) {}

  Verdict on_send(scup::ProcessId from, scup::ProcessId to, scup::SimTime now,
                  scup::StreamRng& rng) override {
    const Scope span(SpanName::kVerdict);
    return inner_->on_send(from, to, now, rng);
  }
  std::uint64_t draws_per_send(scup::SimTime now) const override {
    return inner_->draws_per_send(now);
  }
  scup::SimTime min_latency() const override { return inner_->min_latency(); }
  scup::SimTime min_latency(scup::ProcessId from,
                            scup::ProcessId to) const override {
    return inner_->min_latency(from, to);
  }
  scup::SimTime base_min_latency() const override {
    return inner_->base_min_latency();
  }
  std::vector<LatencyOverride> latency_overrides() const override {
    return inner_->latency_overrides();
  }

 private:
  std::unique_ptr<scup::sim::NetworkModel> inner_;
};

}  // namespace perfbench
