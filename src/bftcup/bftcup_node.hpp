// BftCupNode — the BFT-CUP baseline (Theorem 1): the same initial knowledge
// (PD_i and f), but consensus is reached by
//   1. discovering the sink (same SINK algorithm / sink detector),
//   2. running PBFT among the sink members,
//   3. disseminating the decision to non-sink members, who accept a value
//      vouched for by more than f distinct sink members.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bftcup/pbft.hpp"
#include "common/node_set.hpp"
#include "sim/composed.hpp"
#include "sinkdetector/sink_detector.hpp"

namespace scup::bftcup {

/// Frame ids 48/49 (see the allocation table in sim/wire.hpp callers).
inline constexpr std::uint16_t kWireTypeDecisionRequest = 48;
inline constexpr std::uint16_t kWireTypeDecision = 49;

/// Flooded request: `origin` wants the decided value.
struct DecisionRequestMsg final : sim::Message {
  explicit DecisionRequestMsg(ProcessId o) : origin(o) {}
  ProcessId origin;
  std::string type_name() const override { return "bftcup.decision_req"; }
  std::uint16_t wire_type() const override { return kWireTypeDecisionRequest; }
  void wire_encode(sim::WireWriter& w) const override { w.u32(origin); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const ProcessId origin = r.u32();
    if (!r.ok()) return nullptr;
    return sim::make_message<DecisionRequestMsg>(origin);
  }
};

/// A (claimed) decided value; non-sink members require > f matching senders.
struct DecisionMsg final : sim::Message {
  explicit DecisionMsg(Value v) : value(v) {}
  Value value;
  std::string type_name() const override { return "bftcup.decision"; }
  std::uint16_t wire_type() const override { return kWireTypeDecision; }
  void wire_encode(sim::WireWriter& w) const override { w.u64(value); }
  static sim::MessagePtr wire_decode(sim::WireReader& r) {
    const Value value = r.u64();
    if (!r.ok()) return nullptr;
    return sim::make_message<DecisionMsg>(value);
  }
};

class BftCupNode : public sim::ComposedNode {
 public:
  BftCupNode(NodeSet pd, std::size_t f, Value value, PbftConfig pbft = {},
             cup::DiscoveryConfig discovery = {});

  void start() override;
  void on_message(ProcessId from, const sim::MessagePtr& msg) override;
  void on_timer(int timer_id) override;

  bool sink_detected() const { return detector_.has_result(); }
  const sinkdetector::GetSinkResult& sink_result() const {
    return detector_.result();
  }

  bool decided() const { return decided_.has_value(); }
  Value decision() const;
  SimTime decision_time() const { return decision_time_; }

 private:
  void on_sink(const sinkdetector::GetSinkResult& result);
  void decide(Value v);
  void answer_requests();

  NodeSet pd_;
  Value value_;
  PbftConfig pbft_config_;
  sinkdetector::SinkDetector detector_;
  std::unique_ptr<PbftConsensus> pbft_;

  /// PBFT traffic arriving before our own sink detection completes is
  /// buffered and replayed once the consensus instance exists — otherwise a
  /// slow sink member could miss prepares forever and stall the quorum.
  std::vector<std::pair<ProcessId, sim::MessagePtr>> pending_pbft_;

  NodeSet requesters_;
  NodeSet request_forwarded_;
  std::map<Value, NodeSet> decision_votes_;  // value -> distinct senders
  std::optional<Value> decided_;
  SimTime decision_time_ = kTimeInfinity;
};

}  // namespace scup::bftcup
