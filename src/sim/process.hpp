// Actor base class for simulated processes.
#pragma once

#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/counters.hpp"
#include "sim/message.hpp"

namespace scup::sim {

class Simulation;

/// One message delivery inside a batched upcall (see Process::on_messages).
struct Delivery {
  ProcessId from = kInvalidProcess;
  MessagePtr msg;
};

/// A simulated process (participant). Subclasses implement protocol logic in
/// start() / on_message() / on_timer(); the base class provides the actions
/// a process may take (send, timers). Correct processes follow their
/// protocol; Byzantine behaviours are expressed as subclasses that deviate
/// arbitrarily — the simulator itself treats all processes identically and
/// enforces only the model's guarantees (authenticated channels: the `from`
/// id passed to on_message is always truthful).
class Process {
 public:
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return id_; }

  /// Invoked once when the simulation starts.
  virtual void start() {}

  /// Invoked on message delivery. `from` is the authenticated sender id.
  virtual void on_message(ProcessId from, const MessagePtr& msg) = 0;

  /// Invoked with a run of consecutive deliveries the process receives at
  /// one simulated tick, in event-key order (the engine amortizes one
  /// upcall across the run). The default unpacks the batch in order
  /// through on_message. Where a batch splits depends on the shard
  /// partition, so an override must act as if it handled each delivery in
  /// index order on its own — the engine attributes nothing to batches.
  virtual void on_messages(Delivery* batch, std::size_t count);

  /// Invoked when a timer armed with set_timer fires.
  virtual void on_timer(int timer_id) { (void)timer_id; }

 protected:
  Process() = default;

  /// Sends msg to `to` over the reliable authenticated channel. In the
  /// paper's model a process may message any process whose id it knows;
  /// knowing an id is a protocol-level concern, so subclasses must only
  /// call send() for processes they have learned about.
  void send(ProcessId to, MessagePtr msg);

  /// Sends msg to every member of `to` (excluding self).
  void send_all(const NodeSet& to, const MessagePtr& msg);

  /// Arms (or re-arms, replacing any pending firing of the same id) a timer
  /// to fire after `delay` ticks.
  void set_timer(int timer_id, SimTime delay);

  /// Cancels a pending timer; no-op if not armed.
  void cancel_timer(int timer_id);

  SimTime now() const;

  /// Per-process deterministic randomness.
  Rng& rng();

  std::size_t universe_size() const;

  /// Signature simulation: signs `statement` as this process. A correct
  /// process signs only statements it actually asserts; see sim::Notary.
  std::uint64_t sign(std::uint64_t statement) const;
  bool verify(ProcessId signer, std::uint64_t statement,
              std::uint64_t token) const;

  /// Adds to one of the simulation's protocol instrumentation counters
  /// (SimMetrics::protocol_counters).
  void counter_add(ProtoCounter counter, std::uint64_t delta);

 private:
  friend class Simulation;
  Simulation* sim_ = nullptr;
  ProcessId id_ = kInvalidProcess;
};

}  // namespace scup::sim
