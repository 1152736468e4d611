#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

namespace scup::sim {

namespace {
std::map<std::string, std::size_t> stringify_by_type(
    const std::vector<std::size_t>& by_id) {
  std::map<std::string, std::size_t> result;
  for (std::uint32_t id = 0; id < by_id.size(); ++id) {
    if (by_id[id] != 0) result[MessageTypeRegistry::name_of(id)] = by_id[id];
  }
  return result;
}
}  // namespace

std::map<std::string, std::size_t> SimMetrics::messages_by_type() const {
  return stringify_by_type(messages_by_type_id);
}

std::map<std::string, std::size_t> SimMetrics::bytes_by_type() const {
  return stringify_by_type(bytes_by_type_id);
}

const char* proto_counter_name(ProtoCounter c) {
  switch (c) {
    case ProtoCounter::kQuorumClosureRuns: return "scp.closure_runs";
    case ProtoCounter::kQuorumClosureCacheHits: return "scp.closure_cache_hits";
    case ProtoCounter::kQsetEvals: return "scp.qset_evals";
    case ProtoCounter::kQsetEvalsBaseline: return "scp.qset_evals_baseline";
    case ProtoCounter::kSupportUpdates: return "scp.support_updates";
    case ProtoCounter::kSupportRebuilds: return "scp.support_rebuilds";
    case ProtoCounter::kSlotWraps: return "scp.slot_wraps";
    case ProtoCounter::kSlotWrapsShared: return "scp.slot_wraps_shared";
    case ProtoCounter::kDiscoveryPayloadBuilds: return "cup.payload_builds";
    case ProtoCounter::kDiscoveryPayloadShared: return "cup.payload_shared";
    case ProtoCounter::kWireEncodes: return "sim.wire_encodes";
    case ProtoCounter::kWireCachedSends: return "sim.wire_cached_sends";
    case ProtoCounter::kNominationEvals: return "scp.nomination_evals";
    case ProtoCounter::kNominationEvalsBaseline:
      return "scp.nomination_evals_baseline";
    case ProtoCounter::kCount: break;
  }
  return "scp.unknown";
}

std::map<std::string, std::uint64_t> SimMetrics::protocol_counters_by_name()
    const {
  std::map<std::string, std::uint64_t> result;
  for (std::size_t i = 0; i < kProtoCounterCount; ++i) {
    result[proto_counter_name(static_cast<ProtoCounter>(i))] =
        protocol_counters[i];
  }
  return result;
}

Simulation::Simulation(std::size_t n, NetworkConfig config)
    : Simulation(n, config, std::make_unique<UniformModel>(config)) {}

// scup-analyze: owner-ok(construction: shard threads do not exist yet)
Simulation::Simulation(std::size_t n, NetworkConfig config,
                       std::unique_ptr<NetworkModel> model)
    : n_(n),
      config_(config),
      model_(std::move(model)),
      origin_counters_(n, 0),
      notary_(n, config.seed),
      processes_(n),
      crashed_(n, 0),
      active_(n, 0),
      activation_time_(n, 0),
      mailboxes_(n),
      timer_generations_(n),
      pool_(config.message_pool ? std::make_unique<MessagePool>() : nullptr) {
  if (!model_) throw std::invalid_argument("Simulation: null NetworkModel");
  process_rngs_.reserve(n);
  Rng seeder(config.seed ^ 0x5eedULL);
  for (std::size_t i = 0; i < n; ++i) process_rngs_.push_back(seeder.split());
  // drawplan begin(stream construction: one substream per sender, seeded
  // independently of every other stream so send interleavings across
  // senders cannot perturb any sender's draw sequence)
  net_streams_.reserve(n);
  for (ProcessId i = 0; i < n; ++i) {
    net_streams_.emplace_back(net_stream_seed(config.seed, i));
  }
  // drawplan end
}

Simulation::~Simulation() = default;

void Simulation::install(ProcessId id, std::unique_ptr<Process> process) {
  if (id >= n_) throw std::out_of_range("Simulation::install: bad id");
  if (started_) throw std::logic_error("Simulation::install after start");
  process->sim_ = this;
  process->id_ = id;
  processes_[id] = std::move(process);
}

Process& Simulation::process(ProcessId id) {
  if (id >= n_ || !processes_[id]) {
    throw std::out_of_range("Simulation::process: bad id");
  }
  return *processes_[id];
}

const Process& Simulation::process(ProcessId id) const {
  if (id >= n_ || !processes_[id]) {
    throw std::out_of_range("Simulation::process: bad id");
  }
  return *processes_[id];
}

void Simulation::activate(ProcessId id, SimTime t) {
  if (id >= n_) throw std::out_of_range("activate: bad id");
  if (started_) throw std::logic_error("activate after start");
  if (t < 0) throw std::invalid_argument("activate: negative time");
  activation_time_[id] = t;
}

void Simulation::set_shards(std::size_t shards) {
  if (started_) throw std::logic_error("set_shards after start");
  // Validates the lookahead up front (and with it the model): throws,
  // naming the offending link, when any cross-shard pair under the
  // p % shards partition has a latency floor below one tick.
  shard_window_widths(*model_, n_, std::max<std::size_t>(1, shards));
  shards_requested_ = shards;
}

void Simulation::start() {
  if (started_) throw std::logic_error("Simulation::start called twice");
  for (ProcessId id = 0; id < n_; ++id) {
    if (!processes_[id]) {
      throw std::logic_error("Simulation::start: process " +
                             std::to_string(id) + " not installed");
    }
  }
  started_ = true;
  engine_ = std::make_unique<ShardEngine>(
      *this, std::max<std::size_t>(1, shards_requested_));
  for (const auto& [id, t] : pending_crashes_) {
    if (t == 0) {
      // Crashed at genesis: the process never runs — not even start().
      crashed_[id] = 1;
      continue;
    }
    enqueue_engine_event(EventKind::kCrash, id, t);
  }
  pending_crashes_.clear();
  for (ProcessId id = 0; id < n_; ++id) {
    if (activation_time_[id] == 0) continue;
    enqueue_engine_event(EventKind::kActivate, id, activation_time_[id]);
  }
  // Process start() upcalls run serially on the calling thread (no shard
  // context) and construct the first broadcast wave.
  const MessagePool::Scope pool_scope(pool_.get());
  for (ProcessId id = 0; id < n_; ++id) {
    if (activation_time_[id] != 0 || crashed_[id]) continue;
    active_[id] = 1;
    processes_[id]->start();
  }
}

// scup-analyze: owner-ok(between windows only: the driver's crash_at and start() schedule engine-origin events)
void Simulation::enqueue_engine_event(EventKind kind, ProcessId target,
                                      SimTime at) {
  Event e;
  e.key = {at, now_, kEngineOrigin, engine_counter_++};
  e.kind = kind;
  e.target = target;
  engine_->schedule(nullptr, std::move(e));
}

// scup-analyze: owner-ok(between windows the caller is the only running thread; in-window state is the sender's own)
void Simulation::enqueue_send(ProcessId from, ProcessId to, MessagePtr msg) {
  if (to >= n_) throw std::out_of_range("send: bad destination");
  if (from >= n_) throw std::out_of_range("send: bad sender");
  if (!msg) throw std::invalid_argument("send: null message");
  if (crashed_[from]) return;  // a crashed process sends nothing
  if (!engine_) throw std::logic_error("send before Simulation::start");
  ShardContext* ctx = ShardEngine::current();
  SimMetrics& m = ctx ? ctx->metrics : metrics_;
  m.messages_sent += 1;
  // Wire-once accounting: every message is charged its exact encoded
  // frame size, built once per message object and read from the cache on
  // every further send, so wire_encodes + wire_cached_sends ==
  // messages_sent. The encode/cached split is deterministic (it depends
  // only on which sends a message object fans out to), so the counters
  // survive the cross-mode SimMetrics identity check.
  const Message::SendSize sized = msg->send_size();
  const std::size_t bytes = sized.bytes;
  m.bytes_sent += bytes;
  m.protocol_counters[static_cast<std::size_t>(
      sized.encoded_now ? ProtoCounter::kWireEncodes
                        : ProtoCounter::kWireCachedSends)] += 1;
  const std::uint32_t type = msg->metrics_type_id();
  if (type >= m.messages_by_type_id.size()) {
    m.messages_by_type_id.resize(type + 1, 0);
    m.bytes_by_type_id.resize(type + 1, 0);
  }
  m.messages_by_type_id[type] += 1;
  m.bytes_by_type_id[type] += bytes;

  // The verdict is drawn at send time from the sender's private
  // substream. Inside a window this runs on the sending shard's thread
  // with no synchronization: sender `from`'s events all live on shard
  // from % S and are drained in key order, so its send sequence — and with
  // it the substream position — is identical under every shard count.
  const SimTime send_time = ctx ? ctx->now : now_;
  // drawplan begin(the audited verdict site: the draw-plan check below is
  // what licenses every other access)
  StreamRng& stream = net_streams_[from];
  const std::uint64_t pos_before = stream.position();
  const NetworkModel::Verdict verdict =
      model_->on_send(from, to, send_time, stream);
  const std::uint64_t consumed = stream.position() - pos_before;
  // drawplan end
  if (consumed != model_->draws_per_send(send_time)) {
    throw std::logic_error(
        "NetworkModel broke the draw-plan contract: on_send consumed " +
        std::to_string(consumed) + " draw(s) where draws_per_send(now) "
        "promises " + std::to_string(model_->draws_per_send(send_time)));
  }
  if (verdict.dropped) {
    m.messages_dropped += 1;
    return;
  }
  if (verdict.deliver_at < send_time ||
      (verdict.duplicated && verdict.duplicate_at < send_time)) {
    throw std::logic_error("NetworkModel: delivery scheduled in the past");
  }
  // The original is routed before the duplicate and takes the smaller
  // origin counter, so it pops first when both copies sample the same
  // delay.
  MessagePtr dup_msg = verdict.duplicated ? msg : nullptr;
  route_delivery(ctx, from, to, send_time, verdict.deliver_at,
                 std::move(msg));
  if (verdict.duplicated) {
    m.messages_duplicated += 1;
    // Both copies share the immutable message.
    route_delivery(ctx, from, to, send_time, verdict.duplicate_at,
                   std::move(dup_msg));
  }
}

void Simulation::route_delivery(ShardContext* ctx, ProcessId from,
                                ProcessId to, SimTime sent, SimTime at,
                                MessagePtr msg) {
  Event e;
  e.key = {at, sent, process_origin(from), origin_counters_[from]++};
  e.kind = EventKind::kDeliver;
  e.target = to;
  e.from = from;
  e.msg = std::move(msg);
  engine_->schedule(ctx, std::move(e));
}

std::uint64_t& Simulation::timer_generation(ProcessId target, int timer_id) {
  auto& table = timer_generations_[target];
  for (auto& [id, generation] : table) {
    if (id == timer_id) return generation;
  }
  table.emplace_back(timer_id, 0);
  return table.back().second;
}

const std::uint64_t* Simulation::find_timer_generation(ProcessId target,
                                                       int timer_id) const {
  for (const auto& [id, generation] : timer_generations_[target]) {
    if (id == timer_id) return &generation;
  }
  return nullptr;
}

// scup-analyze: owner-ok(timers are self-targeted: the counter and queue are the caller's own shard's; between windows the caller is the only running thread)
void Simulation::enqueue_timer(ProcessId target, int timer_id, SimTime delay) {
  if (delay < 0) throw std::invalid_argument("set_timer: negative delay");
  if (!engine_) throw std::logic_error("set_timer before Simulation::start");
  ShardContext* ctx = ShardEngine::current();
  const SimTime now = ctx ? ctx->now : now_;
  Event e;
  e.key = {now + delay, now, process_origin(target),
           origin_counters_[target]++};
  e.kind = EventKind::kTimer;
  e.target = target;
  e.timer_id = timer_id;
  e.timer_generation = ++timer_generation(target, timer_id);
  engine_->schedule(ctx, std::move(e));
}

void Simulation::cancel_timer(ProcessId target, int timer_id) {
  // Bumping the generation invalidates any queued firing.
  ++timer_generation(target, timer_id);
}

// scup-analyze: owner-ok(between windows adds to metrics_ directly; in a window adds to the calling shard's delta)
void Simulation::counter_add(ProtoCounter counter, std::uint64_t delta) {
  ShardContext* ctx = ShardEngine::current();
  SimMetrics& m = ctx ? ctx->metrics : metrics_;
  m.protocol_counters[static_cast<std::size_t>(counter)] += delta;
}

void Simulation::crash(ProcessId id) {
  if (id >= n_) throw std::out_of_range("crash: bad id");
  crashed_[id] = 1;
}

void Simulation::crash_at(ProcessId id, SimTime t) {
  if (id >= n_) throw std::out_of_range("crash_at: bad id");
  if (t < now_) throw std::invalid_argument("crash_at: time in the past");
  if (!started_) {
    pending_crashes_.emplace_back(id, t);
    return;
  }
  enqueue_engine_event(EventKind::kCrash, id, t);
}

void Simulation::dispatch(Event& event, SimMetrics& metrics) {
  if (crashed_[event.target]) return;  // crashed: nothing fires, ever
  Process& p = *processes_[event.target];
  switch (event.kind) {
    case EventKind::kDeliver:
      // ShardEngine::drain hands deliveries for active processes straight
      // to on_messages; one reaching here is for a process not yet
      // activated, and waits in the mailbox until its deferred start().
      mailboxes_[event.target].emplace_back(event.from, std::move(event.msg));
      return;
    case EventKind::kTimer: {
      // Drop if re-armed/cancelled since scheduling.
      const std::uint64_t* generation =
          find_timer_generation(event.target, event.timer_id);
      if (generation == nullptr || *generation != event.timer_generation) {
        return;
      }
      metrics.timer_fires += 1;
      p.on_timer(event.timer_id);
      return;
    }
    case EventKind::kActivate: {
      active_[event.target] = 1;
      p.start();
      auto mailbox = std::move(mailboxes_[event.target]);
      mailboxes_[event.target].clear();
      for (auto& [from, msg] : mailbox) {
        if (crashed_[event.target]) break;
        p.on_message(from, msg);
      }
      return;
    }
    case EventKind::kCrash:
      crashed_[event.target] = 1;
      return;
  }
}

void Simulation::absorb_metrics(SimMetrics& delta) {
  metrics_.messages_sent += delta.messages_sent;
  metrics_.bytes_sent += delta.bytes_sent;
  if (delta.messages_by_type_id.size() > metrics_.messages_by_type_id.size()) {
    metrics_.messages_by_type_id.resize(delta.messages_by_type_id.size(), 0);
    metrics_.bytes_by_type_id.resize(delta.bytes_by_type_id.size(), 0);
  }
  for (std::size_t i = 0; i < delta.messages_by_type_id.size(); ++i) {
    metrics_.messages_by_type_id[i] += delta.messages_by_type_id[i];
    metrics_.bytes_by_type_id[i] += delta.bytes_by_type_id[i];
  }
  metrics_.timer_fires += delta.timer_fires;
  metrics_.events_processed += delta.events_processed;
  metrics_.messages_dropped += delta.messages_dropped;
  metrics_.messages_duplicated += delta.messages_duplicated;
  for (std::size_t i = 0; i < kProtoCounterCount; ++i) {
    metrics_.protocol_counters[i] += delta.protocol_counters[i];
  }
  // Zero in place: the per-type vectors keep their size (their length only
  // encodes the max interned id seen, which merging preserves) and their
  // capacity, so steady-state windows allocate nothing here.
  delta.messages_sent = 0;
  delta.bytes_sent = 0;
  std::fill(delta.messages_by_type_id.begin(),
            delta.messages_by_type_id.end(), 0);
  std::fill(delta.bytes_by_type_id.begin(), delta.bytes_by_type_id.end(), 0);
  delta.timer_fires = 0;
  delta.events_processed = 0;
  delta.messages_dropped = 0;
  delta.messages_duplicated = 0;
  delta.protocol_counters.fill(0);
}

std::size_t Simulation::run_for(SimTime deadline) {
  if (!started_) throw std::logic_error("run_for before start");
  const MessagePool::Scope pool_scope(pool_.get());
  const std::size_t before = metrics_.events_processed;
  while (engine_->run_window(deadline)) {
  }
  return metrics_.events_processed - before;
}

// ---- Process member functions that need the Simulation definition ----

void Process::send(ProcessId to, MessagePtr msg) {
  sim_->enqueue_send(id_, to, std::move(msg));
}

void Process::send_all(const NodeSet& to, const MessagePtr& msg) {
  for (ProcessId p : to) {
    if (p != id_) send(p, msg);
  }
}

void Process::set_timer(int timer_id, SimTime delay) {
  sim_->enqueue_timer(id_, timer_id, delay);
}

void Process::cancel_timer(int timer_id) { sim_->cancel_timer(id_, timer_id); }

SimTime Process::now() const { return sim_->now(); }

Rng& Process::rng() { return sim_->process_rngs_[id_]; }

std::size_t Process::universe_size() const { return sim_->size(); }

std::uint64_t Process::sign(std::uint64_t statement) const {
  return sim_->notary_.sign(id_, statement);
}

bool Process::verify(ProcessId signer, std::uint64_t statement,
                     std::uint64_t token) const {
  return sim_->notary().verify(signer, statement, token);
}

void Process::counter_add(ProtoCounter counter, std::uint64_t delta) {
  sim_->counter_add(counter, delta);
}

void Process::on_messages(Delivery* batch, std::size_t count) {
  // scup-sanitize: batch/count come from the deterministic event plane
  for (std::size_t i = 0; i < count; ++i) {
    // scup-sanitize: delivery slots were bounds-checked by the scheduler
    on_message(batch[i].from, batch[i].msg);
  }
}

}  // namespace scup::sim
