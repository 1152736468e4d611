#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "sim/message_pool.hpp"
#include "sim/network_model.hpp"
#include "sim/simulation.hpp"

namespace scup::sim {

namespace {
/// Set for the duration of ShardEngine::drain on each participating thread;
/// how Simulation knows a call is happening inside a window.
thread_local ShardContext* tls_shard = nullptr;

/// Monotonic wall-clock read for the barrier-replay profile. Called only
/// when NetworkConfig::shard_timing is set, and the readings feed
/// ShardStats (never SimMetrics), so determinism is untouched — the
/// det-raw-random suppression for this file covers exactly this helper.
std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

std::vector<SimTime> shard_window_widths(const NetworkModel& model,
                                         std::size_t n, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("shard_window_widths: shards must be >= 1");
  }
  std::vector<SimTime> widths(shards, kTimeInfinity);
  std::vector<std::size_t> size(shards, 0);
  for (std::size_t p = 0; p < n; ++p) ++size[p % shards];
  // The matrix is base_min_latency() everywhere except the (at most one
  // per directed pair) listed overrides, so the per-shard minimum over
  // cross-shard pairs needs only the overrides plus one counting pass —
  // the base floor participates for shard s iff s has a cross-shard pair
  // no override covers.
  std::vector<std::size_t> overridden_cross(shards, 0);
  for (const auto& o : model.latency_overrides()) {
    if (o.from >= n || o.to >= n) continue;  // not a live pair
    const std::size_t s = o.from % shards;
    if (s == o.to % shards) continue;  // intra-shard: never constrains W
    if (o.min_delay < 1) {
      throw std::invalid_argument(
          "sharded execution is illegal for this topology: the link " +
          std::to_string(o.from) + " -> " + std::to_string(o.to) +
          " has latency floor " + std::to_string(o.min_delay) +
          " and crosses the shard partition (shard " + std::to_string(s) +
          " -> shard " + std::to_string(o.to % shards) +
          " of " + std::to_string(shards) +
          "); every cross-shard link needs min_latency >= 1 (intra-shard "
          "links may be arbitrarily fast, and shards == 1 accepts any "
          "model)");
    }
    ++overridden_cross[s];
    widths[s] = std::min(widths[s], o.min_delay);
  }
  const SimTime base = model.base_min_latency();
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t cross_pairs = size[s] * (n - size[s]);
    if (overridden_cross[s] >= cross_pairs) continue;  // all pairs overridden
    if (cross_pairs == 0) continue;  // no cross-shard pairs (shards == 1)
    if (base < 1) {
      throw std::invalid_argument(
          "sharded execution is illegal for this topology: the model's "
          "base latency floor (base_min_latency) is " +
          std::to_string(base) +
          " and shard " + std::to_string(s) + " of " +
          std::to_string(shards) +
          " has non-overridden cross-shard links; every cross-shard link "
          "needs min_latency >= 1 (intra-shard links may be arbitrarily "
          "fast, and shards == 1 accepts any model)");
    }
    widths[s] = std::min(widths[s], base);
  }
  return widths;
}


ShardEngine::ShardEngine(Simulation& sim, std::size_t shards)
    : sim_(sim),
      pool_(shards - 1),
      w_out_(shard_window_widths(*sim.model_, sim.n_, shards)) {
  // Auto quantum: the base latency floor, not the global min_latency() —
  // the latter is dragged down by the fastest (possibly intra-shard) link,
  // and the grid spacing must not depend on the partition.
  quantum_ = sim.config_.lookahead_quantum > 0
                 ? sim.config_.lookahead_quantum
                 : std::max<SimTime>(1, sim.model_->base_min_latency());
  timing_ = sim.config_.shard_timing;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto ctx = std::make_unique<ShardContext>();
    ctx->index = i;
    shards_.push_back(std::move(ctx));
  }
}

ShardContext* ShardEngine::current() { return tls_shard; }

void ShardEngine::schedule(ShardContext* ctx, Event e) {
  // One shard skips the modulo: this runs once per send and timer.
  ShardContext& owner = shards_.size() == 1
                            ? *shards_[0]
                            : *shards_[e.target % shards_.size()];
  if (ctx == nullptr || ctx == &owner) {
    owner.queue.push(std::move(e));
    return;
  }
  if (e.key.time < ctx->window_end) {
    // Unreachable for honest models: a cross-shard verdict satisfies
    // deliver_at >= send_time + min_latency(from, to) >= window_end by
    // the window construction. Landing here means min_latency lied.
    throw std::logic_error(
        "NetworkModel delivered a cross-shard message inside the "
        "conservative window; min_latency(from, to) must lower-bound "
        "every verdict");
  }
  ctx->outbox.push_back(std::move(e));
  ++ctx->stats.staged_ops;
}

SimTime ShardEngine::next_event_time() const {
  SimTime t_min = kTimeInfinity;
  for (const auto& shard : shards_) {
    if (shard->queue.empty()) continue;
    t_min = std::min(t_min, shard->queue.next_time());
  }
  return t_min;
}

bool ShardEngine::run_window(SimTime deadline, SimTime cap) {
  deadline = std::min(deadline, kTimeInfinity - 1);
  const SimTime t_min = next_event_time();
  if (t_min > deadline || t_min >= cap) return false;
  // Window end: no shard can produce a cross-shard effect before its own
  // next event plus its lookahead, so everything in
  // [t_min, min_s(next_s + W_out(s))) is safe to drain in parallel.
  // Clamped to the caller's cap (run_until's checkpoint grid) and the
  // deadline. A shard with unbounded lookahead (no cross-shard pairs)
  // never constrains the end; with one shard that leaves only the
  // clamps, i.e. the whole horizon is one window.
  SimTime end = kTimeInfinity;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s]->queue.empty()) continue;
    if (w_out_[s] >= kTimeInfinity) continue;
    end = std::min(end, shards_[s]->queue.next_time() + w_out_[s]);
  }
  end = std::min(end, std::min(cap, deadline + 1));
  width_sum_ += static_cast<std::uint64_t>(end - t_min);
  for (auto& shard : shards_) {
    shard->window_end = end;
    shard->processed_any = false;
  }
  const std::uint64_t t0 = timing_ ? mono_ns() : 0;
  pool_.run([this](std::size_t i) { drain(i); });
  if (timing_) window_ns_ += mono_ns() - t0;
  ++windows_;
  commit_staged();
  return true;
}

// scup-analyze: shard-entry(runs on every pool thread inside the window)
void ShardEngine::drain(std::size_t shard_index) {
  ShardContext& ctx = *shards_[shard_index];
  tls_shard = &ctx;
  // Shard threads allocate messages too (handler sends inside the window),
  // so each drain binds the owning Simulation's pool to its thread. The
  // pool is internally synchronized; binding is just TLS routing.
  const MessagePool::Scope pool_scope(sim_.pool_.get());
  const std::uint64_t t0 = timing_ ? mono_ns() : 0;
  try {
    while (!ctx.queue.empty()) {
      const Event* head = ctx.queue.peek();
      if (head->key.time >= ctx.window_end) break;
      if (head->kind != EventKind::kDeliver ||
          !sim_.deliverable(head->target)) {
        Event e = ctx.queue.pop();
        ctx.now = e.key.time;
        ctx.last_time = e.key.time;
        ctx.processed_any = true;
        ctx.metrics.events_processed += 1;
        sim_.dispatch(e, ctx.metrics);
        continue;
      }
      // Hand the run of consecutive deliveries to this target at this
      // tick over as one upcall. Only deliveries scheduled at an earlier
      // tick join a batch: whatever the upcall schedules for this tick
      // sorts after all of them, so the batch is exactly what a
      // one-at-a-time drain would pop next. A same-tick (zero-latency)
      // delivery goes alone.
      const SimTime tick = head->key.time;
      const ProcessId target = head->target;
      const bool extend = head->key.sent < tick;
      ctx.batch.clear();
      for (;;) {
        Event e = ctx.queue.pop();
        ctx.now = tick;
        ctx.last_time = tick;
        ctx.processed_any = true;
        ctx.metrics.events_processed += 1;
        ctx.batch.push_back(Delivery{e.from, std::move(e.msg)});
        if (!extend || ctx.queue.empty()) break;
        const Event* next = ctx.queue.peek();
        if (next->key.time != tick || next->kind != EventKind::kDeliver ||
            next->target != target || next->key.sent >= tick) {
          break;
        }
      }
      ctx.stats.batch_upcalls += 1;
      ctx.stats.batched_messages += ctx.batch.size();
      sim_.processes_[target]->on_messages(ctx.batch.data(),
                                           ctx.batch.size());
    }
  } catch (...) {
    ctx.error = std::current_exception();
  }
  if (timing_) ctx.stats.drain_ns += mono_ns() - t0;
  tls_shard = nullptr;
}

// shard-barrier begin(commit of one window: outboxed effects are pushed
// into their owners' queues and metrics merge into the global struct;
// every shard thread is parked)
// scup-analyze: barrier-entry(single-threaded: every shard thread is parked)
void ShardEngine::commit_staged() {
  for (const auto& shard : shards_) {
    if (shard->error) {
      const std::exception_ptr err = shard->error;
      for (auto& s : shards_) s->error = nullptr;
      std::rethrow_exception(err);
    }
  }
  // Every outboxed event lies at or past the window end, where no shard
  // has popped anything yet, and its key was final when it was staged:
  // the push order across shards is irrelevant to the pop order.
  const std::uint64_t t_merge = timing_ ? mono_ns() : 0;
  for (auto& shard : shards_) {
    for (Event& e : shard->outbox) {
      shards_[e.target % shards_.size()]->queue.push(std::move(e));
    }
    shard->outbox.clear();  // keeps capacity
  }
  if (timing_) merge_ns_ += mono_ns() - t_merge;

  const std::uint64_t t_reset = timing_ ? mono_ns() : 0;
  for (auto& shard : shards_) {
    sim_.absorb_metrics(shard->metrics);
    if (shard->processed_any) {
      sim_.now_ = std::max(sim_.now_, shard->last_time);
    }
  }
  if (timing_) reset_ns_ += mono_ns() - t_reset;
}
// shard-barrier end

// scup-analyze: owner-ok(between-windows aggregation; pulled into the shard closure only by the `stats` name collision with QuorumEngine::stats)
ShardStats ShardEngine::stats() const {
  ShardStats total;
  total.shards = shards_.size();
  total.windows = windows_;
  total.window_width_sum = width_sum_;
  total.timing_enabled = timing_;
  total.window_ns = window_ns_;
  total.merge_ns = merge_ns_;
  total.reset_ns = reset_ns_;
  if (timing_) total.shard_drain_ns.reserve(shards_.size());
  for (const auto& shard : shards_) {
    total.staged_ops += shard->stats.staged_ops;
    total.batch_upcalls += shard->stats.batch_upcalls;
    total.batched_messages += shard->stats.batched_messages;
    total.drain_ns += shard->stats.drain_ns;
    if (timing_) total.shard_drain_ns.push_back(shard->stats.drain_ns);
  }
  return total;
}

}  // namespace scup::sim
