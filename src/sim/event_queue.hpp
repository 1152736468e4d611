// The simulation's event queue: a two-tier indexed calendar queue ordered
// by the engine's fixed-size event key.
//
// Every event carries an EventKey (deliver_time, send_time, origin,
// origin_counter), the lexicographic tie-breaking scheme of Rönngren &
// Liljenstam ("On Event Ordering in Parallel Discrete Event Simulation",
// PADS 1999). The scheduling shard computes it locally at send time: the
// origin is the process whose dispatch scheduled the event (a timer's
// origin is its own process) and the counter is that origin's private
// scheduling count, so the key is total and needs no global sequence
// number. Driver-side crash/activate events use the reserved engine
// origin, which sorts before every process.
//
// Delivery delays are small and bounded in the common case, so almost
// every event lands within a short horizon of the current time: a ring of
// per-tick buckets turns push into an append and pop into a bitmap scan.
// Events beyond the horizon (far timers, partition heals) overflow to a
// std::priority_queue and migrate into the ring as the cursor advances.
//
// Pops come out in exact key order even though same-tick events arrive
// out of key order (barrier pushes from several shards, and dispatch
// order at one tick differing from origin order): a bucket appends and
// remembers whether it is still sorted, and is sorted once, lazily, when
// its tick is first peeked or popped. A push into the bucket being drained
// (zero-delay timers, zero-latency links) is inserted at its sorted
// position among the events not yet popped.
//
// peek() and pop() share one scan: after a pop the rest of the cursor's
// bucket is still the minimum, and a push only invalidates the cached
// slot when it lands earlier.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "sim/message.hpp"

namespace scup::sim {

enum class EventKind : std::uint8_t { kDeliver, kTimer, kActivate, kCrash };

/// Origin of driver-side events (crash_at, deferred activation); sorts
/// before every process origin.
inline constexpr std::uint64_t kEngineOrigin = 0;

/// Origin word of events scheduled by process `p`'s dispatch.
inline constexpr std::uint64_t process_origin(ProcessId p) {
  return std::uint64_t{p} + 1;
}

/// The total event order, compared lexicographically field by field.
struct EventKey {
  SimTime time = 0;  // delivery (or firing) tick
  SimTime sent = 0;  // tick of the dispatch that scheduled the event
  std::uint64_t origin = kEngineOrigin;
  std::uint64_t counter = 0;  // the origin's scheduling count

  friend bool operator==(const EventKey&, const EventKey&) = default;
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.sent != b.sent) return a.sent < b.sent;
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.counter < b.counter;
  }
};

struct Event {
  EventKey key;
  EventKind kind = EventKind::kDeliver;
  ProcessId target = kInvalidProcess;
  // kDeliver
  ProcessId from = kInvalidProcess;
  MessagePtr msg;
  // kTimer
  int timer_id = 0;
  std::uint64_t timer_generation = 0;
};

class CalendarQueue {
 public:
  /// Ring horizon in ticks (power of two). Events within
  /// [cursor, cursor + kRingSize) live in per-tick buckets; everything
  /// beyond overflows to the priority-queue tier.
  static constexpr std::size_t kRingSize = 1024;

  CalendarQueue() : ring_(kRingSize) { occupied_.fill(0); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Requires e.key.time >= the time of the last popped event (== the
  /// cursor; the simulator only schedules at or after `now`). Keys may
  /// arrive in any order.
  void push(Event e) {
    ++size_;
    if (peeked_slot_ != kNoPeek && e.key.time < time_of(peeked_slot_)) {
      peeked_slot_ = kNoPeek;  // the new event undercuts the peeked bucket
    }
    if (e.key.time < cursor_ + static_cast<SimTime>(kRingSize)) {
      bucket_push(std::move(e));
    } else {
      overflow_.push(std::move(e));
    }
  }

  /// Time of the earliest event, without consuming it. Does not move the
  /// cursor, so events may still be pushed anywhere at or after the last
  /// popped time (e.g. a crash scheduled between run calls). Requires
  /// !empty().
  SimTime next_time() {
    if (ring_count_ == 0) return overflow_.top().key.time;
    if (peeked_slot_ == kNoPeek) {
      migrate_overflow();
      // Ring events all lie in [cursor_, cursor_ + kRingSize) and, after
      // migration, every overflow event lies at or beyond that horizon —
      // so the earliest occupied bucket is the global minimum.
      peeked_slot_ = next_occupied(slot_of(cursor_));
    }
    return time_of(peeked_slot_);
  }

  /// The earliest event, without consuming it (same contract as
  /// next_time(): the cursor does not move). The pointer is valid only
  /// until the next queue operation. Requires !empty().
  const Event* peek() {
    if (ring_count_ == 0) {
      // The ring drains only through pop(), which re-migrates after every
      // cursor advance — so with an empty ring, every overflow event lies
      // beyond the horizon and the overflow top is the global minimum.
      return &overflow_.top();
    }
    next_time();
    return &front(ring_[peeked_slot_]);
  }

  /// Pops the earliest event. Requires !empty().
  Event pop() {
    std::size_t slot;
    if (peeked_slot_ != kNoPeek) {
      // The usual run-loop shape is peek-then-pop with nothing in between;
      // reuse the peek's scan.
      slot = peeked_slot_;
    } else {
      if (ring_count_ == 0) {
        // Jump the cursor instead of scanning a (possibly huge) gap. Safe
        // to commit here: the popped event's time becomes the simulation's
        // `now`, the floor for every future push.
        cursor_ = overflow_.top().key.time;
      }
      migrate_overflow();
      slot = next_occupied(slot_of(cursor_));
    }
    cursor_ = time_of(slot);
    Bucket& bucket = ring_[slot];
    Event e = std::move(front(bucket));
    if (++bucket.head == bucket.events.size()) {
      // Release the storage: the ring has 1024 buckets, and keeping each
      // one's largest-ever capacity holds the run's worst bursts in memory.
      std::vector<Event>().swap(bucket.events);
      bucket.head = 0;
      occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
      --ring_count_;
      peeked_slot_ = kNoPeek;
    } else {
      // The rest of the cursor's bucket is still the global minimum.
      peeked_slot_ = slot;
    }
    --size_;
    // Re-migrate against the advanced cursor before handing the event to
    // its dispatch, so overflow events always lie at or beyond
    // cursor_ + kRingSize whenever a push can happen.
    migrate_overflow();
    return e;
  }

 private:
  /// One tick's events. [head, end) are not yet popped; `sorted` says
  /// whether that range is in key order, `sent_sorted` whether it is at
  /// least ordered by send tick.
  struct Bucket {
    std::vector<Event> events;
    std::size_t head = 0;
    bool sorted = true;
    bool sent_sorted = true;
  };

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return b.key < a.key;
    }
  };

  static bool by_key(const Event& a, const Event& b) {
    return a.key < b.key;
  }

  static std::size_t slot_of(SimTime t) {
    return static_cast<std::size_t>(t) & (kRingSize - 1);
  }

  /// Absolute time of the (occupied) bucket at `slot`, given that every
  /// ring event lies in the window [cursor_, cursor_ + kRingSize).
  SimTime time_of(std::size_t slot) const {
    return cursor_ + static_cast<SimTime>((slot - slot_of(cursor_)) &
                                          (kRingSize - 1));
  }

  /// The bucket's smallest unpopped event, sorting the bucket first if an
  /// out-of-order push left it unsorted.
  static Event& front(Bucket& b) {
    if (!b.sorted) sort(b);
    return b.events[b.head];
  }

  /// Sorts the unpopped range of `b`. Pushes from one shard arrive in
  /// send-tick order, so usually only the runs of equal send tick need
  /// sorting — much cheaper than one sort over the whole bucket.
  static void sort(Bucket& b) {
    auto first = b.events.begin() + static_cast<std::ptrdiff_t>(b.head);
    const auto last = b.events.end();
    if (!b.sent_sorted) {
      std::sort(first, last, by_key);
    } else {
      while (first != last) {
        auto run_end = first + 1;
        while (run_end != last && run_end->key.sent == first->key.sent) {
          ++run_end;
        }
        std::sort(first, run_end, by_key);
        first = run_end;
      }
    }
    b.sorted = true;
    b.sent_sorted = true;
  }

  void bucket_push(Event e) {
    const std::size_t slot = slot_of(e.key.time);
    Bucket& b = ring_[slot];
    if (b.events.empty()) {
      occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
      ++ring_count_;
      b.sorted = true;
      b.sent_sorted = true;
    } else if (e.key < b.events.back().key) {
      if (b.head > 0 && b.sorted) {
        // The bucket is being drained: insert among the unpopped events
        // rather than re-sorting after every such push.
        const auto pos = std::upper_bound(
            b.events.begin() + static_cast<std::ptrdiff_t>(b.head),
            b.events.end(), e, by_key);
        b.events.insert(pos, std::move(e));
        return;
      }
      b.sorted = false;
      if (e.key.sent < b.events.back().key.sent) b.sent_sorted = false;
    }
    b.events.push_back(std::move(e));
  }

  /// Moves every overflow event now inside the ring horizon into its
  /// bucket.
  void migrate_overflow() {
    while (!overflow_.empty() &&
           overflow_.top().key.time <
               cursor_ + static_cast<SimTime>(kRingSize)) {
      // std::priority_queue::top is const; the pop pattern matches the
      // move-out used by the simulator (the moved-from Event only needs to
      // be destructible).
      bucket_push(std::move(const_cast<Event&>(overflow_.top())));
      overflow_.pop();
    }
  }

  /// First occupied slot at or cyclically after `from`. Requires
  /// ring_count_ > 0.
  std::size_t next_occupied(std::size_t from) const {
    constexpr std::size_t kWords = kRingSize / 64;
    std::size_t word = from >> 6;
    // Mask off bits below `from` in its word.
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t i = 0; i <= kWords; ++i) {
      if (bits != 0) {
        return (word << 6) +
               static_cast<std::size_t>(std::countr_zero(bits));
      }
      word = (word + 1) & (kWords - 1);
      bits = occupied_[word];
    }
    return from;  // unreachable when ring_count_ > 0
  }

  static constexpr std::size_t kNoPeek = kRingSize;

  std::vector<Bucket> ring_;
  std::array<std::uint64_t, kRingSize / 64> occupied_{};
  SimTime cursor_ = 0;  // no queued event is earlier than this
  std::size_t ring_count_ = 0;  // occupied buckets
  std::size_t size_ = 0;
  std::size_t peeked_slot_ = kNoPeek;  // next_time's scan, reused by pop
  std::priority_queue<Event, std::vector<Event>, Later> overflow_;
};

}  // namespace scup::sim
