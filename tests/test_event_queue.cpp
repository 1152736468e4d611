// CalendarQueue ordering: the two-tier queue (per-tick bucket ring +
// priority-queue overflow) must pop in exactly EventKey order
// (time, sent, origin, counter) no matter how events straddle the ring
// horizon or in which order same-tick keys arrive. The delicate spots live
// at the wrap boundary — events landing at cursor + kRingSize - 1 vs
// cursor + kRingSize, overflow events migrating into buckets that direct
// pushes then append to, the cursor jumping a huge gap when the ring
// drains — and in the buckets themselves: barrier pushes arrive out of key
// order, and zero-delay pushes land in the bucket being drained. The tests
// here concentrate pushes around those spots and differential-check
// against a std::set over the key.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace scup::sim {
namespace {

Event make_event(EventKey key) {
  Event e;
  e.key = key;
  e.kind = EventKind::kTimer;
  e.target = 0;
  e.timer_id = static_cast<int>(key.counter & 0x7fffffff);
  return e;
}

/// An event whose tie-break among same-tick events is `counter` alone.
Event make_event(SimTime time, std::uint64_t counter) {
  return make_event(EventKey{time, 0, 1, counter});
}

auto fields(const EventKey& k) {
  return std::make_tuple(k.time, k.sent, k.origin, k.counter);
}

TEST(CalendarQueueTest, PopsAcrossTheHorizonInTimeSeqOrder) {
  // One event one tick inside the horizon, one exactly on it (overflow),
  // one far beyond: the seam between tiers must be invisible.
  CalendarQueue q;
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  q.push(make_event(horizon, 1));      // overflow tier
  q.push(make_event(horizon - 1, 2));  // last ring bucket
  q.push(make_event(3 * horizon, 3));  // deep overflow
  q.push(make_event(horizon, 4));      // overflow, same tick as counter 1

  EXPECT_EQ(q.next_time(), horizon - 1);
  EXPECT_EQ(q.pop().key.counter, 2u);
  EXPECT_EQ(q.pop().key.counter, 1u);
  EXPECT_EQ(q.pop().key.counter, 4u);
  EXPECT_EQ(q.pop().key.counter, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, MigratedAndDirectPushesShareABucketInSeqOrder) {
  // An overflow event migrates into a bucket as the cursor advances; later
  // direct pushes at the same timestamp land in the same bucket, one with
  // a larger and one with a smaller key than the migrated event. The
  // bucket must pop all three in key order.
  CalendarQueue q;
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  const SimTime target = horizon + 10;
  q.push(make_event(target, 2));  // beyond horizon: overflow tier
  q.push(make_event(20, 9));
  EXPECT_EQ(q.pop().key.counter, 9u);  // cursor -> 20; target now in
                                       // horizon, so the event migrated
  q.push(make_event(target, 3));  // direct push, larger key
  q.push(make_event(target, 1));  // direct push, smaller key
  EXPECT_EQ(q.pop().key.counter, 1u);
  EXPECT_EQ(q.pop().key.counter, 2u);
  EXPECT_EQ(q.pop().key.counter, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, CursorJumpOverAnEmptyGap) {
  // With the ring drained, pop() jumps the cursor to the overflow top
  // instead of scanning the gap; ordering must survive the jump even when
  // the gap is many full ring revolutions long.
  CalendarQueue q;
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  q.push(make_event(5, 1));
  q.push(make_event(1'000 * horizon + 7, 2));
  q.push(make_event(1'000 * horizon + 7, 3));
  q.push(make_event(1'000 * horizon + 8, 4));
  EXPECT_EQ(q.pop().key.counter, 1u);
  EXPECT_EQ(q.next_time(), 1'000 * horizon + 7);
  EXPECT_EQ(q.pop().key.counter, 2u);
  // Pushes after the jump land relative to the advanced cursor.
  q.push(make_event(1'000 * horizon + 8, 5));
  EXPECT_EQ(q.pop().key.counter, 3u);
  EXPECT_EQ(q.pop().key.counter, 4u);
  EXPECT_EQ(q.pop().key.counter, 5u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, OutOfOrderSameTickPushesPopInKeyOrder) {
  // Same tick, keys pushed in descending order across every key word:
  // the bucket sorts before its first pop.
  CalendarQueue q;
  q.push(make_event(EventKey{7, 6, 3, 0}));
  q.push(make_event(EventKey{7, 6, 2, 5}));
  q.push(make_event(EventKey{7, 6, 2, 4}));
  q.push(make_event(EventKey{7, 2, 9, 9}));
  q.push(make_event(EventKey{7, 2, kEngineOrigin, 1}));
  EXPECT_EQ(fields(q.peek()->key), fields(EventKey{7, 2, kEngineOrigin, 1}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 2, kEngineOrigin, 1}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 2, 9, 9}));
  // A push into the bucket being drained (a zero-delay effect at tick 7)
  // with a key below the remaining events pops before them.
  q.push(make_event(EventKey{7, 6, 1, 0}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 6, 1, 0}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 6, 2, 4}));
  // ... and one above them pops after.
  q.push(make_event(EventKey{7, 7, 1, 0}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 6, 2, 5}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 6, 3, 0}));
  EXPECT_EQ(fields(q.pop().key), fields(EventKey{7, 7, 1, 0}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, RandomizedCrossTierDifferential) {
  // Differential fuzz against a std::set ordered by EventKey. Push times
  // cluster around the wrap boundary (cursor + kRingSize +- a few ticks)
  // so a large fraction of events starts in the overflow tier and migrates
  // across the seam mid-run; a tenth land at the cursor itself, i.e. in
  // the bucket being drained. Send times and origins are random, so keys
  // at one tick arrive out of order. Interleaved peeks must agree with the
  // reference at every step.
  const SimTime horizon = static_cast<SimTime>(CalendarQueue::kRingSize);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(0xCA1E'0000 + seed);
    CalendarQueue q;
    std::set<EventKey> reference;
    std::uint64_t next_counter = 0;
    SimTime cursor = 0;  // mirrors the queue's floor: last popped time
    for (int op = 0; op < 20'000; ++op) {
      const bool do_push = reference.empty() || rng.chance(0.55);
      if (do_push) {
        // Mostly boundary-hugging offsets, occasionally deep overflow or
        // same-tick (delay 0).
        SimTime offset;
        switch (rng.uniform(10)) {
          case 0:
            offset = 0;
            break;
          case 1:
            offset = horizon * static_cast<SimTime>(2 + rng.uniform(5));
            break;
          default:
            offset = horizon - 4 + static_cast<SimTime>(rng.uniform(8));
            break;
        }
        EventKey key;
        key.time = cursor + offset;
        key.sent = cursor - static_cast<SimTime>(
                                rng.uniform(static_cast<std::uint64_t>(
                                    std::min<SimTime>(cursor, 3) + 1)));
        key.origin = rng.uniform(6);
        key.counter = next_counter++;
        q.push(make_event(key));
        reference.insert(key);
      } else {
        ASSERT_EQ(q.next_time(), reference.begin()->time) << "op " << op;
        ASSERT_EQ(fields(q.peek()->key), fields(*reference.begin()))
            << "op " << op;
        const Event e = q.pop();
        ASSERT_EQ(fields(e.key), fields(*reference.begin())) << "op " << op;
        cursor = e.key.time;
        reference.erase(reference.begin());
      }
      ASSERT_EQ(q.size(), reference.size());
      ASSERT_EQ(q.empty(), reference.empty());
    }
    // Drain: the tail must come out in exact key order too.
    while (!reference.empty()) {
      const Event e = q.pop();
      EXPECT_EQ(fields(e.key), fields(*reference.begin()));
      reference.erase(reference.begin());
    }
    EXPECT_TRUE(q.empty());
  }
}

}  // namespace
}  // namespace scup::sim
