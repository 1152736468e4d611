#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <set>

#include "sim/wire.hpp"

namespace scup::sim {
namespace {

struct PingMsg final : Message {
  explicit PingMsg(int h) : hops(h) {}
  int hops;
  std::string type_name() const override { return "test.ping"; }
  std::uint16_t wire_type() const override { return kWireTestTypeFirst; }
  void wire_encode(WireWriter& w) const override {
    w.u32(static_cast<std::uint32_t>(hops));
  }
};

/// Bounces a ping back and forth `max_hops` times.
class PingPong : public Process {
 public:
  PingPong(ProcessId peer, bool initiator, int max_hops)
      : peer_(peer), initiator_(initiator), max_hops_(max_hops) {}

  void start() override {
    if (initiator_) send(peer_, make_message<PingMsg>(1));
  }
  void on_message(ProcessId from, const MessagePtr& msg) override {
    last_sender_ = from;
    const auto& ping = dynamic_cast<const PingMsg&>(*msg);
    received_ = ping.hops;
    if (ping.hops < max_hops_) {
      send(peer_, make_message<PingMsg>(ping.hops + 1));
    }
  }

  int received_ = 0;
  ProcessId last_sender_ = kInvalidProcess;

 private:
  ProcessId peer_;
  bool initiator_;
  int max_hops_;
};

class TimerProcess : public Process {
 public:
  void start() override {
    set_timer(1, 50);
    set_timer(2, 100);
    set_timer(3, 10);
    cancel_timer(3);
  }
  void on_timer(int timer_id) override {
    fired_.push_back({timer_id, now()});
    if (timer_id == 1 && reps_ < 3) {
      ++reps_;
      set_timer(1, 50);
    }
  }
  void on_message(ProcessId, const MessagePtr&) override {}

  std::vector<std::pair<int, SimTime>> fired_;
  int reps_ = 0;
};

NetworkConfig sync_net() {
  NetworkConfig net;
  net.gst = 0;
  net.min_delay = 1;
  net.max_delay = 5;
  net.seed = 42;
  return net;
}

TEST(SimulationTest, PingPongDelivery) {
  Simulation sim(2, sync_net());
  auto& a = sim.emplace_process<PingPong>(0, 1, true, 10);
  auto& b = sim.emplace_process<PingPong>(1, 0, false, 10);
  sim.start();
  sim.run_for(10'000);
  EXPECT_EQ(b.received_, 9);   // b receives odd hops 1..9
  EXPECT_EQ(a.received_, 10);  // a receives even hops 2..10
  EXPECT_EQ(a.last_sender_, 1u);
  EXPECT_EQ(b.last_sender_, 0u);
  EXPECT_EQ(sim.metrics().messages_sent, 10u);
  // Each PingMsg frame is a u16 type header plus a u32 hop count.
  EXPECT_EQ(sim.metrics().bytes_sent, 10u * 6u);
  EXPECT_EQ(sim.metrics().messages_by_type().at("test.ping"), 10u);
}

TEST(SimulationTest, RunUntilPredicate) {
  Simulation sim(2, sync_net());
  auto& a = sim.emplace_process<PingPong>(0, 1, true, 100);
  sim.emplace_process<PingPong>(1, 0, false, 100);
  sim.start();
  const bool ok = sim.run_until([&] { return a.received_ >= 6; }, 100'000);
  EXPECT_TRUE(ok);
  EXPECT_GE(a.received_, 6);
  EXPECT_LT(a.received_, 100);  // stopped early
}

TEST(SimulationTest, RunUntilDeadlineRespected) {
  Simulation sim(2, sync_net());
  sim.emplace_process<PingPong>(0, 1, true, 1'000'000);
  sim.emplace_process<PingPong>(1, 0, false, 1'000'000);
  sim.start();
  const bool ok = sim.run_until([] { return false; }, 500);
  EXPECT_FALSE(ok);
  EXPECT_LE(sim.now(), 500);
}

TEST(SimulationTest, TimersFireAndCancel) {
  Simulation sim(1, sync_net());
  auto& p = sim.emplace_process<TimerProcess>(0);
  sim.start();
  sim.run_for(10'000);
  // Timer 3 was cancelled; timer 1 fires 4 times (initial + 3 reps);
  // timer 2 once.
  int t1 = 0, t2 = 0, t3 = 0;
  for (auto& [tid, when] : p.fired_) {
    if (tid == 1) ++t1;
    if (tid == 2) ++t2;
    if (tid == 3) ++t3;
  }
  EXPECT_EQ(t1, 4);
  EXPECT_EQ(t2, 1);
  EXPECT_EQ(t3, 0);
  // Firing times are exact (timers are not subject to network delay).
  EXPECT_EQ(p.fired_[0].first, 1);
  EXPECT_EQ(p.fired_[0].second, 50);
}

TEST(SimulationTest, RearmingTimerReplacesPending) {
  class Rearm : public Process {
   public:
    void start() override {
      set_timer(7, 100);
      set_timer(7, 300);  // replaces the 100-tick firing
    }
    void on_timer(int) override { fires_.push_back(now()); }
    void on_message(ProcessId, const MessagePtr&) override {}
    std::vector<SimTime> fires_;
  };
  Simulation sim(1, sync_net());
  auto& p = sim.emplace_process<Rearm>(0);
  sim.start();
  sim.run_for(1'000);
  ASSERT_EQ(p.fires_.size(), 1u);
  EXPECT_EQ(p.fires_[0], 300);
}

TEST(SimulationTest, PartialSynchronyDelaysShrinkAfterGst) {
  NetworkConfig net;
  net.gst = 10'000;
  net.min_delay = 1;
  net.max_delay = 5;
  net.pre_gst_max_delay = 2'000;
  net.seed = 7;

  // Measure delivery delays before and after GST with one-shot sends.
  struct Recorder : Process {
    void on_message(ProcessId, const MessagePtr&) override {
      deliveries_.push_back(now());
    }
    std::vector<SimTime> deliveries_;
  };
  struct Sender : Process {
    explicit Sender(SimTime gst) : gst_(gst) {}
    void start() override {
      for (int i = 0; i < 20; ++i) send(1, make_message<PingMsg>(i));
      set_timer(1, gst_ + 1);
    }
    void on_timer(int) override {
      send_time_post_ = now();
      for (int i = 0; i < 20; ++i) send(1, make_message<PingMsg>(i));
    }
    void on_message(ProcessId, const MessagePtr&) override {}
    SimTime gst_;
    SimTime send_time_post_ = 0;
  };

  Simulation sim(2, net);
  auto& sender = sim.emplace_process<Sender>(0, net.gst);
  auto& recorder = sim.emplace_process<Recorder>(1);
  sim.start();
  sim.run_for(100'000);
  ASSERT_EQ(recorder.deliveries_.size(), 40u);
  SimTime max_pre = 0, max_post = 0;
  for (SimTime t : recorder.deliveries_) {
    if (t <= sender.send_time_post_) {
      max_pre = std::max(max_pre, t);
    } else {
      max_post = std::max(max_post, t - sender.send_time_post_);
    }
  }
  EXPECT_GT(max_pre, net.max_delay);  // some pre-GST message was slow
  EXPECT_LE(max_post, net.max_delay);
}

TEST(SimulationTest, InstallationErrors) {
  Simulation sim(2, sync_net());
  sim.emplace_process<PingPong>(0, 1, true, 1);
  EXPECT_THROW(sim.start(), std::logic_error);  // process 1 missing
  sim.emplace_process<PingPong>(1, 0, false, 1);
  sim.start();
  EXPECT_THROW(sim.start(), std::logic_error);  // double start
  EXPECT_THROW(sim.emplace_process<PingPong>(1, 0, false, 1),
               std::logic_error);  // install after start
}

TEST(SimulationTest, DeterministicGivenSeed) {
  auto run = [] {
    Simulation sim(2, sync_net());
    sim.emplace_process<PingPong>(0, 1, true, 50);
    sim.emplace_process<PingPong>(1, 0, false, 50);
    sim.start();
    sim.run_for(1'000'000);
    return sim.now();
  };
  EXPECT_EQ(run(), run());
}

TEST(CalendarQueueTest, PopsInTimeThenSeqOrderAcrossTiers) {
  // An overflow-tier event and later direct pushes can land on the same
  // tick, in any key order, and pushes can land in the bucket being
  // drained; every pop must return the smallest key queued, checked
  // against a std::set over EventKey.
  constexpr SimTime kFar = static_cast<SimTime>(CalendarQueue::kRingSize) + 76;
  CalendarQueue q;
  std::set<EventKey> reference;
  auto push = [&](EventKey key) {
    Event e;
    e.key = key;
    e.kind = EventKind::kTimer;
    q.push(std::move(e));
    reference.insert(key);
  };
  auto pop_matches = [&] {
    const EventKey want = *reference.begin();
    reference.erase(reference.begin());
    return q.pop().key == want;
  };
  push({10, 0, 1, 0});
  push({kFar, 5, 2, 0});  // beyond the horizon: overflow tier
  EXPECT_EQ(q.next_time(), 10);
  EXPECT_TRUE(pop_matches());
  push({600, 10, 3, 0});
  push({600, 10, 1, 1});  // same tick, smaller origin, pushed later
  EXPECT_TRUE(pop_matches());  // cursor at 600: kFar is inside the horizon
  push({600, 600, 1, 2});  // zero-delay push into the bucket being drained
  EXPECT_TRUE(pop_matches());
  EXPECT_TRUE(pop_matches());
  push({kFar, 600, 2, 1});  // same tick as the migrated overflow event
  push({kFar, 5, 1, 3});    // ... and one that sorts before it
  while (!reference.empty()) EXPECT_TRUE(pop_matches());
  EXPECT_TRUE(q.empty());
}

TEST(NotaryTest, SignVerifyRoundtrip) {
  Notary notary(4, 99);
  const auto t = notary.sign(2, 0xDEADBEEF);
  EXPECT_TRUE(notary.verify(2, 0xDEADBEEF, t));
  EXPECT_FALSE(notary.verify(1, 0xDEADBEEF, t));   // wrong signer
  EXPECT_FALSE(notary.verify(2, 0xDEADBEEE, t));   // wrong statement
  EXPECT_FALSE(notary.verify(2, 0xDEADBEEF, t ^ 1));  // tampered token
  EXPECT_FALSE(notary.verify(9, 0xDEADBEEF, t));   // unknown signer
}

TEST(NotaryTest, DistinctSignersDistinctTokens) {
  Notary notary(4, 99);
  EXPECT_NE(notary.sign(0, 1), notary.sign(1, 1));
  EXPECT_NE(notary.sign(0, 1), notary.sign(0, 2));
}

}  // namespace
}  // namespace scup::sim
