// Unit tests for the discrete-event simulator: ordering, cancellation,
// periodic tasks, determinism.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/clock.h"

namespace eden::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(30), [&] { order.push_back(3); });
  s.schedule_at(msec(10), [&] { order.push_back(1); });
  s.schedule_at(msec(20), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Simulator, EqualTimestampsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(msec(5), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  SimTime fired_at = -1;
  s.schedule_at(msec(10), [&] {
    s.schedule_after(msec(5), [&] { fired_at = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired_at, msec(15));
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator s;
  s.run_until(msec(100));
  SimTime fired_at = -1;
  s.schedule_at(msec(1), [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_EQ(fired_at, msec(100));
}

TEST(Simulator, NegativeDelayClampsToZero) {
  Simulator s;
  SimTime fired_at = -1;
  s.schedule_after(msec(-50), [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_EQ(fired_at, 0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel is a no-op
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterRunReturnsFalse) {
  Simulator s;
  const EventId id = s.schedule_at(msec(1), [] {});
  s.run_all();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int fired = 0;
  s.schedule_at(msec(10), [&] { ++fired; });
  s.schedule_at(msec(20), [&] { ++fired; });
  s.schedule_at(msec(21), [&] { ++fired; });
  s.run_until(msec(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), msec(20));
  s.run_until(msec(30));
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWithEmptyQueue) {
  Simulator s;
  s.run_until(sec(5));
  EXPECT_EQ(s.now(), sec(5));
}

TEST(Simulator, EventsScheduledDuringRunAreProcessed) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(msec(1), recurse);
  };
  s.schedule_at(0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.events_processed(), 5u);
}

TEST(Simulator, RunAllThrowsOnRunaway) {
  Simulator s;
  std::function<void()> forever = [&] { s.schedule_after(1, forever); };
  s.schedule_at(0, forever);
  EXPECT_THROW(s.run_all(1000), std::runtime_error);
}

TEST(Periodic, FiresEveryPeriodUntilStopped) {
  Simulator s;
  int count = 0;
  Periodic p(s, msec(10), msec(10), [&] { ++count; });
  s.run_until(msec(55));
  EXPECT_EQ(count, 5);  // t = 10, 20, 30, 40, 50
  p.stop();
  s.run_until(msec(200));
  EXPECT_EQ(count, 5);
}

TEST(Periodic, DestructorStops) {
  Simulator s;
  int count = 0;
  {
    Periodic p(s, 0, msec(10), [&] { ++count; });
    s.run_until(msec(25));
  }
  s.run_until(msec(100));
  EXPECT_EQ(count, 3);  // t = 0, 10, 20
}

TEST(Periodic, CanStopItselfFromCallback) {
  Simulator s;
  int count = 0;
  Periodic p;
  p = Periodic(s, 0, msec(1), [&] {
    if (++count == 3) p.stop();
  });
  s.run_until(sec(1));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PendingExcludesCancelledImmediately) {
  Simulator s;
  const EventId a = s.schedule_at(msec(10), [] {});
  s.schedule_at(msec(20), [] {});
  s.schedule_at(msec(30), [] {});
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_TRUE(s.cancel(a));
  // The cancelled event leaves pending() at once, not when its timestamp
  // is reached.
  EXPECT_EQ(s.pending(), 2u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, TombstonesDoNotAccumulate) {
  Simulator s;
  // A persistent pool plus heavy cancel churn: the timeout-rearm pattern
  // that made the old engine's queue grow without bound.
  std::vector<EventId> persistent;
  for (int i = 0; i < 100; ++i) {
    persistent.push_back(s.schedule_at(sec(1000) + i, [] {}));
  }
  for (int i = 0; i < 100'000; ++i) {
    const EventId id = s.schedule_at(msec(100) + i % 50, [] {});
    ASSERT_TRUE(s.cancel(id));
    if (i % 10'000 == 0) {
      // live + not-yet-purged tombstones stays O(pending()).
      ASSERT_LE(s.queued_entries(), 300u);
    }
  }
  EXPECT_EQ(s.pending(), 100u);
  EXPECT_LE(s.queued_entries(), 300u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, BucketStorageStaysProportionalToQueue) {
  // Timeout churn: 1,000 clients tick every 100 ms at phases 100 us
  // apart; each tick cancels the client's 300 ms timeout and arms a new
  // one. About 4,000 entries are queued at the peak.
  constexpr int kClients = 1000;
  constexpr SimDuration kPeriod = msec(100);
  constexpr SimDuration kTimeout = msec(300);
  Simulator s;
  std::vector<EventId> timeout(kClients, kInvalidEvent);
  struct Tick {
    Simulator* s;
    std::vector<EventId>* timeout;
    int client;
    void operator()() const {
      EventId& armed = (*timeout)[client];
      s->cancel(armed);
      armed = s->schedule_after(kTimeout, [] {});
      s->schedule_after(kPeriod, *this);
    }
  };
  for (int i = 0; i < kClients; ++i) {
    s.schedule_at(i * (kPeriod / kClients), Tick{&s, &timeout, i});
  }
  // The bound follows from the design, not from a measurement; a bucket's
  // buffer grows by doubling, so it stays under twice the most it held.
  // Coarse buckets (level >= 3) give a buffer of more than 64 entries back
  // when the clock reaches them (here each still holds live timeouts then,
  // so none is emptied by a sweep first). So beyond 64 entries each (8
  // levels x 64 buckets), they hold only entries received since: each is
  // due after the bucket-0 time and was scheduled at most kTimeout before
  // it, i.e. within the last kTimeout + kPeriod, which is <= 5 periods of
  // 2 entries per client. The fine buffers (bucket 0 and 64 per level
  // 0..2) keep the most they ever held: at most two entries per client
  // phase (its tick and its timeout, which lands on the same phase),
  // phases 100 us apart, so a level-2 bucket (4096 us) holds <= 2 x 41 =
  // 82 (capacity 128) and the others (<= 64 us) <= 2. The old engine
  // passed the largest buffer it had redistributed from bucket to bucket
  // and retained 130x the peak queue (~4,000 entries) here.
  constexpr std::size_t kCoarse = 2 * (5 * 2 * kClients) + 8 * 64 * 64;
  constexpr std::size_t kFine = 64 * 128 + (1 + 64 + 64) * 2;
  std::size_t peak = 0;
  for (SimTime t = 0; t <= sec(40); t += msec(10)) {
    s.run_until(t);
    peak = std::max(peak, s.queued_entries());
    ASSERT_LE(s.bucket_capacity(), kCoarse + kFine) << "at t=" << t;
  }
  EXPECT_GE(peak, 2u * kClients);  // every tick and timeout was queued
  EXPECT_EQ(s.pending(), 2u * kClients);
}

TEST(Simulator, StaleHandleAfterSlotReuse) {
  Simulator s;
  bool b_fired = false;
  const EventId a = s.schedule_at(msec(10), [] {});
  ASSERT_TRUE(s.cancel(a));
  // B reuses A's arena slot; A's stale handle must not be able to touch it.
  const EventId b = s.schedule_at(msec(20), [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));
  s.run_all();
  EXPECT_TRUE(b_fired);
}

TEST(Simulator, RescheduleIntoRunUntilGap) {
  // run_until can advance now() into a gap before the next queued batch;
  // a schedule into that gap must still fire before the later batch.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(msec(100), [&] { order.push_back(100); });
  s.schedule_at(msec(300), [&] { order.push_back(300); });
  s.run_until(msec(200));
  s.schedule_at(msec(250), [&] { order.push_back(250); });
  s.schedule_at(msec(220), [&] { order.push_back(220); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{100, 220, 250, 300}));
}

// ---- differential test against a reference ordered model ----

// The engine's ordering contract as one ordered map: key (time, lane, a, b)
// with deliveries (lane 0) before regular events (lane 1) at equal times,
// deliveries by canonical key (a, b) = (hi, lo), regular events by FIFO
// scheduling sequence a.
class ReferenceEngine {
 public:
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  EventId schedule_at(SimTime t, std::function<void()> fn) {
    const Key key{std::max(t, now_), 1, next_seq_++, 0};
    queue_.emplace(key, std::move(fn));
    handles_.push_back(key);
    return handles_.size();
  }
  bool cancel(EventId id) { return queue_.erase(handles_[id - 1]) > 0; }
  void schedule_delivery(SimTime t, Simulator::DeliveryKey k,
                         std::function<void()> fn) {
    queue_.emplace(Key{std::max(t, now_), 0, k.hi, k.lo}, std::move(fn));
  }
  void run_until(SimTime t) {
    while (!queue_.empty() && std::get<0>(queue_.begin()->first) <= t) {
      auto node = queue_.extract(queue_.begin());
      now_ = std::get<0>(node.key());
      node.mapped()();
    }
    now_ = std::max(now_, t);
  }

 private:
  using Key = std::tuple<SimTime, int, std::uint64_t, std::uint64_t>;
  std::map<Key, std::function<void()>> queue_;
  std::vector<Key> handles_;
  std::uint64_t next_seq_{0};
  SimTime now_{0};
};

// Drives either engine through the same randomized script and logs every
// pop as (event number, time) plus every cancel's result. Chains of events
// keep a steady population; chain links arm far-future timeouts and cancel
// earlier ones; leaves fired from the delivery lane schedule regular events
// a few microseconds out, below the regular queue's current minimum; and
// between run_until() calls the script schedules into the gap the clock
// just skipped. Any divergence in pop order shows up as a log mismatch
// (and desynchronizes the shared Rng from there on).
template <typename Engine>
class ChurnScript {
 public:
  ChurnScript(Engine& engine, std::uint64_t seed, bool deliveries)
      : engine_(engine), rng_(seed), deliveries_(deliveries) {}

  std::vector<std::int64_t> run() {
    // A large far-future backlog of timeouts, nearly all cancelled.
    for (int i = 0; i < 20'000; ++i) {
      const EventId id = engine_.schedule_at(
          sec(10) + draw(sec(50)), [this, n = next_event_++] { record(n); });
      if (i % 16 != 0) log_.push_back(engine_.cancel(id) ? 1 : 0);
    }
    for (int chain = 0; chain < 96; ++chain) link(draw(msec(5)));
    for (SimTime t = 0; t < kHorizon;) {
      t += 1 + draw(msec(3));
      engine_.run_until(t);
      log_.push_back(-t);
      log_.push_back(static_cast<std::int64_t>(engine_.pending()));
      // The clock may now sit in a gap before the next queued batch.
      if (draw(2) == 0) spawn(t + draw(40), draw(4) == 0);
    }
    engine_.run_until(sec(100));
    log_.push_back(static_cast<std::int64_t>(engine_.pending()));
    return log_;
  }

 private:
  static constexpr SimTime kHorizon = sec(1);

  SimTime draw(SimTime bound) {
    return static_cast<SimTime>(rng_.next_u64() % static_cast<std::uint64_t>(bound));
  }
  void record(std::uint64_t n) {
    log_.push_back(static_cast<std::int64_t>(n));
    log_.push_back(engine_.now());
  }
  // One chain link: fires, schedules its successor, and sometimes arms a
  // far timeout, cancels an earlier one or drops a short-lived leaf.
  void link(SimTime at) {
    const std::uint64_t n = next_event_++;
    auto fn = [this, n] {
      record(n);
      if (engine_.now() >= kHorizon) return;
      const SimTime now = engine_.now();
      link(now + (draw(8) == 0 ? 0 : draw(msec(3))));
      switch (draw(4)) {
        case 0:
          timeouts_.push_back(engine_.schedule_at(
              now + sec(1) + draw(sec(29)),
              [this, m = next_event_++] { record(m); }));
          break;
        case 1:
          if (!timeouts_.empty()) {
            const auto pick = static_cast<std::size_t>(
                draw(static_cast<SimTime>(timeouts_.size())));
            log_.push_back(engine_.cancel(timeouts_[pick]) ? 3 : 2);
          }
          break;
        case 2:
          spawn(now + draw(500), true);
          break;
        default:
          break;
      }
    };
    if (deliveries_ && draw(2) == 0) {
      deliver(at, std::move(fn));
    } else {
      engine_.schedule_at(at, std::move(fn));
    }
  }
  // A leaf event; with `reschedules` it schedules one more regular event
  // a few microseconds after it fires.
  void spawn(SimTime at, bool reschedules) {
    const std::uint64_t n = next_event_++;
    auto fn = [this, n, reschedules] {
      record(n);
      if (!reschedules) return;
      engine_.schedule_at(engine_.now() + draw(50),
                          [this, m = next_event_++] { record(m); });
    };
    if (deliveries_ && draw(3) != 0) {
      deliver(at, std::move(fn));
    } else {
      engine_.schedule_at(at, std::move(fn));
    }
  }
  template <typename F>
  void deliver(SimTime at, F&& fn) {
    // Keys are unique (lo is a global counter), as SimNetwork's are.
    engine_.schedule_delivery(
        at, Simulator::DeliveryKey{static_cast<std::uint64_t>(draw(8)),
                                   next_delivery_++},
        std::forward<F>(fn));
  }

  Engine& engine_;
  Rng rng_;
  bool deliveries_;
  std::uint64_t next_event_{0};
  std::uint64_t next_delivery_{0};
  std::vector<EventId> timeouts_;
  std::vector<std::int64_t> log_;
};

TEST(SimulatorDifferential, MatchesReferenceModel) {
  for (const bool deliveries : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " deliveries " << deliveries);
      Simulator engine;
      ReferenceEngine reference;
      const auto got = ChurnScript<Simulator>(engine, seed, deliveries).run();
      const auto want =
          ChurnScript<ReferenceEngine>(reference, seed, deliveries).run();
      ASSERT_GT(want.size(), 200'000u);  // the script really ran
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "first divergence at log entry " << i;
      }
      EXPECT_EQ(engine.pending(), 0u);
    }
  }
}

TEST(Periodic, MoveConstructionTransfersOwnership) {
  Simulator s;
  int count = 0;
  Periodic a(s, msec(10), msec(10), [&] { ++count; });
  Periodic b(std::move(a));
  EXPECT_TRUE(b.running());
  EXPECT_FALSE(a.running());  // NOLINT(bugprone-use-after-move) inert
  s.run_until(msec(25));
  EXPECT_EQ(count, 2);
  b.stop();
  s.run_until(msec(100));
  EXPECT_EQ(count, 2);
}

TEST(Periodic, MoveAssignmentStopsReplacedTask) {
  Simulator s;
  int fast = 0;
  int slow = 0;
  Periodic target(s, msec(1), msec(1), [&] { ++fast; });
  Periodic replacement(s, msec(10), msec(10), [&] { ++slow; });
  target = std::move(replacement);
  s.run_until(msec(50));
  EXPECT_EQ(fast, 0);  // the replaced task never fires
  EXPECT_EQ(slow, 5);  // t = 10, 20, 30, 40, 50
}

TEST(SimScheduler, AdaptsSimulator) {
  Simulator s;
  SimScheduler sched(s);
  EXPECT_EQ(sched.now(), 0);
  bool fired = false;
  const EventId id = sched.schedule_after(msec(5), [&] { fired = true; });
  EXPECT_GT(id, 0u);
  s.run_until(msec(10));
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), msec(10));
}

}  // namespace
}  // namespace eden::sim
