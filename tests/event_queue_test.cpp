// Discrete-event kernel: ordering, determinism, run_until semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace arcane::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, SameCycleIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(7, [&order, i] { order.push_back(i); });
  }
  q.run_until(7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule(5, [&] { ++fired; });
  q.schedule(15, [&] { ++fired; });
  q.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 15u);
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  std::vector<Cycle> times;
  q.schedule(1, [&] {
    times.push_back(q.now());
    q.schedule(4, [&] { times.push_back(q.now()); });
  });
  q.run_until(10);
  EXPECT_EQ(times, (std::vector<Cycle>{1, 4}));
}

TEST(EventQueue, RunOneAdvancesNow) {
  EventQueue q;
  q.schedule(42, [] {});
  EXPECT_EQ(q.run_one(), 42u);
  EXPECT_EQ(q.now(), 42u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SchedulingInThePastAsserts) {
  EventQueue q;
  q.schedule(10, [] {});
  q.run_until(10);
  EXPECT_THROW(q.schedule(5, [] {}), AssertionError);
}

TEST(EventQueue, RunAllDrains) {
  EventQueue q;
  int n = 0;
  q.schedule(1, [&] {
    ++n;
    q.schedule(100, [&] { ++n; });
  });
  q.run_all();
  EXPECT_EQ(n, 2);
  EXPECT_TRUE(q.empty());
}

// ---- calendar-kernel determinism (the bit-exactness contract) ----

// Same-cycle FIFO must survive the far-event path: events scheduled for a
// cycle far beyond the calendar window migrate from the overflow heap into
// their bucket when the window advances, and must still run in scheduling
// order — including against events scheduled directly into the bucket
// after the window moved.
TEST(EventQueue, SameCycleFifoAcrossFarHorizon) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5000, [&] { order.push_back(0); });  // far at schedule time
  q.schedule(5000, [&] { order.push_back(1); });  // far, same cycle
  q.schedule(10, [&] { order.push_back(2); });
  q.run_until(4900);  // window now ends past 5000: the far pair migrated
  q.schedule(5000, [&] { order.push_back(3); });  // appended to the bucket
  q.run_until(6000);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3}));
}

// Interleaved near/far schedules drain in exact (when, seq) order.
TEST(EventQueue, MixedHorizonGlobalOrder) {
  EventQueue q;
  std::vector<std::pair<Cycle, int>> ran;
  int seq = 0;
  // Deterministic pseudo-random mix of deltas spanning the 256-cycle
  // calendar window and the overflow heap.
  std::uint64_t rng = 12345;
  std::vector<std::pair<Cycle, int>> expected;
  for (int i = 0; i < 200; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const Cycle when = (rng >> 33) % 3000;  // some near, some far
    expected.emplace_back(when, seq);
    q.schedule(when, [&ran, when, s = seq] { ran.emplace_back(when, s); });
    ++seq;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;  // stable = seq tie-break
                   });
  q.run_all();
  EXPECT_EQ(ran, expected);
  EXPECT_EQ(q.executed(), 200u);
}

// Events scheduled for the *current* cycle mid-drain run within the same
// run_until call, after every already-queued same-cycle event.
TEST(EventQueue, ScheduleDuringDrainSameCycle) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(7, [&] {
    order.push_back(0);
    q.schedule(7, [&] { order.push_back(2); });
  });
  q.schedule(7, [&] { order.push_back(1); });
  q.run_until(7);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 7u);
}

// run_one must pull from the overflow heap when the calendar ring is empty
// and keep (when, seq) order across the migration.
TEST(EventQueue, RunOneAcrossFarHorizon) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(100000, [&] { order.push_back(1); });
  q.schedule(99999, [&] { order.push_back(0); });
  q.schedule(100000, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_one(), 99999u);
  EXPECT_EQ(q.run_one(), 100000u);
  EXPECT_EQ(q.run_one(), 100000u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 100000u);
}

// pending()/executed()/next_time() bookkeeping across both storage levels.
TEST(EventQueue, CountsSpanBothLevels) {
  EventQueue q;
  for (Cycle c : {3u, 3u, 400u, 90000u}) q.schedule(c, [] {});
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.next_time(), 3u);
  q.run_until(3);
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(q.executed(), 2u);
  EXPECT_EQ(q.next_time(), 400u);
  q.run_all();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.executed(), 4u);
}

// A long quiet gap (now far beyond every bucket) must not confuse the
// calendar window: schedules after the gap still land and order correctly.
TEST(EventQueue, QuietGapThenBurst) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(0); });
  q.run_until(1000000);  // empty drain far past the window
  q.schedule(1000001, [&] { order.push_back(1); });
  q.schedule(1000300, [&] { order.push_back(2); });  // beyond the new window
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// ---- seeded stress against a std::priority_queue reference ----

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A delta mix spanning the same cycle, the calendar window, just past it
/// (far events that migrate soon) and far beyond it.
Cycle pick_delta(std::uint64_t r) {
  switch (r % 8) {
    case 0: return 0;
    case 1: case 2: case 3: return (r >> 8) % 256;
    case 4: case 5: case 6: return 256 + (r >> 8) % 1500;
    default: return 5000 + (r >> 8) % 50000;
  }
}

/// The (when, seq) priority-queue kernel the calendar queue must match.
/// Events are ids; running one calls on_run(id).
class ReferenceQueue {
 public:
  std::function<void(std::uint64_t)> on_run;

  void schedule(Cycle when, std::uint64_t id) {
    heap_.emplace(when, seq_++, id);
  }
  void run_until(Cycle t) {
    while (!heap_.empty() && std::get<0>(heap_.top()) <= t) run_top();
    now_ = std::max(now_, t);
  }
  void run_one() { run_top(); }
  void run_all() {
    while (!heap_.empty()) run_top();
  }
  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }
  Cycle now() const { return now_; }

 private:
  using Key = std::tuple<Cycle, std::uint64_t, std::uint64_t>;  // when, seq, id
  void run_top() {
    const auto [when, seq, id] = heap_.top();
    heap_.pop();
    now_ = std::max(now_, when);
    on_run(id);
  }
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
  std::uint64_t seq_ = 0;
  Cycle now_ = 0;
};

/// EventQueue behind the same id interface.
class CalendarQueue {
 public:
  std::function<void(std::uint64_t)> on_run;

  void schedule(Cycle when, std::uint64_t id) {
    q_.schedule(when, [this, id] { on_run(id); });
  }
  void run_until(Cycle t) { q_.run_until(t); }
  void run_one() { q_.run_one(); }
  void run_all() { q_.run_all(); }
  bool empty() const { return q_.empty(); }
  std::size_t pending() const { return q_.pending(); }
  Cycle now() const { return q_.now(); }

 private:
  EventQueue q_;
};

struct StressTrace {
  std::vector<std::pair<std::uint64_t, Cycle>> ran;  // (event id, now)
  std::vector<std::pair<Cycle, std::size_t>> steps;  // (now, pending)
  std::uint64_t far_scheduled = 0;
  std::size_t peak_pending = 0;
};

/// Replay the seeded workload on `Queue`. The sequence of external
/// schedule and run calls comes from `seed`; event k (the k-th scheduled)
/// spawns up to two children as a pure function of (seed, k) while the
/// event budget lasts.
template <typename Queue>
StressTrace replay_stress(std::uint64_t seed) {
  constexpr std::uint64_t kBudget = 20000;
  Queue q;
  StressTrace tr;
  std::uint64_t scheduled = 0;
  auto schedule = [&](Cycle when) {
    if (when >= q.now() + 256) ++tr.far_scheduled;
    q.schedule(when, scheduled++);
    tr.peak_pending = std::max(tr.peak_pending, q.pending());
  };
  q.on_run = [&](std::uint64_t k) {
    tr.ran.emplace_back(k, q.now());
    const std::uint64_t h = splitmix64(seed ^ (k * 0x100000001B3ull));
    for (unsigned i = 0; i < h % 3 && scheduled < kBudget; ++i) {
      schedule(q.now() + pick_delta(splitmix64(h + i)));
    }
  };
  std::uint64_t r = seed;
  for (int step = 0; step < 4000; ++step) {
    r = splitmix64(r);
    switch (r % 3) {
      case 0:
        for (unsigned i = 0; i <= (r >> 8) % 4 && scheduled < kBudget; ++i) {
          schedule(q.now() + pick_delta(splitmix64(r + i)));
        }
        break;
      case 1:
        if (!q.empty()) q.run_one();
        break;
      default:
        q.run_until(q.now() + (r >> 8) % 3000);
        break;
    }
    tr.steps.emplace_back(q.now(), q.pending());
  }
  q.run_all();
  tr.steps.emplace_back(q.now(), q.pending());
  return tr;
}

// Callbacks schedule events while far events migrate, and a seeded script
// interleaves external schedules, run_one and run_until. The calendar
// queue must run the same events in the same order at the same times as a
// std::priority_queue on (when, seq). Far events come and go in waves: the
// workload parks several times more far events than are ever pending at
// once, so slab slots freed by migration are reused over and over.
TEST(EventQueue, SeededStressMatchesPriorityQueueReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 7ull, 1013ull}) {
    const StressTrace got = replay_stress<CalendarQueue>(seed);
    const StressTrace want = replay_stress<ReferenceQueue>(seed);
    EXPECT_EQ(got.ran, want.ran) << "seed " << seed;
    EXPECT_EQ(got.steps, want.steps) << "seed " << seed;
    EXPECT_EQ(got.ran.size(), 20000u) << "seed " << seed;
    EXPECT_GT(got.far_scheduled, 3 * got.peak_pending) << "seed " << seed;
  }
}

}  // namespace
}  // namespace arcane::sim
