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
  std::uint64_t beyond_horizon_scheduled = 0;  // >= kHorizon ahead
  std::size_t peak_pending = 0;
};

/// Replay the seeded workload on `Queue`. The sequence of external
/// schedule and run calls comes from `seed`; event k (the k-th scheduled)
/// spawns up to two children as a pure function of (seed, k) while the
/// event budget lasts. `Pick` maps a random word to a schedule distance.
template <typename Queue, Cycle (*Pick)(std::uint64_t) = pick_delta>
StressTrace replay_stress(std::uint64_t seed) {
  constexpr std::uint64_t kBudget = 20000;
  Queue q;
  StressTrace tr;
  std::uint64_t scheduled = 0;
  auto schedule = [&](Cycle when) {
    if (when >= q.now() + 256) ++tr.far_scheduled;
    if (when >= q.now() + EventQueue::kHorizon) ++tr.beyond_horizon_scheduled;
    q.schedule(when, scheduled++);
    tr.peak_pending = std::max(tr.peak_pending, q.pending());
  };
  q.on_run = [&](std::uint64_t k) {
    tr.ran.emplace_back(k, q.now());
    const std::uint64_t h = splitmix64(seed ^ (k * 0x100000001B3ull));
    for (unsigned i = 0; i < h % 3 && scheduled < kBudget; ++i) {
      schedule(q.now() + Pick(splitmix64(h + i)));
    }
  };
  std::uint64_t r = seed;
  for (int step = 0; step < 4000; ++step) {
    r = splitmix64(r);
    switch (r % 3) {
      case 0:
        for (unsigned i = 0; i <= (r >> 8) % 4 && scheduled < kBudget; ++i) {
          schedule(q.now() + Pick(splitmix64(r + i)));
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

// ---- the timing wheel's three levels ----

/// at() schedules an event at `when` under the next id and records (when,
/// id) in `expected` now and in `ran` once it runs; sort `expected` with
/// sort_by_time() before comparing.
struct OrderLog {
  std::vector<std::pair<Cycle, int>> ran, expected;
  int next_id = 0;

  void at(EventQueue& q, Cycle when) {
    expected.emplace_back(when, next_id);
    q.schedule(when, [this, when, id = next_id] { ran.emplace_back(when, id); });
    ++next_id;
  }
  void sort_by_time() {
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;  // stable = seq tie-break
                     });
  }
};

// The last cycle of a span and the first of the next, in the fine level,
// the coarse level and past the horizon, scheduled in both orders.
TEST(EventQueue, SpanBoundariesKeepGlobalOrder) {
  EventQueue q;
  OrderLog log;
  q.schedule(100, [] {});
  q.run_until(100);  // now lies mid-span
  for (const Cycle k : {1u, 2u, 3u, 255u, 256u, 257u, 300u}) {
    const Cycle edge = k * EventQueue::kSlots;
    log.at(q, edge);
    log.at(q, edge - 1);
    log.at(q, edge);
    log.at(q, edge - 1);
  }
  EXPECT_EQ(q.beyond_horizon(), 10u);  // 65,536 and later
  log.sort_by_time();
  q.run_all();
  EXPECT_EQ(log.ran, log.expected);
}

// At a span's first cycle the wheel reaches exactly kHorizon cycles: 65,535
// ahead is its last cycle, 65,536 and 65,537 ahead wait in the heap. From
// mid-span all three are beyond it.
TEST(EventQueue, HorizonEdgesPlaceAndOrder) {
  static_assert(EventQueue::kHorizon == 65536);
  EventQueue q;
  OrderLog log;
  for (const Cycle d : {65537u, 65536u, 65535u, 65536u, 65535u}) log.at(q, d);
  EXPECT_EQ(q.beyond_horizon(), 3u);
  log.sort_by_time();
  q.run_all();
  EXPECT_EQ(log.ran, log.expected);

  EventQueue mid;
  OrderLog mid_log;
  mid.schedule(1000, [] {});
  mid.run_until(1000);
  for (const Cycle d : {65537u, 65536u, 65535u}) mid_log.at(mid, 1000 + d);
  EXPECT_EQ(mid.beyond_horizon(), 3u);
  // A quiet stretch moves the horizon past them; later schedules for the
  // same cycles still run after them.
  mid.run_until(2000);
  for (const Cycle d : {65535u, 65537u}) mid_log.at(mid, 1000 + d);
  EXPECT_EQ(mid.beyond_horizon(), 0u);
  mid_log.sort_by_time();
  mid.run_all();
  EXPECT_EQ(mid_log.ran, mid_log.expected);
}

// A run_until that stops mid-span with the span's later events pending,
// then schedules into the current span, the next one and past the horizon.
TEST(EventQueue, RunUntilMidSpanThenScheduleEveryLevel) {
  EventQueue q;
  OrderLog log;
  for (const Cycle c : {1030u, 1100u, 1040u, 1100u}) log.at(q, c);
  q.run_until(1050);
  ASSERT_EQ(log.ran.size(), 2u);
  EXPECT_EQ(q.next_time(), 1100u);
  for (const Cycle c : {1100u, 1050u, 1279u, 1280u, 1050u + 70000u, 1281u,
                        1100u, 1050u + 65536u}) {
    log.at(q, c);
  }
  EXPECT_EQ(q.beyond_horizon(), 2u);
  log.sort_by_time();
  q.run_all();
  EXPECT_EQ(log.ran, log.expected);
  EXPECT_EQ(q.now(), 1050u + 70000u);
}

// A quiet gap longer than the horizon: the first schedule after it moves
// the wheel up to now, so near events land in the wheel, not the heap.
TEST(EventQueue, QuietGapLongerThanTheHorizon) {
  EventQueue q;
  OrderLog log;
  log.at(q, 1);
  log.at(q, 10 * EventQueue::kHorizon);
  q.run_until(3 * EventQueue::kHorizon + 17);
  EXPECT_EQ(q.beyond_horizon(), 1u);
  const Cycle now = q.now();
  for (const Cycle d : {5u, 300u, 0u, 5u, 65000u}) log.at(q, now + d);
  EXPECT_EQ(q.beyond_horizon(), 1u);
  EXPECT_EQ(q.next_time(), now);
  log.sort_by_time();
  q.run_all();
  EXPECT_EQ(log.ran, log.expected);
}

// An event parked beyond the horizon migrates as soon as its span enters
// it, so a later schedule for the same cycle, which goes straight to the
// coarse level, still runs after it.
TEST(EventQueue, ParkedEventsPrecedeLaterCoarseSchedules) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(70000, [&] { order.push_back(0); });  // beyond the horizon
  q.schedule(10000, [&] {
    q.schedule(70000, [&] { order.push_back(1); });  // within it now
  });
  q.run_until(10000);
  EXPECT_EQ(q.beyond_horizon(), 0u);
  q.schedule(70000, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// run_one through a coarse bucket's cascade: same-cycle events keep their
// order, and an event scheduled for the cascaded cycle runs after them.
TEST(EventQueue, RunOneAcrossACascade) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(600, [&] { order.push_back(0); });
  q.schedule(520, [&] {
    order.push_back(1);
    q.schedule(600, [&] { order.push_back(4); });
  });
  q.schedule(600, [&] { order.push_back(2); });
  q.schedule(70000, [&] { order.push_back(5); });
  q.schedule(600, [&] { order.push_back(3); });
  EXPECT_EQ(q.next_time(), 520u);
  EXPECT_EQ(q.run_one(), 520u);
  EXPECT_EQ(q.run_one(), 600u);
  EXPECT_EQ(q.run_one(), 600u);
  EXPECT_EQ(q.next_time(), 600u);
  EXPECT_EQ(q.run_one(), 600u);
  EXPECT_EQ(q.run_one(), 600u);
  EXPECT_EQ(q.next_time(), 70000u);
  EXPECT_EQ(q.run_one(), 70000u);
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2, 3, 4, 5}));
  EXPECT_TRUE(q.empty());
}

/// The pick_delta mix widened past the horizon: the fine level, kernel
/// phases of 256-4,095 cycles, the rest of the coarse level, both sides of
/// the horizon, and far beyond it.
Cycle pick_wide_delta(std::uint64_t r) {
  const std::uint64_t x = r >> 8;
  switch (r % 16) {
    case 0: return 0;
    case 1: return x % 256;
    case 2: return 255 + x % 2;
    case 3: case 4: case 5: case 6: case 7: case 8: case 9:
      return 256 + x % 3840;
    case 10: return 4096 + x % 61440;
    case 11: return EventQueue::kHorizon - 2 + x % 5;
    default: return EventQueue::kHorizon + x % 400000;
  }
}

// The seeded stress of SeededStressMatchesPriorityQueueReference with
// distances that reach every level: a sixth of them lie beyond the
// horizon, so events park in the heap, migrate into the coarse level and
// cascade into the fine level while the script keeps scheduling.
TEST(EventQueue, SeededStressAcrossAllLevelsMatchesReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 7ull, 1013ull}) {
    const StressTrace got = replay_stress<CalendarQueue, pick_wide_delta>(seed);
    const StressTrace want = replay_stress<ReferenceQueue, pick_wide_delta>(seed);
    EXPECT_EQ(got.ran, want.ran) << "seed " << seed;
    EXPECT_EQ(got.steps, want.steps) << "seed " << seed;
    EXPECT_EQ(got.ran.size(), 20000u) << "seed " << seed;
    EXPECT_GT(got.beyond_horizon_scheduled, 2000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace arcane::sim
