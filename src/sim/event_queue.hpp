// Discrete-event simulation kernel.
//
// The ARCANE simulator uses a conservative discrete-event scheme: the host
// CPU is the driving actor (it executes instructions and advances its local
// clock), while the cache-side machinery (bridge, C-RT, DMA, VPUs) runs as
// events on this queue. Before every host<->LLC interaction the queue is
// drained up to the host's local time, so all shared state the host observes
// is causally consistent. When the host *blocks* (AT hazard, lock, no free
// victim line), events are executed one at a time — re-checking the blocking
// predicate after each — until the stall resolves.
//
// Implementation: a two-level calendar queue tuned for the simulator's
// schedule pattern (almost every event lands within a few hundred cycles of
// `now`, a few stragglers — refresh, open-loop arrivals — land far out).
//
//  * Near events (`when - base < kSpan`) go to a ring of per-cycle buckets.
//    A bucket is an append-only vector drained through a head cursor, so
//    scheduling is push_back into recycled capacity and draining is a
//    linear walk — no per-event heap sift, no allocation after warm-up.
//    Same-cycle events run in scheduling order because appends are already
//    in `seq` order (the calendar never reorders within a cycle).
//  * Far events are parked in a slab: the callback goes into a free slot of
//    a recycled array (a free list of slot indices), and a binary heap
//    orders plain (when, seq, slot) keys. Sifting moves 24-byte keys, never
//    a Callback. Whenever the calendar window advances, events that fell
//    inside it migrate into their buckets and free their slots — heap pop
//    order is (when, seq), so migration preserves the same-cycle FIFO
//    invariant. Far events are the common case: a kernel phase or an
//    open-loop arrival usually lands more than a window ahead.
//
// A 256-bit occupancy bitmap (one bit per bucket) finds the next populated
// cycle with word scans instead of probing empty buckets, and `run_until`
// drains whole buckets per `now_` update. Callbacks are sim::Callback —
// inline storage, no heap per event (see callback.hpp). Buckets, the key
// heap, the slab and its free list only ever grow, so once their capacities
// cover the simulation's peak, scheduling and running events allocate
// nothing.
//
// Ordering is exactly (when, seq) ascending — identical to the previous
// std::priority_queue kernel, so every simulated result is bit-identical
// (pinned by tests/event_queue_test.cpp and the blessed bench baselines).
#ifndef ARCANE_SIM_EVENT_QUEUE_HPP_
#define ARCANE_SIM_EVENT_QUEUE_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/callback.hpp"

namespace arcane::sim {

class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Schedule `fn` to run at absolute cycle `when`. Events scheduled for the
  /// same cycle run in scheduling order (stable, deterministic).
  void schedule(Cycle when, Callback fn, const char* tag = "") {
    ARCANE_ASSERT(when >= now_, "event scheduled in the past: " << tag << " @"
                                << when << " < now " << now_);
    // With an empty calendar the window can hop forward for free (no event
    // constrains base_), keeping near-future schedules in the fast ring even
    // after long quiet stretches.
    if (when - base_ >= kSpan && ring_count_ == 0 && now_ > base_) {
      advance_base(now_);
    }
    ++pending_;
    const std::uint64_t seq = seq_++;
    if (when - base_ < kSpan) {
      push_bucket(when, std::move(fn));
    } else {
      park_far(when, seq, std::move(fn));
    }
  }

  /// Execute every event with timestamp <= `t`. `now()` afterwards is the
  /// max of its previous value, `t`, and the last executed event time.
  void run_until(Cycle t) {
    for (;;) {
      Cycle c;
      if (ring_count_ != 0) {
        c = ring_next();
      } else if (!far_.empty()) {
        c = far_.front().when;
      } else {
        break;
      }
      if (c > t) break;
      advance_base(c);
      if (c > now_) now_ = c;
      Bucket& b = buckets_[c & kMask];
      // Index-based drain: events may append same-cycle events mid-walk.
      while (b.head < b.events.size()) {
        Callback fn = std::move(b.events[b.head]);
        ++b.head;
        --pending_;
        --ring_count_;
        ++executed_;
        fn();
      }
      b.events.clear();
      b.head = 0;
      clear_bit(static_cast<std::uint32_t>(c & kMask));
    }
    if (t > now_) now_ = t;
  }

  /// Execute exactly the next event (used while an actor is blocked).
  /// Returns the time the event ran at.
  Cycle run_one() {
    ARCANE_ASSERT(pending_ != 0, "run_one on empty event queue");
    const Cycle c = next_time();
    advance_base(c);
    Bucket& b = buckets_[c & kMask];
    Callback fn = std::move(b.events[b.head]);
    ++b.head;
    if (b.head == b.events.size()) {
      b.events.clear();
      b.head = 0;
      clear_bit(static_cast<std::uint32_t>(c & kMask));
    }
    if (c > now_) now_ = c;
    --pending_;
    --ring_count_;
    ++executed_;
    fn();
    return c;
  }

  /// Drain the queue completely (used at end-of-run to settle async work).
  void run_all() {
    while (pending_ != 0) run_one();
  }

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  Cycle next_time() const {
    ARCANE_ASSERT(pending_ != 0, "next_time on empty queue");
    // Ring events always precede far events (invariant: far `when`s lie at
    // or beyond the window end), so the earliest populated bucket wins.
    if (ring_count_ != 0) return ring_next();
    return far_.front().when;
  }

  /// Time of the latest executed event / run_until horizon.
  Cycle now() const { return now_; }
  std::uint64_t executed() const { return executed_; }

 private:
  static constexpr std::uint32_t kSpanLog2 = 8;  // 256-cycle calendar window
  static constexpr std::uint32_t kSpan = 1u << kSpanLog2;
  static constexpr std::uint32_t kMask = kSpan - 1;
  static constexpr std::uint32_t kWords = kSpan / 64;

  struct Bucket {
    std::vector<Callback> events;
    std::size_t head = 0;  // events [head, size) are still pending
  };
  /// A parked far event: its order key and the slab slot of its callback.
  struct FarKey {
    Cycle when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct FarLater {
    bool operator()(const FarKey& a, const FarKey& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among same-cycle events
    }
  };

  void set_bit(std::uint32_t idx) { occ_[idx >> 6] |= 1ull << (idx & 63); }
  void clear_bit(std::uint32_t idx) { occ_[idx >> 6] &= ~(1ull << (idx & 63)); }

  void push_bucket(Cycle when, Callback fn) {
    const auto idx = static_cast<std::uint32_t>(when & kMask);
    Bucket& b = buckets_[idx];
    if (b.events.empty()) set_bit(idx);
    b.events.push_back(std::move(fn));
    ++ring_count_;
  }

  /// Smallest bucket index in [lo, hi) with pending events, or kSpan.
  std::uint32_t first_set_in(std::uint32_t lo, std::uint32_t hi) const {
    std::uint32_t w = lo >> 6;
    std::uint64_t word = occ_[w] & (~0ull << (lo & 63));
    for (;;) {
      if (word != 0) {
        const std::uint32_t idx =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        return idx < hi ? idx : kSpan;
      }
      if (++w >= ((hi + 63) >> 6)) return kSpan;
      word = occ_[w];
    }
  }

  /// Cycle of the earliest pending ring event (ring_count_ != 0).
  Cycle ring_next() const {
    const auto s = static_cast<std::uint32_t>(base_ & kMask);
    std::uint32_t idx = first_set_in(s, kSpan);
    if (idx != kSpan) return base_ + (idx - s);
    idx = first_set_in(0, s);
    ARCANE_ASSERT(idx != kSpan, "ring count out of sync with occupancy");
    return base_ + (idx + kSpan - s);
  }

  /// Park a far event: its callback in a free slab slot, its key in the heap.
  void park_far(Cycle when, std::uint64_t seq, Callback fn) {
    std::uint32_t slot;
    if (far_free_.empty()) {
      slot = static_cast<std::uint32_t>(far_slab_.size());
      far_slab_.push_back(std::move(fn));
    } else {
      slot = far_free_.back();
      far_free_.pop_back();
      far_slab_[slot] = std::move(fn);
    }
    far_.push_back(FarKey{when, seq, slot});
    std::push_heap(far_.begin(), far_.end(), FarLater{});
  }

  /// Move the calendar window start to `c` (<= every pending event) and pull
  /// far events that now fall inside [c, c + kSpan) into their buckets.
  void advance_base(Cycle c) {
    if (c <= base_) return;
    base_ = c;
    while (!far_.empty() && far_.front().when - base_ < kSpan) {
      std::pop_heap(far_.begin(), far_.end(), FarLater{});
      const FarKey k = far_.back();
      far_.pop_back();
      push_bucket(k.when, std::move(far_slab_[k.slot]));
      far_free_.push_back(k.slot);
    }
  }

  Bucket buckets_[kSpan];
  std::uint64_t occ_[kWords] = {};
  std::vector<FarKey> far_;  // min-heap on (when, seq) via FarLater
  std::vector<Callback> far_slab_;       // parked far callbacks, by slot
  std::vector<std::uint32_t> far_free_;  // free slots of far_slab_
  Cycle base_ = 0;  // calendar window is [base_, base_ + kSpan)
  std::size_t ring_count_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  Cycle now_ = 0;
};

}  // namespace arcane::sim

#endif  // ARCANE_SIM_EVENT_QUEUE_HPP_
