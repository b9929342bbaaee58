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
// Implementation: a two-level timing wheel (Varghese & Lauck's hierarchical
// wheel) in front of a key heap, tuned for the simulator's schedule pattern.
// Kernel phases end hundreds to thousands of cycles after they are
// scheduled (serve-pipeline, seed 1: 7% of events land under 256 cycles
// ahead, 84% 256-4,095, 2% 4,096-65,535, 6% further — the open-loop
// arrivals its generator submits early).
//
//  * Fine level: 256 one-cycle buckets holding the current span `cur_`, a
//    256-aligned block of cycles: `now()`'s, or an earlier one while the
//    fine level is drained.
//  * Coarse level: 256 span buckets reaching kHorizon = 65,536 cycles from
//    the current span's start. When a span becomes current, its coarse
//    bucket cascades into the fine level in list order.
//  * Key heap: (when, seq, node) keys of events beyond the horizon. Each
//    time the current span moves, the keys that fell inside the horizon
//    migrate into their coarse (or fine) bucket in (when, seq) order.
//
// Every pending event lives in one node slab: its callback, `when` and the
// index of the next node of its bucket; free nodes form a list through the
// same index. Buckets are intrusive FIFO lists (head, tail), so moving an
// event between levels relinks one index and never moves a Callback. Each
// level has a 256-bit occupancy bitmap for word scans, and each coarse
// bucket keeps its earliest `when`, so the next event time is known without
// cascading. The slab and the heap only ever grow: once they cover the
// simulation's peak, scheduling and running events allocate nothing, and a
// fresh queue's first schedule grows one vector.
//
// Ordering is exactly (when, seq) ascending, as the original
// std::priority_queue kernel, so every simulated result is bit-identical
// (pinned by tests/event_queue_test.cpp and the blessed bench baselines).
// An event of cycle c reaches c's fine bucket from one of three sources, in
// this order: the heap, when c's span enters the horizon; the coarse list,
// when the span becomes current; a direct schedule, once the span is
// current. Every event from an earlier source was scheduled before any
// event from a later one, and each source delivers its own events in
// scheduling order, so every bucket stays in `seq` order.
#ifndef ARCANE_SIM_EVENT_QUEUE_HPP_
#define ARCANE_SIM_EVENT_QUEUE_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "sim/callback.hpp"

namespace arcane::sim {

class EventQueue {
 public:
  using Callback = sim::Callback;

  /// Buckets per level: a span is kSlots cycles (one per fine bucket), and
  /// the coarse level's kSlots spans reach kHorizon cycles from the current
  /// span's start. Events beyond it wait in the key heap.
  static constexpr std::uint32_t kSlotsLog2 = 8;
  static constexpr std::uint32_t kSlots = 1u << kSlotsLog2;
  static constexpr Cycle kHorizon = Cycle{kSlots} * kSlots;

  /// Schedule `fn` to run at absolute cycle `when`. Events scheduled for the
  /// same cycle run in scheduling order (stable, deterministic).
  void schedule(Cycle when, Callback fn, const char* tag = "") {
    ARCANE_ASSERT(when >= now_, "event scheduled in the past: " << tag << " @"
                                << when << " < now " << now_);
    // With the current span drained, it can hop up to now's span for free
    // (every pending event lies at or after now), keeping near-future
    // schedules in the fine level even after long quiet stretches.
    if (fine_count_ == 0 && span_of(now_) > cur_) advance(span_of(now_));
    ++pending_;
    const std::uint32_t n = acquire(when, std::move(fn));
    const Cycle span = span_of(when);
    if (span == cur_) {
      push_fine(n);
    } else if (span - cur_ < kSlots) {
      push_coarse(span, n);
    } else {
      heap_.push_back(Key{when, seq_, n});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
    ++seq_;
  }

  /// Execute every event with timestamp <= `t`. `now()` afterwards is the
  /// max of its previous value, `t`, and the last executed event time.
  void run_until(Cycle t) {
    for (;;) {
      if (fine_count_ == 0 && !refill(t)) break;
      const std::uint32_t idx = first_set(fine_occ_, 0);
      const Cycle c = (cur_ << kSlotsLog2) | idx;
      if (c > t) break;
      if (c > now_) now_ = c;
      List& b = fine_[idx];
      // Re-read the head each step: events may append same-cycle events.
      while (b.head != kNil) run_head(b);
      clear_bit(fine_occ_, idx);
    }
    if (t > now_) now_ = t;
  }

  /// Execute exactly the next event (used while an actor is blocked).
  /// Returns the time the event ran at.
  Cycle run_one() {
    ARCANE_ASSERT(pending_ != 0, "run_one on empty event queue");
    if (fine_count_ == 0) refill(std::numeric_limits<Cycle>::max());
    const std::uint32_t idx = first_set(fine_occ_, 0);
    const Cycle c = (cur_ << kSlotsLog2) | idx;
    if (c > now_) now_ = c;
    List& b = fine_[idx];
    if (nodes_[b.head].next == kNil) clear_bit(fine_occ_, idx);
    run_head(b);
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
    // Fine events precede coarse ones, which precede the heap's.
    if (fine_count_ != 0) {
      return (cur_ << kSlotsLog2) | first_set(fine_occ_, 0);
    }
    const std::uint32_t s = next_coarse();
    if (s != kSlots) return coarse_[s].earliest;
    return heap_.front().when;
  }

  /// Time of the latest executed event / run_until horizon.
  Cycle now() const { return now_; }
  std::uint64_t executed() const { return executed_; }
  /// Pending events beyond the wheel's horizon, parked in the key heap.
  std::size_t beyond_horizon() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kWords = kSlots / 64;
  static constexpr std::uint32_t kNil = ~0u;

  struct Node {
    Callback fn;
    Cycle when = 0;
    std::uint32_t next = kNil;  // next node of its bucket, or of the free list
  };
  /// An intrusive FIFO list of nodes; `tail` is stale while `head` is kNil.
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  struct SpanList : List {
    Cycle earliest = 0;  // smallest `when` in the list, while it is occupied
  };
  /// A parked event's order key and its node.
  struct Key {
    Cycle when;
    std::uint64_t seq;
    std::uint32_t node;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;  // FIFO among same-cycle events
    }
  };

  static Cycle span_of(Cycle c) { return c >> kSlotsLog2; }
  static std::uint32_t slot_of(Cycle c) {
    return static_cast<std::uint32_t>(c & (kSlots - 1));
  }

  static void set_bit(std::uint64_t* occ, std::uint32_t i) {
    occ[i >> 6] |= 1ull << (i & 63);
  }
  static void clear_bit(std::uint64_t* occ, std::uint32_t i) {
    occ[i >> 6] &= ~(1ull << (i & 63));
  }
  /// Smallest set index >= lo in `occ`, or kSlots.
  static std::uint32_t first_set(const std::uint64_t* occ, std::uint32_t lo) {
    std::uint32_t w = lo >> 6;
    std::uint64_t word = occ[w] & (~0ull << (lo & 63));
    while (word == 0) {
      if (++w == kWords) return kSlots;
      word = occ[w];
    }
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
  }

  /// A node holding `fn` for cycle `when`, from the free list or the slab.
  std::uint32_t acquire(Cycle when, Callback&& fn) {
    std::uint32_t n = free_;
    if (n != kNil) {
      free_ = nodes_[n].next;
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.resize(n + 1);
    }
    Node& node = nodes_[n];
    node.fn = std::move(fn);
    node.when = when;
    return n;
  }

  void append(List& l, std::uint32_t n) {
    nodes_[n].next = kNil;
    if (l.head == kNil) {
      l.head = n;
    } else {
      nodes_[l.tail].next = n;
    }
    l.tail = n;
  }

  void push_fine(std::uint32_t n) {
    const std::uint32_t i = slot_of(nodes_[n].when);
    if (fine_[i].head == kNil) set_bit(fine_occ_, i);
    append(fine_[i], n);
    ++fine_count_;
  }

  void push_coarse(Cycle span, std::uint32_t n) {
    const std::uint32_t i = slot_of(span);
    SpanList& l = coarse_[i];
    const Cycle when = nodes_[n].when;
    if (l.head == kNil) {
      set_bit(coarse_occ_, i);
      l.earliest = when;
    } else if (when < l.earliest) {
      l.earliest = when;
    }
    append(l, n);
  }

  /// Run the head event of fine bucket `b`. Its node is freed first, so the
  /// callback's own schedules can reuse it.
  void run_head(List& b) {
    const std::uint32_t n = b.head;
    Node& node = nodes_[n];
    b.head = node.next;
    Callback fn = std::move(node.fn);
    node.next = free_;
    free_ = n;
    --pending_;
    --fine_count_;
    ++executed_;
    fn();
  }

  /// Occupied coarse bucket of the earliest span, or kSlots. The current
  /// span's own bucket is always empty, so a scan from it sees the spans
  /// after it in order, wrapping once.
  std::uint32_t next_coarse() const {
    const std::uint32_t lo = slot_of(cur_);
    const std::uint32_t i = first_set(coarse_occ_, lo);
    return i != kSlots ? i : first_set(coarse_occ_, 0);
  }

  /// With the fine level empty: make the span of the next event current if
  /// that event is due by `limit`. Returns whether it did.
  bool refill(Cycle limit) {
    Cycle next;
    const std::uint32_t s = next_coarse();
    if (s != kSlots) {
      next = coarse_[s].earliest;
    } else if (!heap_.empty()) {
      next = heap_.front().when;
    } else {
      return false;
    }
    if (next > limit) return false;
    advance(span_of(next));
    return true;
  }

  /// Make `span` current. Requires an empty fine level and no pending event
  /// before `span`: its coarse bucket cascades into the fine level, then the
  /// heap's keys that fell inside the new horizon migrate.
  void advance(Cycle span) {
    cur_ = span;
    SpanList& l = coarse_[slot_of(span)];
    if (l.head != kNil) {
      clear_bit(coarse_occ_, slot_of(span));
      for (std::uint32_t n = l.head; n != kNil;) {
        const std::uint32_t next = nodes_[n].next;
        push_fine(n);
        n = next;
      }
      l.head = kNil;
    }
    while (!heap_.empty() && span_of(heap_.front().when) - span < kSlots) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Key k = heap_.back();
      heap_.pop_back();
      const Cycle s = span_of(k.when);
      if (s == span) {
        push_fine(k.node);
      } else {
        push_coarse(s, k.node);
      }
    }
  }

  List fine_[kSlots];
  SpanList coarse_[kSlots];
  std::uint64_t fine_occ_[kWords] = {};
  std::uint64_t coarse_occ_[kWords] = {};
  std::vector<Node> nodes_;  // the slab: every pending event, plus free nodes
  std::vector<Key> heap_;    // min-heap on (when, seq) via Later
  std::uint32_t free_ = kNil;
  Cycle cur_ = 0;  // the current span: the fine level holds its events
  std::size_t fine_count_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  Cycle now_ = 0;
};

}  // namespace arcane::sim

#endif  // ARCANE_SIM_EVENT_QUEUE_HPP_
