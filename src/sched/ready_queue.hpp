// Per-instance ready queue of the kernel-offload scheduler. Ops whose
// dependencies resolved are parked here until their instance is idle; the
// dispatch policy (SchedPolicy) decides which entry leaves first. Kept as a
// standalone class so the hot path (push / pick / take) is
// microbenchmarkable without a full System (bench/micro_components.cpp).
#ifndef ARCANE_SCHED_READY_QUEUE_HPP_
#define ARCANE_SCHED_READY_QUEUE_HPP_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"

namespace arcane::sched {

struct ReadyEntry {
  std::uint32_t job = 0;       // scheduler job-table index
  std::uint16_t op = 0;        // op index within the job
  std::uint16_t tenant = 0;
  std::uint8_t priority = 1;   // tenant priority class (0 = highest)
  std::uint64_t est_cost = 0;  // SJF key (operand footprint proxy)
  std::uint64_t seq = 0;       // global ready order (determinism tiebreak)
};

class ReadyQueue {
 public:
  static constexpr std::size_t kNone = ~std::size_t{0};

  void push(const ReadyEntry& e) { q_.push_back(e); }
  bool empty() const { return q_.empty(); }
  std::size_t size() const { return q_.size(); }
  std::span<const ReadyEntry> entries() const { return q_; }

  /// Index of the entry `policy` dispatches next among eligible entries
  /// (kNone when none is eligible). `rr_last` is the tenant served last:
  /// round-robin scans tenants cyclically starting after it.
  ///  * kFifo: lowest seq (entries push in ready order, so the front).
  ///  * kRoundRobin: next tenant in cyclic order with an eligible entry,
  ///    then that tenant's earliest entry.
  ///  * kSjf: smallest est_cost, ties by priority class then seq.
  ///  * kPriority: highest priority class (smallest value), ties by seq —
  ///    QoS dispatch order (src/qos/).
  /// `eligible(entry)` is any bool predicate, called in place (no type
  /// erasure on the dispatch path).
  template <typename Eligible>
  std::size_t pick(SchedPolicy policy, unsigned num_tenants,
                   unsigned rr_last, Eligible&& eligible) const {
    switch (policy) {
      case SchedPolicy::kFifo:
        for (std::size_t i = 0; i < q_.size(); ++i) {
          if (eligible(q_[i])) return i;
        }
        return kNone;
      case SchedPolicy::kRoundRobin: {
        if (num_tenants == 0) return kNone;
        for (unsigned step = 1; step <= num_tenants; ++step) {
          const unsigned tenant = (rr_last + step) % num_tenants;
          for (std::size_t i = 0; i < q_.size(); ++i) {
            if (q_[i].tenant == tenant && eligible(q_[i])) return i;
          }
        }
        return kNone;
      }
      case SchedPolicy::kSjf: {
        std::size_t best = kNone;
        for (std::size_t i = 0; i < q_.size(); ++i) {
          if (!eligible(q_[i])) continue;
          if (best == kNone || sjf_before(q_[i], q_[best])) best = i;
        }
        return best;
      }
      case SchedPolicy::kPriority: {
        std::size_t best = kNone;
        for (std::size_t i = 0; i < q_.size(); ++i) {
          if (!eligible(q_[i])) continue;
          if (best == kNone || q_[i].priority < q_[best].priority ||
              (q_[i].priority == q_[best].priority &&
               q_[i].seq < q_[best].seq)) {
            best = i;
          }
        }
        return best;
      }
    }
    return kNone;
  }

  /// Remove and return entry `idx` (relative order of the rest preserved).
  ReadyEntry take(std::size_t idx) {
    ARCANE_ASSERT(idx < q_.size(), "ready-queue take out of range");
    ReadyEntry e = q_[idx];
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(idx));
    return e;
  }

  /// Remove every entry matching `pred` (deadline shedding); returns how
  /// many were removed. Relative order of the rest is preserved.
  template <typename Pred>
  std::size_t erase_if(const Pred& pred) {
    const std::size_t before = q_.size();
    q_.erase(std::remove_if(q_.begin(), q_.end(), pred), q_.end());
    return before - q_.size();
  }

 private:
  /// SJF dispatch order: est_cost, then priority class, then ready seq.
  static bool sjf_before(const ReadyEntry& a, const ReadyEntry& b) {
    if (a.est_cost != b.est_cost) return a.est_cost < b.est_cost;
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.seq < b.seq;
  }

  // A vector, not a deque: a deque used as a FIFO allocates and frees a
  // block every few entries; the vector's capacity is recycled.
  std::vector<ReadyEntry> q_;
};

}  // namespace arcane::sched

#endif  // ARCANE_SCHED_READY_QUEUE_HPP_
