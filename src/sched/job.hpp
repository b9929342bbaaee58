// Job model of the kernel-offload scheduler: a *job* is a DAG of crt kernel
// ops (nodes carry operand snapshots, edges are data dependencies), the unit
// a *tenant* (one request stream) submits. A conv->relu->maxpool->gemm
// inference request is one job of four ops chained by deps.
//
// Ops name their operands by memory address + shape directly (the decoded
// form the C-RT holds after xmr binding) — the scheduler is the post-decode
// stage of the offload path, so no logical matrix registers are involved.
#ifndef ARCANE_SCHED_JOB_HPP_
#define ARCANE_SCHED_JOB_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "crt/kernel_op.hpp"

namespace arcane::sched {

/// A matrix operand snapshot (address + shape): the C-RT's decoded operand,
/// the scheduler's analogue of an xmr-bound logical register.
using OperandSpec = crt::Operand;

inline OperandSpec operand(Addr addr, MatShape shape) {
  return OperandSpec{addr, shape, true};
}

/// One node of a job DAG: a kernel invocation (func5 selects the kernel in
/// the C-RT library) plus the indices of ops that must complete first.
struct OpSpec {
  std::uint8_t func5 = 0;
  ElemType et = ElemType::kWord;
  std::uint16_t alpha = 0;  // packed scalar params (paper Table I);
  std::uint16_t beta = 0;   // alpha doubles as the maxpool stride, beta as win
  OperandSpec md, ms1, ms2, ms3;
  std::vector<unsigned> deps;  // op indices within the same job
};

/// A job: the DAG node list plus QoS metadata. Dependencies must be acyclic
/// and in range.
struct JobSpec {
  std::vector<OpSpec> ops;
  /// Absolute completion deadline in cycles (0 = none). Completions after
  /// it count as deadline misses; with `shed_on_expiry` the scheduler drops
  /// the whole job once the deadline passes before its next op dispatches.
  /// qos::AdmissionController fills both from the tenant's QoS spec.
  Cycle deadline = 0;
  bool shed_on_expiry = false;
  /// Opaque caller tag carried into the JobReport (request id, slot index,
  /// ...). The scheduler never interprets it.
  std::uint64_t tag = 0;
};

/// Tracks readiness of a job DAG: remaining-dependency counts per op and
/// the reverse edges used to wake waiters on completion, flattened into an
/// offsets array and one waiters array (op i's waiters are
/// waiters_[first_[i], first_[i+1])). Separate from the scheduler so the
/// ready-set update is microbenchmarkable on its own. A rebuild reuses the
/// capacity of the last build, so a DagState kept across jobs allocates
/// only when a job outgrows every earlier one.
class DagState {
 public:
  /// Check `job` (every dep in range, no self-deps, acyclic), build the
  /// state from its deps with a Kahn pass over itself, then reset the
  /// counters for execution. Returns an empty string when well-formed; on
  /// an error the state is unusable.
  std::string build(const JobSpec& job) {
    const std::size_t n = job.ops.size();
    if (n == 0) return "job has no ops";
    if (n > 0xFFFF) return "job too large (op indices are 16-bit)";
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned d : job.ops[i].deps) {
        if (d >= n) return "op dependency out of range";
        if (d == i) return "op depends on itself";
      }
    }
    deps_left_.assign(n, 0);
    first_.assign(n + 1, 0);
    for (const OpSpec& op : job.ops) {
      for (unsigned d : op.deps) ++first_[d + 1];
    }
    for (std::size_t i = 0; i < n; ++i) first_[i + 1] += first_[i];
    waiters_.resize(first_[n]);
    for (std::size_t i = 0; i < n; ++i) {
      for (unsigned d : job.ops[i].deps) {
        // deps_left_[d] counts d's waiters placed so far.
        waiters_[first_[d] + deps_left_[d]++] = static_cast<unsigned>(i);
      }
    }
    reset(job);
    frontier_.clear();
    for_each_root([&](unsigned r) { frontier_.push_back(r); });
    std::size_t visited = 0;
    while (!frontier_.empty()) {
      const unsigned i = frontier_.back();
      frontier_.pop_back();
      ++visited;
      complete(i, [&](unsigned w) { frontier_.push_back(w); });
    }
    if (visited != n) return "job DAG has a dependency cycle";
    reset(job);
    return {};
  }

  /// The state of a one-op job (a bridge kernel): no DAG to check.
  void build_single() {
    deps_left_.assign(1, 0);
    first_.assign(2, 0);
    waiters_.clear();
  }

  /// Call `fn(op)` for every op with no dependencies (ready at arrival).
  template <typename Fn>
  void for_each_root(Fn&& fn) const {
    for (unsigned i = 0; i < deps_left_.size(); ++i) {
      if (deps_left_[i] == 0) fn(i);
    }
  }

  /// Mark op `i` complete and call `fn(op)` for every op that just became
  /// ready, in dependency-list order.
  template <typename Fn>
  void complete(unsigned i, Fn&& fn) {
    for (unsigned k = first_[i]; k < first_[i + 1]; ++k) {
      const unsigned w = waiters_[k];
      if (--deps_left_[w] == 0) fn(w);
    }
  }

 private:
  void reset(const JobSpec& job) {
    for (std::size_t i = 0; i < job.ops.size(); ++i) {
      deps_left_[i] = static_cast<unsigned>(job.ops[i].deps.size());
    }
  }

  std::vector<unsigned> deps_left_;
  std::vector<unsigned> first_;
  std::vector<unsigned> waiters_;
  std::vector<unsigned> frontier_;  // build()'s Kahn pass
};

/// Validate a job: every dep in range, no self-deps, acyclic. Returns an
/// empty string when well-formed. The scheduler validates on the DagState
/// it keeps for the job (DagState::build); this builds a throwaway one.
inline std::string validate(const JobSpec& job) {
  return DagState().build(job);
}

}  // namespace arcane::sched

#endif  // ARCANE_SCHED_JOB_HPP_
