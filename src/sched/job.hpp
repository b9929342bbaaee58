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
/// the reverse edges used to wake waiters on completion. Separate from the
/// scheduler so the ready-set update is microbenchmarkable on its own.
class DagState {
 public:
  explicit DagState(const JobSpec& job) {
    const std::size_t n = job.ops.size();
    deps_left_.resize(n, 0);
    waiters_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      deps_left_[i] = static_cast<unsigned>(job.ops[i].deps.size());
      for (unsigned d : job.ops[i].deps) {
        waiters_[d].push_back(static_cast<unsigned>(i));
      }
    }
  }

  /// Ops with no dependencies (ready at job arrival).
  std::vector<unsigned> roots() const {
    std::vector<unsigned> r;
    for (unsigned i = 0; i < deps_left_.size(); ++i) {
      if (deps_left_[i] == 0) r.push_back(i);
    }
    return r;
  }

  /// Mark op `i` complete; returns the ops that just became ready.
  std::vector<unsigned> complete(unsigned i) {
    std::vector<unsigned> ready;
    for (unsigned w : waiters_[i]) {
      if (--deps_left_[w] == 0) ready.push_back(w);
    }
    return ready;
  }

 private:
  std::vector<unsigned> deps_left_;
  std::vector<std::vector<unsigned>> waiters_;
};

/// Validate a job: every dep in range, no self-deps, acyclic. Reuses
/// DagState for the Kahn traversal so validation and execution share one
/// dependency-graph definition. Returns an empty string when well-formed.
inline std::string validate(const JobSpec& job) {
  const std::size_t n = job.ops.size();
  if (n == 0) return "job has no ops";
  if (n > 0xFFFF) return "job too large (op indices are 16-bit)";
  for (std::size_t i = 0; i < n; ++i) {
    for (unsigned d : job.ops[i].deps) {
      if (d >= n) return "op dependency out of range";
      if (d == i) return "op depends on itself";
    }
  }
  DagState dag(job);
  std::vector<unsigned> frontier = dag.roots();
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const unsigned i = frontier.back();
    frontier.pop_back();
    ++visited;
    for (unsigned w : dag.complete(i)) frontier.push_back(w);
  }
  if (visited != n) return "job DAG has a dependency cycle";
  return {};
}

}  // namespace arcane::sched

#endif  // ARCANE_SCHED_JOB_HPP_
