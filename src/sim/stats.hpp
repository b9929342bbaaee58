// Statistics collected by the simulator. Plain aggregates (Core Guidelines
// C.1: use struct when members can vary independently); every component owns
// one and the System's metrics registry names their fields (metrics.cpp).
#ifndef ARCANE_SIM_STATS_HPP_
#define ARCANE_SIM_STATS_HPP_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace arcane::sim {

/// Host CPU execution statistics.
struct CpuStats {
  std::uint64_t instructions = 0;
  std::uint64_t compressed_instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t mul_div = 0;
  std::uint64_t simd_ops = 0;        // XCVPULP packed-SIMD instructions
  std::uint64_t hw_loop_iterations = 0;
  std::uint64_t offloads = 0;        // CV-X-IF transactions
  Cycle cycles = 0;
  Cycle stall_cycles = 0;            // cycles waiting on the memory port
};

/// Why the LLC made a host request wait.
struct StallBreakdown {
  Cycle lock = 0;          // controller locked by the Matrix Allocator
  Cycle at_source = 0;     // WAR: store to a registered source operand
  Cycle at_dest = 0;       // RAW/WAW: access to a pending destination
  Cycle busy_lines = 0;    // no victim available (lines busy computing)
  Cycle miss = 0;          // plain refill latency
  Cycle dma_contention = 0;  // waiting for the shared DMA engine

  Cycle total() const {
    return lock + at_source + at_dest + busy_lines + miss + dma_contention;
  }
};

/// Exclusive cycle buckets a dispatched kernel op's lifetime decomposes
/// into (docs/OBSERVABILITY.md "Cycle accounting"). The buckets partition
/// [ready, finish] exactly — sum(buckets) == op latency — so a latency
/// regression can be attributed to exactly one resource:
///
///   queue_wait    ready in an instance queue, no hazard recorded yet
///   hazard_defer  held back by an operand-range hazard (WAR/WAW/RAW with
///                 an in-flight or older conflicting queued op)
///   dispatch      shared-eCPU work and contention: decode + preamble +
///                 scheduling, waiting for the eCPU between phases
///   alloc         Matrix Allocator: claim/descriptor programming plus the
///                 on-chip share of the allocation transfer
///   mem_refill    external-backend share of allocation transfers (bursts
///                 + bus beats priced by the mem backend)
///   mem_dma       waiting for the shared DMA engine (owned by another
///                 kernel's transfer)
///   compute       VPU micro-program execution
///   writeback     write-back programming + transfer + epilogue
///   retry_backoff failure handling (src/fault/): cycles between a failed
///                 or watchdog-aborted attempt and the op's requeue
enum class StallBucket : unsigned {
  kQueueWait = 0,
  kHazardDefer,
  kDispatch,
  kAlloc,
  kMemRefill,
  kMemDma,
  kCompute,
  kWriteback,
  kRetryBackoff,
  kCount,
};

constexpr unsigned kNumStallBuckets =
    static_cast<unsigned>(StallBucket::kCount);

constexpr const char* stall_bucket_name(StallBucket b) {
  switch (b) {
    case StallBucket::kQueueWait: return "queue_wait";
    case StallBucket::kHazardDefer: return "hazard_defer";
    case StallBucket::kDispatch: return "dispatch";
    case StallBucket::kAlloc: return "alloc";
    case StallBucket::kMemRefill: return "mem_refill";
    case StallBucket::kMemDma: return "mem_dma";
    case StallBucket::kCompute: return "compute";
    case StallBucket::kWriteback: return "writeback";
    case StallBucket::kRetryBackoff: return "retry_backoff";
    case StallBucket::kCount: break;
  }
  return "?";
}

/// One op's (or an accumulated total's) cycles per StallBucket. Plain
/// integer adds on the simulator's existing event boundaries: recording is
/// deterministic and never perturbs timing ("free when read").
struct OpStallBreakdown {
  std::array<Cycle, kNumStallBuckets> cycles{};

  Cycle& operator[](StallBucket b) {
    return cycles[static_cast<unsigned>(b)];
  }
  Cycle operator[](StallBucket b) const {
    return cycles[static_cast<unsigned>(b)];
  }

  Cycle total() const {
    Cycle sum = 0;
    for (const Cycle c : cycles) sum += c;
    return sum;
  }

  OpStallBreakdown& operator+=(const OpStallBreakdown& o) {
    for (unsigned i = 0; i < kNumStallBuckets; ++i) cycles[i] += o.cycles[i];
    return *this;
  }
};

/// LLC cache statistics.
struct CacheStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;        // dirty evictions
  std::uint64_t refills = 0;
  std::uint64_t kernel_line_claims = 0;  // lines claimed for computing
  StallBreakdown stalls{};

  double hit_rate() const {
    const auto acc = hits + misses;
    return acc ? static_cast<double>(hits) / static_cast<double>(acc) : 0.0;
  }
};

/// DMA engine statistics.
struct DmaStats {
  std::uint64_t descriptors = 0;
  std::uint64_t bytes_from_external = 0;
  std::uint64_t bytes_from_cache = 0;   // allocation reads forwarded on hit
  std::uint64_t bytes_to_external = 0;
  std::uint64_t bytes_to_cache = 0;     // kernel write-back (fetch-on-write)
  Cycle busy_cycles = 0;
};

/// Per-VPU statistics.
struct VpuStats {
  std::uint64_t instructions = 0;
  std::uint64_t elements = 0;
  std::uint64_t macs = 0;          // multiply-accumulate element operations
  Cycle busy_cycles = 0;
};

/// C-RT phase accounting — the quantities behind Figure 3.
/// `preamble` is host-visible (synchronous SW decode + xmr/kernel preamble);
/// the others are the asynchronous kernel pipeline phases.
struct CrtPhaseStats {
  Cycle preamble = 0;
  Cycle allocation = 0;
  Cycle compute = 0;
  Cycle writeback = 0;
  Cycle scheduling = 0;  // folded into "allocation" in the paper's plot
  std::uint64_t kernels_executed = 0;
  std::uint64_t xmr_executed = 0;
  std::uint64_t dma_descriptors = 0;
  std::uint64_t renames = 0;          // hazard-checker matrix renames
  std::uint64_t writebacks_elided = 0;  // rows forwarded from elided results
  std::uint64_t full_elisions = 0;      // write-backs skipped entirely
  Cycle ecpu_busy = 0;  // eCPU active cycles (rest = C-RT deep-sleep)
  /// VPU micro-programs prepared (validated, timed, copied) by executors;
  /// a tile whose program an executor already holds replays it instead.
  std::uint64_t programs_prepared = 0;

  Cycle pipeline_total() const {
    return allocation + compute + writeback + scheduling;
  }
};

/// Per-tenant accounting of the kernel-offload scheduler (src/sched/): one
/// request stream's job throughput, end-to-end latency and queueing delay.
struct TenantStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_dropped = 0;     // shed on deadline expiry (src/qos/)
  std::uint64_t jobs_on_time = 0;     // completed within deadline (or none)
  std::uint64_t deadline_misses = 0;  // completed after their deadline
  std::uint64_t ops_completed = 0;
  std::uint64_t jobs_failed = 0;  // retries exhausted (src/fault/)
  std::uint64_t retries = 0;      // op re-dispatches after a failure
  std::uint64_t failovers = 0;    // retries landing on a different instance
  Cycle total_job_latency = 0;  // sum over jobs of (completion - arrival)
  Cycle total_queue_wait = 0;   // sum over ops of (dispatch - ready)
  Cycle last_completion = 0;
};

/// Counters of the kernel-offload scheduler that no tenant owns — the part
/// of SchedStats the scheduler stores.
struct SchedCounters {
  std::uint64_t ops_dispatched = 0;
  /// Ops that finished successfully, including those of jobs shed while
  /// the op ran (TenantStats::ops_completed leaves those out).
  std::uint64_t ops_completed = 0;
  /// Idle-instance dispatch scans in which every queued op was held back by
  /// an operand-range overlap — with an in-flight kernel or with an older
  /// conflicting queued op (one count per instance per scan, not per
  /// delayed op).
  std::uint64_t hazard_deferrals = 0;
  std::uint64_t ops_cancelled = 0;    // undispatched ops of dropped jobs
  // Failure handling (src/fault/) — all zero when no fault plan is active.
  std::uint64_t watchdog_fires = 0;   // hung ops aborted by the watchdog
  std::uint64_t quarantines = 0;      // instances quarantined for failures
  std::vector<Cycle> instance_occupied;  // dispatch->finish time per instance
};

/// Global kernel-offload scheduler statistics: the stored counters plus
/// totals derived from the TenantStats when Scheduler::stats() is read.
struct SchedStats : SchedCounters {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_dropped = 0;     // shed on deadline expiry (src/qos/)
  std::uint64_t jobs_failed = 0;      // dropped after retry exhaustion
  std::uint64_t deadline_misses = 0;  // jobs completed after their deadline
  std::uint64_t retries = 0;          // op re-dispatches after a failure
  std::uint64_t failovers = 0;        // retries landing on another instance
  Cycle total_queue_wait = 0;         // sum over ops of (dispatch - ready)
  Cycle makespan = 0;                 // max TenantStats::last_completion
};

/// Per-tenant accounting of the QoS admission controller (src/qos/): every
/// offered job is either accepted into the scheduler or rejected with one
/// of three reasons. Drops and deadline misses of *accepted* jobs live in
/// TenantStats (the scheduler sheds; the controller only gatekeeps).
struct QosTenantStats {
  std::uint64_t jobs_offered = 0;
  std::uint64_t jobs_accepted = 0;
  std::uint64_t rejected_queue_cap = 0;  // outstanding-job cap hit
  std::uint64_t rejected_rate = 0;       // token bucket empty
  std::uint64_t rejected_deadline = 0;   // backlog projection misses deadline
  std::uint64_t max_outstanding = 0;     // peak admitted-but-unresolved jobs

  std::uint64_t jobs_rejected() const {
    return rejected_queue_cap + rejected_rate + rejected_deadline;
  }
};

}  // namespace arcane::sim

#endif  // ARCANE_SIM_STATS_HPP_
