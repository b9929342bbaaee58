// Configuration of the simulated X-HEEP + ARCANE system.
//
// Defaults reproduce the paper's evaluation platform (§V-A):
//   * LLC: 128 KiB organised as 4 VPUs x 32 vector registers x 1 KiB VLEN
//     (fully associative, line size == VLEN).
//   * eCPU: CV32E40X-class core with 16 KiB eMEM.
//   * Host: CV32E40X (RV32IMC) or CV32E40PX (adds XCVPULP).
//   * Lanes per VPU in {2, 4, 8}.
#ifndef ARCANE_COMMON_CONFIG_HPP_
#define ARCANE_COMMON_CONFIG_HPP_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace arcane {

/// Replacement policies for the LLC victim selection. The paper uses a
/// counter-based approximate LRU; the legacy alternatives exist for the
/// ablation bench (`bench/ablation_replacement`) and the adaptive family
/// (src/llc/replacement.cpp) makes the cache self-tuning under hot-set
/// shifts, loops and scans.
enum class ReplacementPolicy : std::uint8_t {
  kApproxLru = 0,  // per-line age counters with periodic decay (paper)
  kTrueLru = 1,    // exact LRU stack ordering
  kRandom = 2,     // pseudo-random victim (deterministic xorshift)
  kClock = 3,      // reference-bit second chance (one bit per line)
  kLruK = 4,       // LRU-K, K=2 backward distance with retained history
  kArc = 5,        // Adaptive Replacement Cache (self-tuning p, ghosts)
};

/// VPU-selection policies of the C-RT kernel scheduler. The paper
/// prioritises the VPU with the fewest dirty cache lines (§IV-B2).
enum class VpuSelectPolicy : std::uint8_t {
  kFewestDirty = 0,  // paper policy
  kRoundRobin = 1,   // ablation
};

/// Dispatch policies of the multi-tenant kernel-offload scheduler
/// (src/sched/): which ready op an idle VPU instance pulls next.
enum class SchedPolicy : std::uint8_t {
  kFifo = 0,        // global ready order (arrival-time FIFO)
  kRoundRobin = 1,  // rotate across tenants (fair share per request stream)
  kSjf = 2,         // shortest estimated op first (by operand footprint)
  kPriority = 3,    // highest tenant priority class first (QoS, src/qos/)
};

/// Stable lowercase names used by bench CLI flags and JSON rows.
constexpr const char* sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFifo: return "fifo";
    case SchedPolicy::kRoundRobin: return "rr";
    case SchedPolicy::kSjf: return "sjf";
    case SchedPolicy::kPriority: return "priority";
  }
  return "?";
}

/// Tenant priority classes of the QoS subsystem (src/qos/): smaller value =
/// higher class. Plain unsigned so intermediate classes can be minted; these
/// are the conventional three.
inline constexpr unsigned kQosPriorityHigh = 0;
inline constexpr unsigned kQosPriorityNormal = 1;
inline constexpr unsigned kQosPriorityLow = 2;

/// What the admission controller does with per-job deadlines.
enum class DeadlinePolicy : std::uint8_t {
  kNone = 0,            // record misses, never shed
  kRejectAtSubmit = 1,  // reject jobs whose backlog projection misses
  kDropOnExpiry = 2,    // admit, then shed undispatched jobs once expired
};

constexpr const char* deadline_policy_name(DeadlinePolicy p) {
  switch (p) {
    case DeadlinePolicy::kNone: return "none";
    case DeadlinePolicy::kRejectAtSubmit: return "reject";
    case DeadlinePolicy::kDropOnExpiry: return "drop";
  }
  return "?";
}

/// Per-tenant defaults of the QoS front end (qos::AdmissionController).
/// Zero means "unlimited / disabled" for every knob, so the default
/// configuration admits everything and the legacy direct-scheduler path is
/// untouched. `AdmissionController::add_tenant` can override per tenant.
struct QosConfig {
  bool enabled = false;       // false: admit all, attach no deadlines
  unsigned queue_cap = 0;     // max outstanding admitted jobs per tenant
  unsigned token_burst = 0;   // token-bucket capacity, in jobs
  std::uint64_t token_period = 0;  // cycles per token refill (0 = no limit)
  std::uint64_t deadline = 0;      // default relative per-job deadline
  DeadlinePolicy deadline_policy = DeadlinePolicy::kNone;
  /// Backlog feasibility estimate for kRejectAtSubmit: a job is rejected
  /// when now + (outstanding + 1) * est_job_cycles exceeds its deadline.
  std::uint64_t est_job_cycles = 0;
  unsigned default_priority = kQosPriorityNormal;
};

/// Fault sites the deterministic injector (src/fault/) can hit. Each kind
/// names one failure surface of the serving stack; all are driven off the
/// sim event queue so the same plan always produces the same timeline.
enum class FaultKind : std::uint8_t {
  kInstanceFailStop = 0,  // VPU instance dies at `at`, optional recovery
  kOpHang = 1,            // next op dispatched on `instance` never completes
  kTransientError = 2,    // next op on `instance` completes reporting failure
  kDmaError = 3,          // next op on `instance` fails its DMA transfer
  kMemDegrade = 4,        // backend latency x `multiplier` over [at, until)
};

/// Stable lowercase names used by bench CLI flags and JSON rows.
constexpr const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kInstanceFailStop: return "failstop";
    case FaultKind::kOpHang: return "hang";
    case FaultKind::kTransientError: return "transient";
    case FaultKind::kDmaError: return "dma";
    case FaultKind::kMemDegrade: return "degrade";
  }
  return "?";
}

/// One declared fault. Field meaning depends on `kind`:
///   kInstanceFailStop  `instance` fails at `at`; `recover_at` != 0 restores
///                      it (must be > `at`), 0 means permanent.
///   kOpHang / kTransientError / kDmaError
///                      the next op dispatched on `instance` at or after `at`
///                      is hit (one-shot, consumed in declaration order).
///   kMemDegrade        every external-memory burst in [at, until) costs
///                      `multiplier` x its nominal cycles — paid identically
///                      by ARCANE and the CPU baselines.
struct FaultEvent {
  FaultKind kind = FaultKind::kInstanceFailStop;
  std::uint64_t at = 0;          // cycle the fault arms
  unsigned instance = 0;         // target scheduler instance (= VPU index)
  std::uint64_t recover_at = 0;  // kInstanceFailStop: 0 = never
  std::uint64_t until = 0;       // kMemDegrade: window end (exclusive)
  unsigned multiplier = 1;       // kMemDegrade: latency scale factor
};

/// Deterministic fault plan + the scheduler's failure-handling knobs.
/// Disabled by default, and — like QosConfig — zero means "off" for every
/// knob, so the default configuration is bit-identical to a build without
/// the fault subsystem.
struct FaultConfig {
  bool enabled = false;  // false: no injector, no watchdog, no retries
  std::vector<FaultEvent> events;      // declared faults, in arming order
  std::uint64_t watchdog_timeout = 0;  // cycles before a hung op is aborted
  unsigned max_retries = 0;            // re-dispatch attempts per failed op
  std::uint64_t retry_backoff = 0;     // cycles between failure and requeue
  /// Consecutive op failures on one instance before it is quarantined
  /// (queued ops drain to healthy instances). 0 disables quarantine.
  unsigned quarantine_threshold = 0;
};

/// One NM-Carus vector processing unit (paper [3]).
struct VpuConfig {
  unsigned lanes = 4;           // 32-bit execution lanes: 2, 4 or 8
  unsigned vlen_bytes = 1024;   // vector register length == cache line size
  unsigned num_vregs = 32;      // vector registers per VPU
  unsigned pipe_fill = 4;       // per-instruction pipeline fill cycles
  unsigned gather_penalty = 2;  // bank-conflict factor for strided gathers

  bool operator==(const VpuConfig&) const = default;

  /// Elements processed per cycle for a given element width: each 32-bit
  /// lane packs 4 x int8, 2 x int16 or 1 x int32 (sub-word SIMD).
  constexpr unsigned elems_per_cycle(unsigned ebytes) const {
    return 1u << elems_per_cycle_log2(ebytes);
  }
  /// log2 of elems_per_cycle. Lanes and element sizes are powers of two
  /// (SystemConfig::validate), so the issue path shifts instead of dividing.
  constexpr unsigned elems_per_cycle_log2(unsigned ebytes) const {
    return static_cast<unsigned>(std::countr_zero(lanes)) + 2u -
           static_cast<unsigned>(std::countr_zero(ebytes));
  }
};

/// Most VPUs one LLC may carry (SystemConfig::validate).
inline constexpr unsigned kMaxVpus = 16;

/// The ARCANE smart LLC (cache + compute).
struct LlcConfig {
  unsigned num_vpus = 4;
  VpuConfig vpu{};
  ReplacementPolicy replacement = ReplacementPolicy::kApproxLru;
  unsigned lru_decay_period = 64;  // accesses between age decays (approx LRU)
  unsigned hit_latency = 1;        // cycles (paper: single-cycle hits)

  constexpr unsigned num_lines() const {
    return num_vpus * vpu.num_vregs;  // aggregate vector register capacity
  }
  constexpr unsigned line_bytes() const { return vpu.vlen_bytes; }
  constexpr unsigned capacity_bytes() const {
    return num_lines() * line_bytes();
  }
};

/// Timing models for the external memory behind the LLC. The paper's
/// X-HEEP platform uses a burst PSRAM (§III / §V-A); the alternatives make
/// the external-memory assumption a first-class evaluation axis so fig4
/// speedups can be reported per backend (see docs/ARCHITECTURE.md).
enum class MemBackendKind : std::uint8_t {
  kIdealSram = 0,   // fixed 1-cycle beats, no per-burst penalty (upper bound)
  kBurstPsram = 1,  // first-beat latency + streaming beats (paper platform)
  kDramTiming = 2,  // row-buffer hit/miss, bank interleave, refresh tax
};

/// External memory (flash / pseudo-static RAM behind the LLC) and the
/// on-chip DMA path.
struct MemConfig {
  std::uint32_t data_base = 0x2000'0000;  // cacheable data region base
  std::uint32_t data_bytes = 8u << 20;    // backing store size (8 MiB)
  std::uint32_t imem_base = 0x0000'0000;  // host instruction memory
  std::uint32_t imem_bytes = 128u << 10;  // 4 banks x 32 KiB (paper §V-A)
  std::uint32_t mmio_base = 0x1000'0000;  // bridge/eMEM slave port
  std::uint32_t mmio_bytes = 64u << 10;

  MemBackendKind backend = MemBackendKind::kBurstPsram;

  unsigned ext_fixed_latency = 16;   // cycles to first beat (PSRAM burst)
  unsigned ext_bytes_per_cycle = 2;  // external bus bandwidth (bytes/cycle)
  unsigned int_bytes_per_cycle = 8;  // on-chip DMA port into the VPU banks
  unsigned int_segment_cycles = 2;   // per on-chip row segment (bank turn)
  unsigned dma_setup_cycles = 24;    // per programmed descriptor (HW side)

  // DRAM-timing backend knobs (kDramTiming only). Defaults keep the
  // backend-ordering invariant ideal <= psram <= dram for any access
  // stream: the cheapest DRAM access (row hit) already costs at least the
  // PSRAM first-beat latency, and misses/refreshes only add on top.
  unsigned dram_row_bytes = 2048;        // open-row (page) size per bank
  unsigned dram_banks = 4;               // independently open rows
  unsigned dram_row_hit_cycles = 18;     // CAS-only access (open row)
  unsigned dram_row_miss_cycles = 46;    // precharge + activate + CAS
  unsigned dram_refresh_interval = 4096; // busy cycles between refresh stalls
  unsigned dram_refresh_cycles = 96;     // stall per refresh window
};

/// Stable lowercase names used by bench CLI flags and the CI nightly
/// replacement axis ("approx-lru" / "true-lru" / "random" / "clock" /
/// "lru-k" / "arc").
constexpr const char* replacement_name(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kApproxLru: return "approx-lru";
    case ReplacementPolicy::kTrueLru: return "true-lru";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kClock: return "clock";
    case ReplacementPolicy::kLruK: return "lru-k";
    case ReplacementPolicy::kArc: return "arc";
  }
  return "?";
}

/// Every replacement policy, in enum order — the sweep/iteration order of
/// benches, tests and the canonical name lookup below.
inline constexpr ReplacementPolicy kAllReplacementPolicies[] = {
    ReplacementPolicy::kApproxLru, ReplacementPolicy::kTrueLru,
    ReplacementPolicy::kRandom,    ReplacementPolicy::kClock,
    ReplacementPolicy::kLruK,      ReplacementPolicy::kArc,
};

/// The single name→policy parser behind every CLI/env knob. Unknown names
/// return nullopt — callers must reject them loudly rather than fall back
/// to a default policy.
inline std::optional<ReplacementPolicy> replacement_from_name(
    std::string_view name) {
  for (ReplacementPolicy p : kAllReplacementPolicies) {
    if (name == replacement_name(p)) return p;
  }
  return std::nullopt;
}

/// Stable lowercase names used by bench CLI flags, JSON rows and CI matrix
/// axes ("ideal" / "psram" / "dram").
constexpr const char* backend_name(MemBackendKind kind) {
  switch (kind) {
    case MemBackendKind::kIdealSram: return "ideal";
    case MemBackendKind::kBurstPsram: return "psram";
    case MemBackendKind::kDramTiming: return "dram";
  }
  return "?";
}

/// Instruction-budget cost model for the C-RT firmware phases running on the
/// eCPU (see DESIGN.md, "Substitutions"). All values are in eCPU cycles.
struct CrtCostModel {
  unsigned irq_entry = 40;        // interrupt entry + bridge register reads
  unsigned decode_lookup = 35;    // O(1) kernel-library lookup + dispatch
  unsigned xmr_preamble = 340;    // matrix-map bind, hazard rename, AT entry
  unsigned kernel_preamble = 480; // shape checks, layout plan, AT entries
  unsigned preamble_per_line = 45;  // CT source/dest status marking per line
  unsigned schedule = 48;         // VPU selection + queue management
  unsigned per_dma_descriptor = 44;  // programming one 2D DMA descriptor
  unsigned lock = 10;             // LLC controller lock acquire
  unsigned unlock = 8;            // LLC controller lock release
  unsigned tile_loop = 60;        // per-tile micro-program management
  unsigned writeback_epilogue = 60;  // AT release + status updates
  unsigned kernel_launch = 24;    // eCPU cycles to start a VPU micro-program
  unsigned vinsn_dispatch = 4;    // VPU-local sequencer issue gap per insn
};

/// Host CPU instruction timing (CV32E40X-like 4-stage in-order core).
struct CpuTiming {
  unsigned alu = 1;
  unsigned mul = 1;
  unsigned div = 35;           // worst-case iterative divider
  unsigned branch_taken = 3;   // taken branch / mispredict penalty
  unsigned branch_not_taken = 1;
  unsigned jump = 2;           // JAL/JALR
  unsigned csr = 1;
  unsigned load_base = 1;      // plus memory-port latency
  unsigned store_base = 1;
  unsigned simd = 1;           // XCVPULP packed-SIMD ops
  unsigned offload_handshake = 2;  // CV-X-IF issue transaction
};

enum class HostCpuKind : std::uint8_t {
  kCv32e40x = 0,   // RV32IMC (+ Zicsr) — scalar baseline & ARCANE host
  kCv32e40px = 1,  // adds XCVPULP (hw loops, post-increment, packed SIMD)
};

/// Top-level system configuration.
struct SystemConfig {
  LlcConfig llc{};
  MemConfig mem{};
  CrtCostModel crt{};
  CpuTiming cpu{};
  HostCpuKind host_cpu = HostCpuKind::kCv32e40x;

  unsigned num_matrix_regs = 16;   // logical matrix registers (configurable)
  unsigned kernel_queue_depth = 8; // statically allocated kernel queue
  VpuSelectPolicy vpu_select = VpuSelectPolicy::kFewestDirty;
  /// Kernel-offload scheduler (src/sched/): dispatch policy and how many
  /// VPU instances it drives (0 = one executor per VPU).
  SchedPolicy sched_policy = SchedPolicy::kFifo;
  unsigned sched_instances = 0;
  /// QoS admission control fronting the scheduler (src/qos/).
  QosConfig qos{};
  /// Deterministic fault injection + failure-aware scheduling (src/fault/).
  FaultConfig fault{};
  bool multi_vpu_kernels = false;  // split one kernel across all VPUs (§V-C)
  /// Full write-back elision (paper §IV-B2): when the queued next kernel
  /// consumes the whole destination as a source, skip the producer's
  /// write-back entirely and keep the result resident in the VPU register
  /// file, so the consumer skips its allocation DMA. The intermediate is
  /// materialized lazily (and functionally) only if the host later touches
  /// its memory range.
  bool full_writeback_elision = false;
  double clock_mhz = 250.0;        // for GOPS/reporting only

  void validate() const {
    ARCANE_CHECK(llc.num_vpus >= 1 && llc.num_vpus <= kMaxVpus,
                 "unsupported VPU count " << llc.num_vpus);
    ARCANE_CHECK(llc.vpu.lanes == 2 || llc.vpu.lanes == 4 ||
                     llc.vpu.lanes == 8 || llc.vpu.lanes == 1 ||
                     llc.vpu.lanes == 16,
                 "unsupported lane count " << llc.vpu.lanes);
    ARCANE_CHECK(is_pow2(llc.vpu.vlen_bytes) && llc.vpu.vlen_bytes >= 64,
                 "VLEN must be a power of two >= 64 bytes");
    ARCANE_CHECK(llc.vpu.num_vregs >= 8 && llc.vpu.num_vregs <= 64,
                 "vector register count out of range");
    ARCANE_CHECK(
        static_cast<std::size_t>(llc.replacement) <
            sizeof(kAllReplacementPolicies) / sizeof(ReplacementPolicy),
        "unknown LLC replacement policy id "
            << static_cast<unsigned>(llc.replacement)
            << " (valid: approx-lru, true-lru, random, clock, lru-k, arc)");
    ARCANE_CHECK(num_matrix_regs >= 3 && num_matrix_regs <= 256,
                 "matrix register count out of range");
    ARCANE_CHECK(kernel_queue_depth >= 1, "kernel queue too small");
    ARCANE_CHECK(sched_instances <= llc.num_vpus,
                 "scheduler instances exceed VPU count");
    ARCANE_CHECK(qos.token_period == 0 || qos.token_burst >= 1,
                 "token-bucket rate limit needs a burst of at least 1 job");
    ARCANE_CHECK(qos.deadline_policy != DeadlinePolicy::kRejectAtSubmit ||
                     qos.est_job_cycles > 0,
                 "reject-at-submit needs est_job_cycles > 0 for the "
                 "backlog projection (0 would silently admit every "
                 "backlogged job)");
    for (const FaultEvent& f : fault.events) {
      const unsigned instances =
          sched_instances == 0 ? llc.num_vpus : sched_instances;
      switch (f.kind) {
        case FaultKind::kMemDegrade:
          ARCANE_CHECK(f.until > f.at,
                       "degradation window must end after it starts");
          ARCANE_CHECK(f.multiplier >= 1,
                       "degradation multiplier must be >= 1");
          break;
        case FaultKind::kInstanceFailStop:
          ARCANE_CHECK(f.recover_at == 0 || f.recover_at > f.at,
                       "instance recovery must come after the failure");
          [[fallthrough]];
        case FaultKind::kOpHang:
        case FaultKind::kTransientError:
        case FaultKind::kDmaError:
          ARCANE_CHECK(f.instance < instances,
                       "fault targets instance " << f.instance << " but only "
                                                 << instances << " exist");
          break;
      }
    }
    ARCANE_CHECK(!fault.enabled || fault.max_retries == 0 ||
                     fault.watchdog_timeout > 0 ||
                     std::none_of(fault.events.begin(), fault.events.end(),
                                  [](const FaultEvent& f) {
                                    return f.kind == FaultKind::kOpHang;
                                  }),
                 "a hang plan with retries needs a watchdog timeout to "
                 "detect the hang");
    ARCANE_CHECK(mem.ext_bytes_per_cycle >= 1, "external bus width");
    ARCANE_CHECK(mem.dram_banks >= 1 && mem.dram_banks <= 64,
                 "DRAM bank count out of range");
    ARCANE_CHECK(is_pow2(mem.dram_row_bytes) && mem.dram_row_bytes >= 64,
                 "DRAM row size must be a power of two >= 64 bytes");
    ARCANE_CHECK(mem.dram_refresh_interval >= 1, "DRAM refresh interval");
    ARCANE_CHECK(mem.data_base % llc.line_bytes() == 0 &&
                     mem.data_bytes % llc.line_bytes() == 0,
                 "data region must be line aligned");
  }

  /// Paper configurations: ARCANE with 4 VPUs and 2/4/8 lanes at 250 MHz.
  static SystemConfig paper(unsigned lanes) {
    SystemConfig cfg;
    cfg.llc.vpu.lanes = lanes;
    cfg.validate();
    return cfg;
  }
};

}  // namespace arcane

#endif  // ARCANE_COMMON_CONFIG_HPP_
