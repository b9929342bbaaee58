// Kernel-offload scheduler: the one owner of crt::KernelExecutor. It
// accepts jobs — DAGs of crt kernel ops — from independent tenants (request
// streams with arrival times) and dispatches ready ops across instances,
// each driven by its own executor. An instance is a VPU group:
//
//  * serving instance i is {VPU i}: tenant jobs park on the least-loaded
//    one and run under the configured SchedPolicy;
//  * the host instance spans every VPU: it is the paper's C-RT kernel queue
//    (§IV-B) — FIFO, one kernel in flight, VPUs chosen by vpu_select, with
//    full write-back elision: a result the next queued kernel consumes
//    whole stays in the producer's VPU registers and is forwarded to the
//    consumer instead of round-tripping through the LLC. The bridge decoder
//    (crt::Runtime) feeds it through crt::KernelQueue; the host tenant and
//    instance are created on the first offload, after the serving ones.
//
// Arbitration model:
//  * VPUs — an instance waits while another in-flight kernel holds any VPU
//    of its group (a kernel's vector registers live in its VPUs' ways);
//  * DMA engine, eCPU and the controller lock — shared through the
//    Runtime's CrtContext, so allocation and write-back transfers of
//    concurrent kernels serialize exactly like the hardware's single engine;
//  * data hazards — an op whose operand ranges overlap an in-flight op's
//    destination (or whose destination overlaps in-flight sources) is held
//    in its ready queue until the conflicting kernel retires, and
//    conflicting *queued* ops dispatch strictly in ready (seq) order even
//    across instances and policies, making buffer-reusing tenants safe
//    without host AT stalls.
//
// Everything runs as events on the System's queue, so instances advance
// concurrently in *simulated* time and results are deterministic.
#ifndef ARCANE_SCHED_SCHEDULER_HPP_
#define ARCANE_SCHED_SCHEDULER_HPP_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "crt/executor.hpp"
#include "crt/runtime.hpp"
#include "fault/fault.hpp"
#include "llc/llc.hpp"
#include "sched/job.hpp"
#include "sched/ready_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/critical_path.hpp"

namespace arcane::sched {

/// One resolved job: an entry of Scheduler::outcomes() (the bench's latency
/// sample). `dropped` jobs were shed on deadline expiry: `done` is the drop
/// time and they appear in Scheduler::shed(), not completed(). `failed`
/// jobs hit retry exhaustion under fault injection (src/fault/): `done` is
/// the failure time and they appear in Scheduler::failed().
struct JobReport {
  std::uint64_t id = 0;
  unsigned tenant = 0;
  Cycle arrival = 0;
  Cycle first_dispatch = 0;
  Cycle done = 0;
  Cycle deadline = 0;        // 0 = none
  std::uint64_t tag = 0;     // JobSpec::tag, caller-owned
  bool dropped = false;
  bool failed = false;       // retries exhausted (src/fault/)
  unsigned retries = 0;      // op re-dispatches this job needed
  unsigned failovers = 0;    // retries that moved to another instance

  Cycle latency() const { return done - arrival; }
  bool on_time() const {
    return !dropped && !failed && (deadline == 0 || done <= deadline);
  }
};

class Scheduler final : public crt::KernelExecutor::Client,
                        public crt::KernelQueue,
                        public fault::Listener,
                        llc::HostAccessObserver {
 public:
  /// Serving instances, policy and the shared C-RT context come from the
  /// Runtime's SystemConfig (sched_instances == 0 means one instance per
  /// VPU).
  explicit Scheduler(crt::Runtime& rt);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// `priority` is the tenant's QoS class (0 = highest; kQosPriority*).
  /// It orders dispatch under SchedPolicy::kPriority and breaks SJF ties.
  unsigned add_tenant(std::string name,
                      unsigned priority = kQosPriorityNormal);
  unsigned num_tenants() const {
    return static_cast<unsigned>(tenant_names_.size());
  }
  const std::string& tenant_name(unsigned t) const {
    return tenant_names_[t];
  }
  unsigned tenant_priority(unsigned t) const { return tenant_priority_[t]; }

  /// Queue `job` for `tenant` at simulated time `arrival` (clamped to the
  /// event-queue horizon). Throws arcane::Error when the DAG is malformed
  /// (cycle, bad dep, unknown kernel, operand/shape rejected by the
  /// planner). Returns the job id.
  std::uint64_t submit(unsigned tenant, JobSpec job, Cycle arrival);

  /// Run the event queue dry; every submitted job completes.
  void drain();

  /// Serving instances (the ones tenant jobs park on); the host instance
  /// is not counted.
  unsigned num_instances() const { return serving_; }
  /// Serving instances currently accepting work (not quarantined). Equal to
  /// num_instances() whenever no fault plan is active — the QoS capacity
  /// signal (qos::AdmissionController backlog projection) reads this.
  unsigned num_healthy_instances() const {
    unsigned n = 0;
    for (unsigned k = 0; k < serving_; ++k) n += health_[k].quarantined ? 0 : 1;
    return n;
  }
  bool instance_quarantined(unsigned inst) const {
    return health_[inst].quarantined;
  }
  SchedPolicy policy() const { return policy_; }

  /// Wire the deterministic fault injector (src/fault/). The caller (the
  /// System) also registers this scheduler as the injector's Listener.
  /// Null (the default) means no watchdogs, no retries, no health
  /// tracking — the fault-free fast path is bit-identical to a build
  /// without the fault subsystem.
  void set_injector(fault::Injector* inj) { injector_ = inj; }

  // ------------------------- fault::Listener -------------------------
  /// Fail-stop: quarantine `instance` immediately; a hung kernel on it is
  /// aborted now, an executing one is doomed (its completion — already a
  /// scheduled event — reports failure when it fires).
  void on_instance_fail(unsigned instance, Cycle t) override;
  /// Recovery: the instance rejoins the healthy set and the dispatch scan
  /// runs (queued work may migrate back naturally via parking).
  void on_instance_recover(unsigned instance, Cycle t) override;

  /// The stored scheduler counters plus the job totals summed over
  /// tenant_stats(); makespan is the latest tenant last_completion.
  sim::SchedStats stats() const;
  const sim::TenantStats& tenant_stats(unsigned t) const {
    return tenant_stats_[t];
  }
  /// Exclusive stall-bucket cycles summed over every op retired through
  /// this scheduler, host kernels included. Per op the buckets tile [op
  /// ready, op finish] exactly (sum == op latency — asserted at
  /// completion), so these totals are the full cycle-accounting of all
  /// offloaded work.
  const sim::OpStallBreakdown& stall_totals() const { return stall_totals_; }
  const sim::OpStallBreakdown& tenant_stalls(unsigned t) const {
    return tenant_stall_[t];
  }
  /// The outcome log: every resolved job — completed, shed or failed — in
  /// resolution order, recorded once. The views below filter it.
  const std::vector<JobReport>& outcomes() const { return outcomes_; }
  /// Completed jobs in completion order.
  std::vector<JobReport> completed() const {
    return outcomes_if(
        [](const JobReport& r) { return !r.dropped && !r.failed; });
  }
  /// Jobs shed on deadline expiry (JobSpec::shed_on_expiry), in drop order.
  std::vector<JobReport> shed() const {
    return outcomes_if([](const JobReport& r) { return r.dropped; });
  }
  /// Jobs failed on retry exhaustion (src/fault/), in failure order.
  std::vector<JobReport> failed() const {
    return outcomes_if([](const JobReport& r) { return r.failed; });
  }

  /// Jobs per tenant the flight recorder view keeps.
  static constexpr std::size_t kFlightDepth = 64;
  /// Flight recorder: the last kFlightDepth outcomes of `tenant`, oldest
  /// first — "what happened to tenant T's recent jobs" when its tail
  /// latency spikes.
  std::vector<JobReport> recent(unsigned tenant) const;

  /// Record one telemetry::OpTiming per retired op into `log` (owned by the
  /// System). The log is consulted only at completion events and only when
  /// enabled, so critical-path capture never perturbs simulated timing.
  void set_op_log(telemetry::OpLog* log) { op_log_ = log; }

  /// Observer invoked once per resolved job (completed, shed or failed),
  /// after its report is recorded and before the dispatch scan — the hook
  /// closed-loop load generators use to submit the next request. The
  /// callback may submit (directly or through qos::AdmissionController);
  /// it must not call drain().
  void set_on_job_done(std::function<void(const JobReport&)> fn) {
    on_job_done_ = std::move(fn);
  }

  // ------------------------ crt::KernelQueue -------------------------
  // The host instance's queue, fed by the bridge decoder.
  unsigned queued_kernels() const override {
    return has_host() ? static_cast<unsigned>(queues_[serving_].size()) : 0;
  }
  bool kernels_busy() const override {
    return has_host() &&
           (inflight_[serving_].valid || !queues_[serving_].empty());
  }
  bool kernel_uses_matrix(std::uint16_t reg) const override;
  /// Park the kernel as a single-op job of the host tenant, now rather than
  /// through a `sched.arrive` event: the decoder's queue-depth wait and the
  /// full-elision lookahead read the queue at decode time.
  void push_kernel(const crt::KernelOp& op, const crt::Plan& plan,
                   Cycle done) override;
  sim::OpStallBreakdown kernel_stalls() const override {
    return has_host() ? tenant_stall_[host_tenant_] : sim::OpStallBreakdown{};
  }

  // --------------------- KernelExecutor::Client ----------------------
  // Write-back elision and the forwarding of elided results are
  // capabilities of the host instance (jobs express reuse as DAG edges
  // instead). Residents are dropped or materialized for every instance, so
  // all of them share one coherent LLC.
  bool forward_load(const crt::KernelExecutor& ex, const crt::DmaXfer& x,
                    std::vector<std::uint8_t>& out) override;
  void before_claim(unsigned vpu) override;
  /// Also used by the System's coherent backdoor accessors.
  void materialize_deferred(Addr lo, Addr hi) override;
  bool allow_writeback_elision(const crt::KernelExecutor& ex, Addr dest_lo,
                               Addr dest_hi) override;
  void on_kernel_finish(crt::KernelExecutor& ex,
                        const crt::FinishedKernel& fin, Cycle t) override;

 private:
  /// One kernel op's only home, from submit (or the bridge decoder's push)
  /// until its job's slot is reused. The executor borrows `op` and `plan`
  /// from here while the op is in flight: a slot's op table is resized only
  /// when a completed job's slot is reused, a shed or failed job never
  /// frees its slot, and growing jobs_ moves each table's buffer intact.
  struct OpState {
    /// The decoded op the hazard checks, the cost estimate and the executor
    /// read; dispatch refreshes its per-attempt uid and AT entries.
    crt::KernelOp op;
    crt::Plan plan;              // validated at submit or decode
    std::vector<unsigned> deps;  // op indices within the same job
    /// Decoded, renamed and AT-registered by the bridge decoder: the first
    /// dispatch skips decode; a retry decodes again like a submitted op.
    bool predecoded = false;
    Cycle ready_at = 0;
    /// First cycle a dispatch scan held this op back for a hazard (an
    /// in-flight or older-queued conflicting op). Cycles before that count
    /// as queue_wait, cycles after as hazard_defer — "since first held
    /// back", the deterministic boundary event order gives us.
    Cycle hazard_since = 0;
    bool hazard_marked = false;
    // Failure handling (src/fault/): attempt tracking for bounded retry.
    unsigned attempts = 0;       // dispatches so far (retries = attempts-1)
    unsigned prev_instance = 0;  // instance of the latest dispatch
    Cycle first_ready = 0;       // ready_at of the first attempt
    /// Stall buckets of failed/aborted attempts plus retry backoff; the
    /// final completion folds this in so the telescoping invariant holds
    /// over [first_ready, finish] across every attempt.
    sim::OpStallBreakdown acc{};
  };
  struct JobState {
    std::uint64_t id = 0;
    unsigned tenant = 0;
    Cycle arrival = 0;
    Cycle first_dispatch = 0;
    Cycle deadline = 0;  // absolute, 0 = none
    std::uint64_t tag = 0;
    unsigned ops_left = 0;
    bool dispatched_any = false;
    bool shed_on_expiry = false;
    bool dropped = false;     // shed or failed: in-flight ops wake no waiters
    unsigned retries = 0;     // op re-dispatches across this job
    unsigned failovers = 0;   // retries that landed on another instance
    std::vector<OpState> ops;
    DagState dag;
  };
  // Growing jobs_ must move op tables, not copy them: executors borrow ops.
  static_assert(std::is_nothrow_move_constructible_v<JobState>);
  /// What an instance is currently executing (for hazard checks and the
  /// uid -> op mapping at completion).
  struct InFlight {
    bool valid = false;
    std::uint32_t job = 0;
    std::uint16_t op = 0;
    Cycle dispatch_at = 0;
    /// Pre-execution stall buckets (queue_wait, hazard_defer and the
    /// dispatch/eCPU decode slice), composed with the executor's breakdown
    /// at completion to tile the op's full [ready, finish] lifetime.
    sim::OpStallBreakdown pre{};
    std::uint32_t vpus = 0;  // bit mask of the VPUs the kernel holds
    // Failure handling (src/fault/).
    std::uint64_t dispatch_seq = 0;  // watchdog token (stale-fire filter)
    Cycle post_dispatch = 0;         // eCPU horizon at launch (hang window)
    fault::OpVerdict verdict = fault::OpVerdict::kNone;
    bool doomed = false;  // instance fail-stopped while this op executed
  };
  /// Per-instance health for consecutive-failure quarantine.
  struct Health {
    bool quarantined = false;
    unsigned consecutive_failures = 0;
  };
  /// A host kernel's destination whose write-back was elided, kept resident
  /// in VPU registers so the consuming kernel skips its allocation DMA.
  /// `deferred_at_entry` holds the still-active AT entry until the data is
  /// materialized to memory: once forwarded, or earlier when the host or
  /// another load touches its range or its VPU is claimed.
  struct Resident {
    Addr lo = 0, hi = 0;
    unsigned vpu = 0;
    std::uint8_t first_vreg = 0;
    unsigned vregs = 0;  // the kernel claimed registers [0, vregs)
    std::uint32_t rows = 0, row_bytes = 0, mem_stride = 0;
    std::uint64_t uid = 0;
    int deferred_at_entry = -1;  // >= 0: write-back was elided
  };

  /// The job slot the next submit builds into: the most recently freed
  /// one, else a new one. It stays free until open_job takes it.
  std::uint32_t free_job_slot();
  /// Open the job built in slot `job_idx` (free_job_slot()), whose DAG
  /// and op table the caller filled: the other fields are reset here.
  void open_job(std::uint32_t job_idx, unsigned tenant, Cycle arrival,
                Cycle deadline, bool shed_on_expiry, std::uint64_t tag);
  void arrive(std::uint32_t job_idx, Cycle t);
  void op_ready(std::uint32_t job_idx, unsigned op_idx, Cycle t);
  /// Append a ready entry for the op to instance `inst`'s queue.
  void enqueue(std::uint32_t job_idx, unsigned op_idx, unsigned inst);
  /// Drop every queued job whose deadline expired (shed_on_expiry only).
  void shed_expired(Cycle t);
  /// How a job left the scheduler.
  enum class Outcome : std::uint8_t { kCompleted, kShed, kFailed };
  /// Resolve an open job as shed (deadline expiry) or failed (retry
  /// exhaustion): queued ops are cancelled, in-flight ones run out without
  /// waking waiters.
  void cancel_job(std::uint32_t job_idx, Cycle t, Outcome outcome);
  /// The one place a job is recorded as resolved: tenant totals, the
  /// outcome log, the job span and on_job_done.
  void resolve_job(std::uint32_t job_idx, Cycle t, Outcome outcome);
  template <typename Pred>
  std::vector<JobReport> outcomes_if(Pred keep) const {
    std::vector<JobReport> out;
    std::copy_if(outcomes_.begin(), outcomes_.end(), std::back_inserter(out),
                 keep);
    return out;
  }
  /// Fill every idle instance from its ready queue (policy + hazard check).
  void try_dispatch(Cycle t);
  void dispatch(unsigned inst, const ReadyEntry& e, Cycle t);
  // --------------------------- host instance ---------------------------
  bool has_host() const { return execs_.size() > serving_; }
  bool is_host(unsigned inst) const { return inst == serving_; }
  /// Append an instance (serving ones first, then the host instance).
  void add_instance();
  /// Another in-flight kernel holds a VPU of `inst`'s group.
  bool group_held(unsigned inst) const;
  /// Paper VPU selection (§IV-B2) for a host kernel's chains: writes one
  /// VPU per chain to `out` (out.size() chains).
  void assign_vpus(const crt::KernelOp& op, std::span<unsigned> out);
  // ----------------------------- residents -----------------------------
  /// Keep the destination of a kernel whose write-back was elided resident.
  void keep_resident(const crt::FinishedKernel& fin);
  /// Drop the residents `pred` selects, materializing elided ones first.
  template <typename Pred>
  void drop_residents(const Pred& pred);
  /// Observes the LLC host port while residents_ is non-empty.
  void on_host_access(Addr addr, unsigned len, bool is_write) override;
  /// Write an elided (never materialized) resident back to memory and
  /// release its deferred AT entry.
  void materialize(Resident& r);
  /// An in-flight op's ranges overlap `op`'s (WAW, WAR or RAW).
  bool conflicts(const crt::KernelOp& op) const;
  std::uint64_t estimate_cost(const crt::KernelOp& op) const;
  // ------------------- failure handling (src/fault/) -------------------
  /// Least-loaded healthy instance to park a ready op on (ties → lowest
  /// index). `avoid` >= 0 is skipped when another healthy instance exists
  /// (failover preference); with every instance quarantined, any instance.
  unsigned pick_park_instance(int avoid) const;
  /// Per-op watchdog: fires `watchdog_timeout` after dispatch; a stale
  /// token or a non-hung executor is a no-op (real completions cannot be
  /// aborted — events already scheduled always fire).
  void watchdog_fire(unsigned inst, std::uint64_t seq, Cycle t);
  /// Abort the hung in-flight kernel on `inst` (watchdog or fail-stop):
  /// release its AT entries, fold the attempt into the op's accumulator
  /// and route to handle_op_failure.
  void abort_hung_inflight(unsigned inst, Cycle t);
  /// Release the AT entries `op` registered; an elided write-back keeps
  /// its destination entry until the data is consumed or materialized.
  void release_at(const crt::KernelOp& op, bool elided_writeback);
  /// One op attempt failed on `inst`: update health, then either schedule
  /// a retry (backoff + requeue) or fail the job on exhaustion.
  void handle_op_failure(unsigned inst, std::uint32_t job_idx,
                         unsigned op_idx, Cycle t);
  /// Re-admit a failed op to a ready queue with the plan it kept (the
  /// planner is pure); AT registration and operand reload re-run at
  /// dispatch, so the re-dispatch is idempotent.
  void requeue_op(std::uint32_t job_idx, unsigned op_idx, unsigned prev_inst,
                  Cycle t);
  /// Record an op outcome for `inst`'s health; `ok` resets the
  /// consecutive-failure count, a failure may quarantine.
  void note_op_outcome(unsigned inst, bool ok, Cycle t);
  void quarantine(unsigned inst, Cycle t);
  /// Liveness guard: with jobs open, ops queued, nothing in flight and no
  /// pending arrival/retry/recovery, the simulation can never progress —
  /// assert loudly with a per-instance queue-depth dump instead of letting
  /// run_all return a silent wedge. Skipped while a fault plan is active
  /// (a permanently failed fleet is a legitimate stall, reported by
  /// drain()).
  void check_liveness(Cycle t) const;
  /// Per-instance "queued=N inflight=0|1 [quarantined]" dump for wedge and
  /// drain diagnostics.
  std::string queue_dump() const;

  crt::Runtime* rt_;
  crt::CrtContext* ctx_;
  const SystemConfig* cfg_;
  SchedPolicy policy_;
  unsigned serving_;  // serving instances; the host instance follows them

  std::vector<std::unique_ptr<crt::KernelExecutor>> execs_;
  std::vector<ReadyQueue> queues_;   // one per instance
  std::vector<InFlight> inflight_;   // one per instance
  std::vector<Health> health_;       // one per instance
  fault::Injector* injector_ = nullptr;
  unsigned host_tenant_ = ~0u;       // valid once has_host()
  std::vector<Resident> residents_;
  unsigned rr_next_ = 0;  // round-robin VPU selection state (ablation)

  std::vector<std::string> tenant_names_;
  std::vector<unsigned> tenant_priority_;
  std::vector<sim::TenantStats> tenant_stats_;
  std::vector<sim::OpStallBreakdown> tenant_stall_;
  sim::OpStallBreakdown stall_totals_{};
  telemetry::OpLog* op_log_ = nullptr;
  /// Job slots, indexed by ReadyEntry::job. A completed job's slot is
  /// recycled with the capacity of its op table and DAG, so a steady
  /// stream of jobs stops allocating per job.
  std::vector<JobState> jobs_;
  std::vector<std::uint32_t> free_jobs_;
  std::vector<JobReport> outcomes_;
  std::function<void(const JobReport&)> on_job_done_;
  sim::SchedCounters counters_;

  /// try_dispatch's flattened (seq, op) view of every queued entry for
  /// the older-conflict eligibility check — reused across scans so the
  /// dispatch hot path stays allocation-free.
  std::vector<std::pair<std::uint64_t, const crt::KernelOp*>> queued_scratch_;

  unsigned rr_last_ = 0;        // tenant served last (round-robin policy)
  std::uint64_t next_job_id_ = 1;
  std::uint64_t ready_seq_ = 0;
  std::uint64_t jobs_open_ = 0;
  std::uint64_t dispatch_seq_ = 0;     // watchdog token allocator
  std::uint64_t pending_arrivals_ = 0;  // submitted, arrive() not yet fired
  std::uint64_t pending_retries_ = 0;   // failures in their backoff window
  /// Open jobs with shed_on_expiry set: shed_expired() early-outs when
  /// zero, so the no-QoS path pays nothing for deadline scanning.
  std::uint64_t shed_armed_ = 0;
};

}  // namespace arcane::sched

#endif  // ARCANE_SCHED_SCHEDULER_HPP_
