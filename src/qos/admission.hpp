// QoS front end of the kernel-offload scheduler (the control plane that
// decides *which* work gets in): per-tenant admission control with
// queue-depth caps, token-bucket rate limits, priority classes and
// SLO deadlines.
//
// The scheduler (src/sched/) dispatches everything it is given — under
// sustained overload its ready queues grow without bound and every job's
// latency diverges. qos::AdmissionController bounds that: a job offered by
// a tenant is admitted into sched::Scheduler only when
//
//   1. the tenant's outstanding admitted jobs are below its queue cap,
//   2. its token bucket has a token (sustained rate <= 1 job per
//      `token_period` cycles, bursts up to `token_burst`),
//   3. under DeadlinePolicy::kRejectAtSubmit, the backlog projection
//      `now + (outstanding + 1) * est_job_cycles` meets the job deadline;
//      with instances quarantined by fault handling the estimate is scaled
//      by total/healthy instances (capacity-aware admission).
//
// Admitted jobs carry their absolute deadline into the scheduler; under
// DeadlinePolicy::kDropOnExpiry the scheduler sheds a job whose deadline
// passes before its next op dispatches (JobSpec::shed_on_expiry). Tenant
// priority classes order dispatch under SchedPolicy::kPriority and break
// SJF ties.
//
// Decisions are made at the job's *arrival time* in simulated time (the
// controller schedules itself on the system event queue), so open-loop
// benches can pre-submit traffic exactly like they do against the bare
// scheduler. All bucket math is integer and all state is event-driven, so
// admission decisions are bit-identically deterministic.
#ifndef ARCANE_QOS_ADMISSION_HPP_
#define ARCANE_QOS_ADMISSION_HPP_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/span.hpp"

namespace arcane::qos {

/// Deterministic integer token bucket: capacity `burst` tokens, one token
/// minted every `period` cycles. `period == 0` disables rate limiting
/// (try_take always succeeds). Standalone so the rate math is unit-testable
/// without a System (tests/qos_test.cpp).
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(std::uint64_t burst, std::uint64_t period)
      : burst_(burst), period_(period), tokens_(burst) {}

  /// Tokens available at `now` (refill applied). `now` must be monotone
  /// across calls — the controller only calls from event context.
  std::uint64_t available(Cycle now) {
    refill(now);
    return period_ == 0 ? ~std::uint64_t{0} : tokens_;
  }

  bool try_take(Cycle now) {
    if (period_ == 0) return true;
    refill(now);
    if (tokens_ == 0) return false;
    --tokens_;
    return true;
  }

 private:
  void refill(Cycle now) {
    if (period_ == 0 || tokens_ >= burst_) {
      // A full bucket banks no credit: the refill clock restarts when the
      // next token is taken.
      last_refill_ = now;
      return;
    }
    const std::uint64_t minted = (now - last_refill_) / period_;
    tokens_ = std::min(burst_, tokens_ + minted);
    last_refill_ =
        tokens_ >= burst_ ? now : last_refill_ + minted * period_;
  }

  std::uint64_t burst_ = 0;
  std::uint64_t period_ = 0;
  std::uint64_t tokens_ = 0;
  Cycle last_refill_ = 0;
};

/// One tenant's resolved QoS contract. Zero means unlimited / none for
/// every knob (matching QosConfig semantics).
struct TenantQos {
  unsigned priority = kQosPriorityNormal;  // 0 = highest class
  unsigned queue_cap = 0;       // max outstanding admitted jobs
  unsigned token_burst = 0;     // bucket capacity, in jobs
  std::uint64_t token_period = 0;  // cycles per token
  Cycle deadline = 0;           // default *relative* per-job deadline
};

class AdmissionController {
 public:
  /// The controller fronts `sch` using the system event queue `ev`;
  /// `cfg` supplies the per-tenant defaults and the deadline policy.
  /// It assumes it is the sole submitter for the tenants it registers
  /// (outstanding-job accounting reads the scheduler's tenant stats).
  AdmissionController(sched::Scheduler& sch, sim::EventQueue& ev,
                      const QosConfig& cfg);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Register a tenant with the QosConfig defaults, or an explicit spec
  /// (taken verbatim; zero fields mean unlimited). Returns the tenant id,
  /// shared with the underlying scheduler.
  unsigned add_tenant(std::string name);
  unsigned add_tenant(std::string name, TenantQos spec);

  /// Offer `job` for `tenant` at simulated time `arrival`: the admission
  /// decision (caps, tokens, deadline projection) is evaluated *at
  /// `arrival`* on the event queue, and accepted jobs enter the scheduler
  /// there. Malformed DAGs throw immediately; kernel/shape validation
  /// happens at admission time inside the scheduler.
  void submit(unsigned tenant, sched::JobSpec job, Cycle arrival);

  /// Run the event queue dry; every admitted job completes or is shed.
  void drain() { sch_->drain(); }

  /// Record every admit/reject decision as an instant on the tenant's
  /// span track.
  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }

  unsigned num_tenants() const {
    return static_cast<unsigned>(tenants_.size());
  }
  /// Jobs admitted but not yet completed or shed.
  std::uint64_t outstanding(unsigned tenant) const;
  const sim::QosTenantStats& tenant_qos(unsigned tenant) const {
    return tenants_[tenant].stats;
  }
  const QosConfig& config() const { return *cfg_; }
  sched::Scheduler& scheduler() { return *sch_; }
  const sched::Scheduler& scheduler() const { return *sch_; }

 private:
  struct TenantState {
    TenantQos spec;
    TokenBucket bucket;
    std::uint64_t admitted = 0;
    sim::QosTenantStats stats;
  };

  void decide(unsigned tenant, sched::JobSpec job, Cycle now);

  sched::Scheduler* sch_;
  sim::EventQueue* ev_;
  const QosConfig* cfg_;
  std::vector<TenantState> tenants_;
  telemetry::SpanTracer* spans_ = nullptr;
};

}  // namespace arcane::qos

#endif  // ARCANE_QOS_ADMISSION_HPP_
