#include "qos/admission.hpp"

#include <utility>

namespace arcane::qos {

AdmissionController::AdmissionController(sched::Scheduler& sch,
                                         sim::EventQueue& ev,
                                         const QosConfig& cfg)
    : sch_(&sch), ev_(&ev), cfg_(&cfg) {}

unsigned AdmissionController::add_tenant(std::string name) {
  TenantQos spec;
  spec.priority = cfg_->default_priority;
  spec.queue_cap = cfg_->queue_cap;
  spec.token_burst = cfg_->token_burst;
  spec.token_period = cfg_->token_period;
  spec.deadline = cfg_->deadline;
  return add_tenant(std::move(name), spec);
}

unsigned AdmissionController::add_tenant(std::string name, TenantQos spec) {
  ARCANE_CHECK(spec.token_period == 0 || spec.token_burst >= 1,
               "token-bucket rate limit needs a burst of at least 1 job");
  const unsigned id = sch_->add_tenant(std::move(name), spec.priority);
  ARCANE_CHECK(id == tenants_.size(),
               "admission controller must be the sole tenant registrar");
  TenantState st;
  st.spec = spec;
  st.bucket = TokenBucket(spec.token_burst, spec.token_period);
  tenants_.push_back(std::move(st));
  return id;
}

std::uint64_t AdmissionController::outstanding(unsigned tenant) const {
  const TenantState& st = tenants_[tenant];
  const sim::TenantStats& ts = sch_->tenant_stats(tenant);
  const std::uint64_t resolved =
      ts.jobs_completed + ts.jobs_dropped + ts.jobs_failed;
  ARCANE_ASSERT(st.admitted >= resolved, "admission accounting underflow");
  return st.admitted - resolved;
}

void AdmissionController::submit(unsigned tenant, sched::JobSpec job,
                                 Cycle arrival) {
  ARCANE_CHECK(tenant < tenants_.size(),
               "submit for unknown tenant " << tenant);
  const std::string why = sched::validate(job);
  ARCANE_CHECK(why.empty(), "malformed job: " << why);
  const Cycle when = std::max(arrival, ev_->now());
  ev_->schedule(
      when,
      [this, tenant, job = std::move(job)]() mutable {
        decide(tenant, std::move(job), ev_->now());
      },
      "qos.admit");
}

void AdmissionController::decide(unsigned tenant, sched::JobSpec job,
                                 Cycle now) {
  TenantState& st = tenants_[tenant];
  sim::QosTenantStats& qs = st.stats;
  ++qs.jobs_offered;

  if (!cfg_->enabled) {
    // Pass-through: no caps, no tokens, no deadlines attached — the
    // scheduler behaves exactly as if driven directly. Peak-outstanding
    // tracking stays live so disabled-admission bench rows still report
    // how deep the uncontrolled backlog grew.
    const std::uint64_t out = outstanding(tenant);
    ++qs.jobs_accepted;
    ++st.admitted;
    qs.max_outstanding = std::max(qs.max_outstanding, out + 1);
    sch_->submit(tenant, std::move(job), now);
    return;
  }

  // Resolve the deadline: an explicit absolute deadline on the job wins,
  // otherwise the tenant's relative default anchored at arrival.
  if (job.deadline == 0 && st.spec.deadline != 0) {
    job.deadline = now + st.spec.deadline;
  }

  const auto reject = [&](const char* name) {
    if (spans_ != nullptr) {
      spans_->instant(telemetry::track_tenant(tenant), name, now,
                      static_cast<std::int32_t>(tenant));
    }
  };
  const std::uint64_t out = outstanding(tenant);
  if (st.spec.queue_cap != 0 && out >= st.spec.queue_cap) {
    ++qs.rejected_queue_cap;
    reject("qos.reject.queue_cap");
    return;
  }
  if (st.spec.token_period != 0 && st.bucket.available(now) == 0) {
    ++qs.rejected_rate;
    reject("qos.reject.rate");
    return;
  }
  if (cfg_->deadline_policy == DeadlinePolicy::kRejectAtSubmit &&
      job.deadline != 0) {
    // Capacity-aware projection: with instances quarantined the backlog
    // drains proportionally slower, so scale the per-job estimate by
    // total/healthy (exactly 1 with every instance healthy — bit-identical
    // to the capacity-blind projection when faults are off).
    Cycle est = cfg_->est_job_cycles;
    const unsigned healthy = sch_->num_healthy_instances();
    if (healthy < sch_->num_instances() && healthy > 0) {
      est = est * sch_->num_instances() / healthy;
    }
    const Cycle projected = now + (out + 1) * est;
    if (now >= job.deadline || projected > job.deadline) {
      ++qs.rejected_deadline;
      reject("qos.reject.deadline");
      return;
    }
  }

  const bool took = st.bucket.try_take(now);
  ARCANE_ASSERT(took, "token vanished between check and take");
  job.shed_on_expiry =
      cfg_->deadline_policy == DeadlinePolicy::kDropOnExpiry;
  ++qs.jobs_accepted;
  ++st.admitted;
  qs.max_outstanding = std::max(qs.max_outstanding, out + 1);
  if (spans_ != nullptr) {
    spans_->instant(telemetry::track_tenant(tenant), "qos.admit", now,
                    static_cast<std::int32_t>(tenant));
  }
  sch_->submit(tenant, std::move(job), now);
}

}  // namespace arcane::qos
