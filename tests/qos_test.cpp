// QoS subsystem tests (src/qos/): token-bucket rate math, per-tenant
// queue-depth cap enforcement, deadline shedding (drop-on-expiry and
// reject-at-submit) with golden-checked results, absence of priority
// inversion under the overdriven mix, bit-identical determinism and
// cross-backend equivalence of admission decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "arcane/system.hpp"
#include "qos/admission.hpp"
#include "sched/pipelines.hpp"
#include "sched/scheduler.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using sched::PipelineData;
using sched::PipelineSlot;
using workloads::Rng;

SystemConfig qos_config(MemBackendKind backend = MemBackendKind::kBurstPsram,
                        SchedPolicy policy = SchedPolicy::kFifo) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = backend;
  cfg.sched_policy = policy;
  cfg.qos.enabled = true;
  return cfg;
}

/// Per-job inputs for golden checks, indexed by JobSpec::tag.
struct Workload {
  std::vector<PipelineSlot> slots;
  std::vector<PipelineData> data;
};

/// Each job's JobSpec::tag is its index into slots/data, so reports map
/// back to their inputs regardless of admission interleaving.
Workload offer_pipeline_jobs(System& sys, qos::AdmissionController& adm,
                             unsigned tenants, unsigned jobs_per_tenant,
                             Cycle interval, Cycle rel_deadline = 0) {
  Workload w;
  for (unsigned t = 0; t < tenants; ++t) {
    Rng rng(100 + t);
    for (unsigned j = 0; j < jobs_per_tenant; ++j) {
      const Addr base =
          sys.data_base() + 0x10000 +
          (t * jobs_per_tenant + j) * 0x8000;
      w.slots.emplace_back(base);
      w.data.push_back(sched::random_pipeline_data(rng));
      sched::place_pipeline_data(sys, w.slots.back(), w.data.back());
      sched::JobSpec job = sched::pipeline_job(w.slots.back());
      const Cycle arrival = j * interval + t * (interval / tenants);
      if (rel_deadline != 0) job.deadline = arrival + rel_deadline;
      job.tag = w.slots.size() - 1;
      adm.submit(t, std::move(job), arrival);
    }
  }
  return w;
}

TEST(QosTokenBucketTest, RateMathIsExact) {
  qos::TokenBucket b(/*burst=*/2, /*period=*/100);
  // Burst drains immediately; a third take at t=0 fails.
  EXPECT_TRUE(b.try_take(0));
  EXPECT_TRUE(b.try_take(0));
  EXPECT_FALSE(b.try_take(0));
  // One cycle short of the refill: still empty.
  EXPECT_EQ(b.available(99), 0u);
  EXPECT_FALSE(b.try_take(99));
  // Exactly one token at t=100 (the bucket was empty since t=0).
  EXPECT_EQ(b.available(100), 1u);
  EXPECT_TRUE(b.try_take(100));
  EXPECT_FALSE(b.try_take(199));
  // Long idle refills to the burst cap, never beyond.
  EXPECT_EQ(b.available(10000), 2u);
  EXPECT_TRUE(b.try_take(10000));
  EXPECT_TRUE(b.try_take(10000));
  EXPECT_FALSE(b.try_take(10000));
  // A full bucket banks no credit: sitting full from t=10000 to t=20000
  // then draining leaves the next token a full period away.
  qos::TokenBucket full(1, 1000);
  EXPECT_EQ(full.available(5000), 1u);
  EXPECT_TRUE(full.try_take(5000));
  EXPECT_FALSE(full.try_take(5999));
  EXPECT_TRUE(full.try_take(6000));
  // period == 0 disables rate limiting entirely.
  qos::TokenBucket off;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(off.try_take(0));
}

TEST(QosCapTest, QueueDepthNeverExceedsCap) {
  SystemConfig cfg = qos_config();
  cfg.qos.queue_cap = 2;
  System sys(cfg);
  auto& adm = sys.admission();
  auto& sch = sys.scheduler();
  adm.add_tenant("t");
  // The completion callback observes outstanding at every resolution
  // boundary; together with max_outstanding (updated at every admission)
  // this samples the depth at each point it can change.
  sch.set_on_job_done([&](const sched::JobReport&) {
    EXPECT_LE(adm.outstanding(0), 2u);
  });
  // Heavy overdrive: 16 jobs offered every 500 cycles vs ~10k cycles of
  // service each.
  offer_pipeline_jobs(sys, adm, 1, 16, 500);
  adm.drain();

  const auto& qs = adm.tenant_qos(0);
  EXPECT_EQ(qs.jobs_offered, 16u);
  EXPECT_GT(qs.rejected_queue_cap, 0u);
  EXPECT_LE(qs.max_outstanding, 2u);
  EXPECT_EQ(qs.jobs_accepted + qs.jobs_rejected(), qs.jobs_offered);
  // No deadlines: every accepted job completes.
  EXPECT_EQ(sch.tenant_stats(0).jobs_completed, qs.jobs_accepted);
  EXPECT_EQ(sch.stats().jobs_dropped, 0u);
}

TEST(QosRateTest, TokenBucketLimitsAdmission) {
  SystemConfig cfg = qos_config();
  cfg.qos.token_burst = 1;
  cfg.qos.token_period = 8000;
  System sys(cfg);
  auto& adm = sys.admission();
  adm.add_tenant("t");
  // 12 offers at 1000-cycle spacing span 11000 cycles: the bucket admits
  // the t=0 burst plus the refill at t=8000 — exactly 2 jobs.
  offer_pipeline_jobs(sys, adm, 1, 12, 1000);
  adm.drain();

  const auto& qs = adm.tenant_qos(0);
  EXPECT_EQ(qs.jobs_accepted, 2u);
  EXPECT_EQ(qs.rejected_rate, 10u);
  EXPECT_EQ(sys.scheduler().tenant_stats(0).jobs_completed, 2u);
}

TEST(QosDeadlineTest, DropOnExpiryShedsAndKeepsResultsCorrect) {
  SystemConfig cfg = qos_config();
  cfg.qos.queue_cap = 4;
  // Relative SLO sitting inside the loaded-latency distribution at 8
  // outstanding jobs: roughly half the admitted jobs expire in queue.
  cfg.qos.deadline = 40000;
  cfg.qos.deadline_policy = DeadlinePolicy::kDropOnExpiry;
  System sys(cfg);
  auto& adm = sys.admission();
  auto& sch = sys.scheduler();
  adm.add_tenant("a");
  adm.add_tenant("b");
  const Workload w = offer_pipeline_jobs(sys, adm, 2, 8, 1000);
  adm.drain();

  std::uint64_t accepted = 0, completed = 0, dropped = 0;
  for (unsigned t = 0; t < 2; ++t) {
    accepted += adm.tenant_qos(t).jobs_accepted;
    completed += sch.tenant_stats(t).jobs_completed;
    dropped += sch.tenant_stats(t).jobs_dropped;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(accepted, completed + dropped);
  EXPECT_EQ(sch.shed().size(), dropped);
  EXPECT_EQ(sch.stats().ops_cancelled + sch.stats().ops_completed,
            accepted * 4);
  for (const auto& rep : sch.shed()) {
    EXPECT_TRUE(rep.dropped);
    EXPECT_GE(rep.done, rep.deadline);
  }
  // Every *completed* job's result matches the golden pipeline — load
  // shedding never corrupts surviving work.
  for (const auto& rep : sch.completed()) {
    const std::size_t idx = static_cast<std::size_t>(rep.tag);
    const auto out = workloads::load_matrix<std::int32_t>(
        sys, w.slots[idx].out, 4, 4);
    EXPECT_EQ(workloads::count_mismatches(
                  out, sched::golden_pipeline(w.data[idx])),
              0u)
        << "job " << rep.id;
  }
}

TEST(QosDeadlineTest, RejectAtSubmitUsesBacklogProjection) {
  SystemConfig cfg = qos_config();
  cfg.qos.deadline = 25000;
  cfg.qos.deadline_policy = DeadlinePolicy::kRejectAtSubmit;
  cfg.qos.est_job_cycles = 10000;
  System sys(cfg);
  auto& adm = sys.admission();
  auto& sch = sys.scheduler();
  adm.add_tenant("t");
  offer_pipeline_jobs(sys, adm, 1, 10, 1000);
  adm.drain();

  const auto& qs = adm.tenant_qos(0);
  // (outstanding + 1) * 10000 <= 25000 admits at most 2 outstanding.
  EXPECT_GT(qs.rejected_deadline, 0u);
  EXPECT_LE(qs.max_outstanding, 2u);
  // Reject-at-submit never drops: accepted jobs run to completion (late
  // ones count as deadline misses instead).
  EXPECT_EQ(sch.stats().jobs_dropped, 0u);
  EXPECT_EQ(sch.tenant_stats(0).jobs_completed, qs.jobs_accepted);
  EXPECT_EQ(sch.tenant_stats(0).jobs_on_time +
                sch.tenant_stats(0).deadline_misses,
            qs.jobs_accepted);
}

// The overdriven skewed mix of bench/qos_slo: under SchedPolicy::kPriority
// the high-priority tenant's completed-job p99 must not exceed its p99
// under plain FIFO (no priority inversion: the priority class can only
// help).
TEST(QosPriorityTest, HighPriorityP99AtMostFifoP99UnderOverdrive) {
  auto high_tenant_p99 = [](SchedPolicy policy) {
    SystemConfig cfg = qos_config(MemBackendKind::kBurstPsram, policy);
    cfg.qos.queue_cap = 3;
    cfg.qos.token_burst = 1;
    cfg.qos.token_period = 16000;
    cfg.qos.deadline = 60000;
    cfg.qos.deadline_policy = DeadlinePolicy::kDropOnExpiry;
    System sys(cfg);
    auto& adm = sys.admission();
    for (unsigned t = 0; t < 4; ++t) {
      qos::TenantQos spec;
      spec.priority = t == 0 ? kQosPriorityHigh : kQosPriorityLow;
      spec.queue_cap = 3;
      spec.token_burst = 1;
      spec.token_period = 16000;
      spec.deadline = 60000;
      adm.add_tenant(std::string("t").append(std::to_string(t)), spec);
    }
    offer_pipeline_jobs(sys, adm, 4, 16, 6000);
    adm.drain();
    std::vector<Cycle> lat;
    for (const auto& rep : sys.scheduler().completed()) {
      if (rep.tenant == 0) lat.push_back(rep.latency());
    }
    EXPECT_FALSE(lat.empty());
    std::sort(lat.begin(), lat.end());
    return lat.empty() ? Cycle{0} : lat[(lat.size() - 1) * 99 / 100];
  };
  const Cycle prio = high_tenant_p99(SchedPolicy::kPriority);
  const Cycle fifo = high_tenant_p99(SchedPolicy::kFifo);
  EXPECT_LE(prio, fifo) << "priority " << prio << " vs fifo " << fifo;
}

TEST(QosDeterminismTest, RepeatedRunsAreBitIdentical) {
  auto run = [] {
    SystemConfig cfg =
        qos_config(MemBackendKind::kDramTiming, SchedPolicy::kPriority);
    cfg.qos.queue_cap = 3;
    cfg.qos.token_burst = 2;
    cfg.qos.token_period = 12000;
    cfg.qos.deadline = 50000;
    cfg.qos.deadline_policy = DeadlinePolicy::kDropOnExpiry;
    System sys(cfg);
    auto& adm = sys.admission();
    adm.add_tenant("a");
    adm.add_tenant("b");
    const Workload w = offer_pipeline_jobs(sys, adm, 2, 10, 3000);
    adm.drain();
    auto& sch = sys.scheduler();
    std::vector<std::uint8_t> outs;
    for (const auto& rep : sch.completed()) {
      std::vector<std::uint8_t> buf(4 * 4 * 4);
      sys.read_bytes(w.slots[rep.tag].out, buf);
      outs.insert(outs.end(), buf.begin(), buf.end());
    }
    std::vector<std::uint64_t> resolved;
    for (const auto& rep : sch.completed()) {
      resolved.push_back(rep.id);
      resolved.push_back(rep.done);
    }
    for (const auto& rep : sch.shed()) {
      resolved.push_back(rep.id);
      resolved.push_back(rep.done);
    }
    return std::tuple(outs, resolved, adm.tenant_qos(0).jobs_accepted,
                      adm.tenant_qos(1).jobs_rejected(),
                      sch.stats().makespan);
  };
  EXPECT_EQ(run(), run());
}

// Admission decisions that depend only on arrivals (token rate, no caps or
// deadlines) are identical across external-memory backends, and the
// surviving jobs' outputs are bit-equal.
TEST(QosBackendTest, RateOnlyAdmissionIsBackendInvariant) {
  auto run = [](MemBackendKind backend) {
    SystemConfig cfg = qos_config(backend);
    cfg.qos.token_burst = 2;
    cfg.qos.token_period = 10000;
    System sys(cfg);
    auto& adm = sys.admission();
    adm.add_tenant("t");
    const Workload w = offer_pipeline_jobs(sys, adm, 1, 12, 2500);
    adm.drain();
    auto& sch = sys.scheduler();
    std::vector<std::uint8_t> outs;
    for (const auto& rep : sch.completed()) {
      std::vector<std::uint8_t> buf(4 * 4 * 4);
      sys.read_bytes(w.slots[rep.tag].out, buf);
      outs.insert(outs.end(), buf.begin(), buf.end());
    }
    return std::tuple(adm.tenant_qos(0).jobs_accepted,
                      adm.tenant_qos(0).rejected_rate, outs);
  };
  const auto ideal = run(MemBackendKind::kIdealSram);
  const auto psram = run(MemBackendKind::kBurstPsram);
  const auto dram = run(MemBackendKind::kDramTiming);
  EXPECT_GT(std::get<0>(ideal), 0u);
  EXPECT_GT(std::get<1>(ideal), 0u);
  EXPECT_EQ(ideal, psram);
  EXPECT_EQ(psram, dram);
}

// With QoS disabled the admission controller is a pure pass-through: the
// scheduler sees exactly the direct-submission stream (legacy behaviour).
TEST(QosDisabledTest, PassThroughMatchesDirectSubmission) {
  auto run = [](bool through_qos) {
    SystemConfig cfg = SystemConfig::paper(4);
    System sys(cfg);
    auto& sch = sys.scheduler();
    Rng rng(42);
    std::vector<PipelineSlot> slots;
    unsigned tenant;
    if (through_qos) {
      tenant = sys.admission().add_tenant("t");
    } else {
      tenant = sch.add_tenant("t");
    }
    for (unsigned j = 0; j < 4; ++j) {
      slots.emplace_back(sys.data_base() + 0x10000 + j * 0x8000);
      sched::place_pipeline_data(sys, slots.back(),
                                 sched::random_pipeline_data(rng));
      if (through_qos) {
        sys.admission().submit(tenant, sched::pipeline_job(slots.back()),
                               j * 2000);
      } else {
        sch.submit(tenant, sched::pipeline_job(slots.back()), j * 2000);
      }
    }
    sys.drain();
    std::vector<std::uint64_t> dones;
    for (const auto& rep : sch.completed()) dones.push_back(rep.done);
    return std::pair(dones, sch.stats().makespan);
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace arcane
