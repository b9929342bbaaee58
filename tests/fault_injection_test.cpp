// Deterministic fault injection + failure-aware scheduling tests: the
// fault-disabled path stays bit-identical, fail-stop triggers quarantine +
// failover with DAG ordering preserved, the watchdog fires at the exact
// configured cycle, retry exhaustion fails the job (never hangs the
// drain), and per-tenant retry/failover counters partition the scheduler
// totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "arcane/system.hpp"
#include "sched/job.hpp"
#include "sched/pipelines.hpp"
#include "sched/scheduler.hpp"
#include "telemetry/span.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using sched::PipelineData;
using sched::PipelineSlot;
using workloads::Rng;

SystemConfig fault_config(MemBackendKind backend, unsigned instances) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = backend;
  cfg.sched_instances = instances;
  return cfg;
}

FaultEvent fault_event(FaultKind kind, std::uint64_t at, unsigned instance) {
  FaultEvent e;
  e.kind = kind;
  e.at = at;
  e.instance = instance;
  return e;
}

/// Place `jobs` pipeline jobs (alternating between two tenants), drain,
/// and return (completed reports, makespan, concatenated output bytes).
struct RunResult {
  std::vector<sched::JobReport> completed;
  Cycle makespan = 0;
  std::vector<std::uint8_t> outs;
};

RunResult run_pipelines(System& sys, unsigned jobs) {
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("a");
  const unsigned t1 = sch.add_tenant("b");
  Rng rng(29);
  std::vector<PipelineSlot> slots;
  std::vector<PipelineData> data;
  for (unsigned i = 0; i < jobs; ++i) {
    slots.emplace_back(sys.data_base() + 0x10000 + i * 0x8000);
    data.push_back(sched::random_pipeline_data(rng));
    sched::place_pipeline_data(sys, slots[i], data[i]);
    sch.submit(i % 2 ? t1 : t0, sched::pipeline_job(slots[i]), i * 100);
  }
  sch.drain();
  RunResult r;
  r.completed = sch.completed();
  r.makespan = sch.stats().makespan;
  for (unsigned i = 0; i < jobs; ++i) {
    std::vector<std::uint8_t> buf(4 * 4 * 4);
    sys.read_bytes(slots[i].out, buf);
    r.outs.insert(r.outs.end(), buf.begin(), buf.end());
    const auto out =
        workloads::load_matrix<std::int32_t>(sys, slots[i].out, 4, 4);
    EXPECT_EQ(workloads::count_mismatches(out, sched::golden_pipeline(data[i])),
              0u)
        << "job " << i;
  }
  return r;
}

// An enabled injector with an *empty* fault plan (watchdog armed, retries
// configured) must not move a single cycle relative to a fault-free build,
// on every memory backend.
TEST(FaultDisabledTest, EmptyPlanIsBitIdenticalAcrossBackends) {
  for (MemBackendKind backend :
       {MemBackendKind::kIdealSram, MemBackendKind::kBurstPsram,
        MemBackendKind::kDramTiming}) {
    System plain(fault_config(backend, 2));
    const RunResult a = run_pipelines(plain, 6);

    SystemConfig cfg = fault_config(backend, 2);
    cfg.fault.enabled = true;  // injector constructed, plan empty
    cfg.fault.watchdog_timeout = 500;
    cfg.fault.max_retries = 2;
    cfg.fault.retry_backoff = 100;
    cfg.fault.quarantine_threshold = 2;
    System armed(cfg);
    ASSERT_NE(armed.injector(), nullptr);
    const RunResult b = run_pipelines(armed, 6);

    EXPECT_EQ(a.makespan, b.makespan) << backend_name(backend);
    EXPECT_EQ(a.outs, b.outs) << backend_name(backend);
    ASSERT_EQ(a.completed.size(), b.completed.size());
    for (std::size_t i = 0; i < a.completed.size(); ++i) {
      EXPECT_EQ(a.completed[i].id, b.completed[i].id);
      EXPECT_EQ(a.completed[i].tenant, b.completed[i].tenant);
      EXPECT_EQ(a.completed[i].done, b.completed[i].done);
      EXPECT_EQ(b.completed[i].retries, 0u);
      EXPECT_EQ(b.completed[i].failovers, 0u);
    }
  }
}

// Fail-stop mid-run with later recovery: the doomed in-flight op fails and
// retries on the surviving instance (failover), the instance is
// quarantined and re-admitted, every job still completes with a correct
// result, and nothing is reported failed.
TEST(FaultFailStopTest, FailoverQuarantineAndRecovery) {
  // Dry run to anchor the fault plan mid-load (everything is
  // deterministic, so the makespan is a stable reference point).
  Cycle ref_makespan = 0;
  {
    System sys(fault_config(MemBackendKind::kBurstPsram, 2));
    ref_makespan = run_pipelines(sys, 6).makespan;
  }

  SystemConfig cfg = fault_config(MemBackendKind::kBurstPsram, 2);
  cfg.fault.enabled = true;
  cfg.fault.max_retries = 3;
  cfg.fault.retry_backoff = 64;
  FaultEvent fail =
      fault_event(FaultKind::kInstanceFailStop, ref_makespan / 4, 0);
  fail.recover_at = ref_makespan / 2;
  cfg.fault.events.push_back(fail);
  System sys(cfg);
  const RunResult r = run_pipelines(sys, 6);

  auto& sch = sys.scheduler();
  EXPECT_EQ(r.completed.size(), 6u);
  EXPECT_EQ(sch.stats().jobs_failed, 0u);
  EXPECT_EQ(sch.stats().quarantines, 1u);
  EXPECT_GE(sch.stats().retries, 1u);   // the doomed in-flight op
  EXPECT_GE(sch.stats().failovers, 1u);  // ... re-dispatched elsewhere
  EXPECT_EQ(sys.injector()->stats().instance_failures, 1u);
  EXPECT_EQ(sys.injector()->stats().instance_recoveries, 1u);
  // Recovery re-admitted the instance.
  EXPECT_EQ(sch.num_healthy_instances(), 2u);
  EXPECT_FALSE(sch.instance_quarantined(0));
  // Fault handling slows the run down but never speeds it up.
  EXPECT_GE(r.makespan, ref_makespan);
}

// Permanent fail-stop: the queued work migrates off the dead instance and
// the DAG order (each pipeline op consumes its predecessor's output)
// survives the drain — any inversion corrupts the checked results.
TEST(FaultFailStopTest, QuarantineDrainPreservesDagOrdering) {
  Cycle ref_makespan = 0;
  {
    System sys(fault_config(MemBackendKind::kBurstPsram, 2));
    ref_makespan = run_pipelines(sys, 6).makespan;
  }
  SystemConfig cfg = fault_config(MemBackendKind::kBurstPsram, 2);
  cfg.fault.enabled = true;
  cfg.fault.max_retries = 3;
  cfg.fault.retry_backoff = 64;
  cfg.fault.events.push_back(
      fault_event(FaultKind::kInstanceFailStop, ref_makespan / 3, 1));
  System sys(cfg);
  const RunResult r = run_pipelines(sys, 6);  // verifies every output

  EXPECT_EQ(r.completed.size(), 6u);
  EXPECT_EQ(sys.scheduler().stats().jobs_failed, 0u);
  EXPECT_EQ(sys.scheduler().stats().quarantines, 1u);
  EXPECT_EQ(sys.scheduler().num_healthy_instances(), 1u);
  EXPECT_TRUE(sys.scheduler().instance_quarantined(1));
}

// The watchdog must fire at exactly hang-injection + watchdog_timeout
// cycles (both are instants on the instance's span track), and the hung op
// must retry and complete.
TEST(FaultWatchdogTest, FiresAtTheExactConfiguredCycle) {
  constexpr Cycle kTimeout = 500;
  SystemConfig cfg = fault_config(MemBackendKind::kBurstPsram, 1);
  cfg.fault.enabled = true;
  cfg.fault.watchdog_timeout = kTimeout;
  cfg.fault.max_retries = 1;
  cfg.fault.retry_backoff = 100;
  cfg.fault.events.push_back(fault_event(FaultKind::kOpHang, 0, 0));
  System sys(cfg);
  sys.spans().enable();
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t");
  Rng rng(7);
  PipelineSlot slot(sys.data_base() + 0x10000);
  const PipelineData data = sched::random_pipeline_data(rng);
  sched::place_pipeline_data(sys, slot, data);
  sch.submit(t0, sched::pipeline_job(slot), 0);
  sch.drain();

  Cycle hang_at = 0, watchdog_at = 0;
  unsigned hangs = 0, fires = 0;
  for (const auto& e : sys.spans().events()) {
    if (std::string_view(e.name) == "fault.hang") {
      hang_at = e.begin;
      ++hangs;
    }
    if (std::string_view(e.name) == "sched.watchdog") {
      watchdog_at = e.begin;
      ++fires;
    }
  }
  ASSERT_EQ(hangs, 1u);
  ASSERT_EQ(fires, 1u);
  EXPECT_EQ(watchdog_at, hang_at + kTimeout);
  EXPECT_EQ(sch.stats().watchdog_fires, 1u);
  EXPECT_EQ(sch.stats().retries, 1u);
  EXPECT_EQ(sch.stats().jobs_failed, 0u);
  EXPECT_EQ(sch.stats().jobs_completed, 1u);
  const auto out = workloads::load_matrix<std::int32_t>(sys, slot.out, 4, 4);
  EXPECT_EQ(workloads::count_mismatches(out, sched::golden_pipeline(data)), 0u);
}

// More consecutive transient errors than the retry budget: the job is
// reported *failed* (not dropped, not completed) and the drain terminates;
// the scheduler keeps serving afterwards.
TEST(FaultRetryTest, ExhaustionFailsTheJobWithoutHanging) {
  SystemConfig cfg = fault_config(MemBackendKind::kBurstPsram, 1);
  cfg.fault.enabled = true;
  cfg.fault.max_retries = 1;
  cfg.fault.retry_backoff = 50;
  cfg.fault.events.push_back(fault_event(FaultKind::kTransientError, 0, 0));
  cfg.fault.events.push_back(fault_event(FaultKind::kDmaError, 0, 0));
  System sys(cfg);
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t");
  Rng rng(9);
  PipelineSlot doomed(sys.data_base() + 0x10000);
  sched::place_pipeline_data(sys, doomed, sched::random_pipeline_data(rng));
  sch.submit(t0, sched::pipeline_job(doomed), 0);
  sch.drain();  // must terminate

  ASSERT_EQ(sch.failed().size(), 1u);
  const sched::JobReport rep = sch.failed()[0];
  EXPECT_TRUE(rep.failed);
  EXPECT_FALSE(rep.dropped);
  EXPECT_FALSE(rep.on_time());
  EXPECT_EQ(rep.retries, 1u);
  EXPECT_EQ(sch.stats().jobs_failed, 1u);
  EXPECT_EQ(sch.stats().jobs_completed, 0u);
  EXPECT_EQ(sch.stats().retries, 1u);
  EXPECT_EQ(sys.injector()->stats().transient_errors, 1u);
  EXPECT_EQ(sys.injector()->stats().dma_errors, 1u);

  // The fault plan is spent: a fresh job completes normally.
  PipelineSlot clean(sys.data_base() + 0x20000);
  const PipelineData data = sched::random_pipeline_data(rng);
  sched::place_pipeline_data(sys, clean, data);
  sch.submit(t0, sched::pipeline_job(clean), sys.events().now());
  sch.drain();
  EXPECT_EQ(sch.stats().jobs_completed, 1u);
  const auto out = workloads::load_matrix<std::int32_t>(sys, clean.out, 4, 4);
  EXPECT_EQ(workloads::count_mismatches(out, sched::golden_pipeline(data)), 0u);
}

// Per-tenant retry/failover counters must partition the scheduler totals
// exactly, and every configured transient fault is consumed exactly once.
TEST(FaultCountersTest, TenantCountersPartitionSchedulerTotals) {
  SystemConfig cfg = fault_config(MemBackendKind::kBurstPsram, 2);
  cfg.fault.enabled = true;
  cfg.fault.max_retries = 5;
  cfg.fault.retry_backoff = 32;
  for (unsigned i = 0; i < 4; ++i) {
    cfg.fault.events.push_back(
        fault_event(FaultKind::kTransientError, 0, i % 2));
  }
  System sys(cfg);
  const RunResult r = run_pipelines(sys, 6);
  auto& sch = sys.scheduler();

  EXPECT_EQ(r.completed.size(), 6u);
  EXPECT_EQ(sch.stats().jobs_failed, 0u);
  EXPECT_EQ(sch.stats().retries, 4u);  // each event consumed exactly once
  std::uint64_t retries = 0, failovers = 0, failed = 0;
  for (unsigned t = 0; t < sch.num_tenants(); ++t) {
    retries += sch.tenant_stats(t).retries;
    failovers += sch.tenant_stats(t).failovers;
    failed += sch.tenant_stats(t).jobs_failed;
  }
  EXPECT_EQ(retries, sch.stats().retries);
  EXPECT_EQ(failovers, sch.stats().failovers);
  EXPECT_EQ(failed, sch.stats().jobs_failed);
  std::uint64_t report_retries = 0, report_failovers = 0;
  for (const auto& rep : r.completed) {
    report_retries += rep.retries;
    report_failovers += rep.failovers;
  }
  EXPECT_EQ(report_retries, sch.stats().retries);
  EXPECT_EQ(report_failovers, sch.stats().failovers);
}

// A memory-degradation window stretches external-memory time (so the run
// slows down) without corrupting data, and ends when configured.
TEST(FaultDegradeTest, WindowSlowsTheRunAndPreservesResults) {
  Cycle ref_makespan = 0;
  {
    System sys(fault_config(MemBackendKind::kBurstPsram, 2));
    ref_makespan = run_pipelines(sys, 6).makespan;
  }
  SystemConfig cfg = fault_config(MemBackendKind::kBurstPsram, 2);
  cfg.fault.enabled = true;
  FaultEvent degrade;
  degrade.kind = FaultKind::kMemDegrade;
  degrade.at = ref_makespan / 8;
  degrade.until = ref_makespan / 2;
  degrade.multiplier = 4;
  cfg.fault.events.push_back(degrade);
  System sys(cfg);
  const RunResult r = run_pipelines(sys, 6);  // verifies outputs
  EXPECT_EQ(r.completed.size(), 6u);
  EXPECT_GT(r.makespan, ref_makespan);
  EXPECT_EQ(sys.injector()->stats().degrade_windows, 1u);
  EXPECT_EQ(sys.injector()->multiplier_now(), 1u);  // window over at drain
}

}  // namespace
}  // namespace arcane
