// Recovery benchmark for deterministic fault injection + failure-aware
// scheduling (src/fault/, docs/BENCHMARKS.md): availability, goodput
// retention, tail latency and recovery time of the multi-instance
// kernel-offload scheduler under injected faults.
//
// Every cell runs the same deadline-carrying open-loop inference load (the
// canonical 4-op pipeline job, 4 tenants across priority classes, shed on
// expiry) twice: once fault-free (the in-cell reference — recomputed per
// cell so sharded sweeps stay byte-identical) and once under the cell's
// fault scenario:
//
//  * none      — plan disabled; retention is 100% by construction.
//  * failstop  — instance 0 fail-stops mid-run and recovers later:
//                quarantine, queue migration, doomed-op failover,
//                re-admission.
//  * hang      — two kernels hang on different instances; the per-op
//                watchdog aborts them and retries elsewhere.
//  * transient — one transient/DMA error per instance; bounded retry with
//                idempotent re-dispatch, no capacity loss.
//  * degrade   — external memory slows 4x for a window; paid identically
//                by every backend through the shared DegradeView hook.
//
// Reported per tenant and aggregated: availability (completed/offered),
// goodput (on-time jobs/sec) and its retention vs the reference, p50/p99
// latency, retry/failover/watchdog/quarantine counts, and recovery_cycles
// — the delay from the end of the disturbance until the first completion
// whose latency is back within the reference p99 (a finite value is the
// "system recovers" acceptance signal). Grid cells: backend x scenario.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arcane/system.hpp"
#include "bench_json.hpp"
#include "sched/pipelines.hpp"
#include "sched/scheduler.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;
using workloads::Rng;

namespace {

// Operating point (psram anchor): 4 tenants x one pipeline job every 30k
// cycles ~ 55% of the 4-instance service capacity (~1 job / 7.3k cycles),
// so the fault-free reference keeps every deadline while a lost instance
// or a degraded memory pushes the backlog into the 90k-cycle SLO.
constexpr unsigned kTenants = 4;
constexpr Cycle kOpenInterval = 30000;  // per-tenant arrival period (cycles)
constexpr Cycle kDeadline = 90000;      // relative completion SLO (cycles)

unsigned tenant_priority(unsigned t) {
  if (t == 0) return kQosPriorityHigh;
  if (t == 3) return kQosPriorityLow;
  return kQosPriorityNormal;
}

constexpr const char* priority_name(unsigned p) {
  switch (p) {
    case kQosPriorityHigh: return "high";
    case kQosPriorityNormal: return "normal";
    case kQosPriorityLow: return "low";
  }
  return "?";
}

constexpr const char* kScenarios[] = {"none", "failstop", "hang", "transient",
                                      "degrade"};

FaultEvent fault_event(FaultKind kind, Cycle at, unsigned instance) {
  FaultEvent e;
  e.kind = kind;
  e.at = at;
  e.instance = instance;
  return e;
}

/// The cell's fault plan plus the disturbance window it creates, anchored
/// to the reference makespan `m` (everything is deterministic, so the
/// anchor is stable across runs and shards).
struct Scenario {
  FaultConfig fault;
  Cycle disturbance_start = 0;
  Cycle disturbance_end = 0;
};

Scenario make_scenario(const std::string& name, Cycle m, unsigned instances) {
  Scenario s;
  if (name == "none") return s;
  s.fault.enabled = true;
  s.fault.watchdog_timeout = 2000;
  s.fault.max_retries = 3;
  s.fault.retry_backoff = 256;
  s.fault.quarantine_threshold = 2;
  if (name == "failstop") {
    FaultEvent fail = fault_event(FaultKind::kInstanceFailStop, m / 4, 0);
    fail.recover_at = m / 2;
    s.fault.events.push_back(fail);
    s.disturbance_start = m / 4;
    s.disturbance_end = m / 2;
  } else if (name == "hang") {
    s.fault.events.push_back(fault_event(FaultKind::kOpHang, m / 8, 0));
    s.fault.events.push_back(
        fault_event(FaultKind::kOpHang, m / 4, 1 % instances));
    s.disturbance_start = m / 8;
    s.disturbance_end = m / 4 + s.fault.watchdog_timeout;
  } else if (name == "transient") {
    for (unsigned i = 0; i < instances; ++i) {
      s.fault.events.push_back(fault_event(
          i % 2 ? FaultKind::kDmaError : FaultKind::kTransientError, 0, i));
    }
    s.disturbance_start = 0;
    s.disturbance_end = 0;
  } else if (name == "degrade") {
    FaultEvent win;
    win.kind = FaultKind::kMemDegrade;
    win.at = m / 8;
    win.until = 3 * m / 8;
    win.multiplier = 4;
    s.fault.events.push_back(win);
    s.disturbance_start = win.at;
    s.disturbance_end = win.until;
  }
  return s;
}

struct TenantResult {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  std::uint64_t on_time = 0;
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  Cycle p50 = 0, p99 = 0;          // over completed jobs
  sim::OpStallBreakdown stalls{};  // stall_* informational fields
};

struct RunResult {
  Cycle makespan = 0;
  double clock_mhz = 0.0;
  double host_wall_ms = 0.0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t faults_injected = 0;
  Cycle recovery_cycles = 0;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  std::vector<TenantResult> tenants;
  TenantResult all;
  std::vector<sched::JobReport> completed;  // recovery_cycles input
};

RunResult run_load(const SystemConfig& cfg, unsigned jobs_per_tenant,
                   benchjson::TelemetryCollector* telem,
                   const std::string& run_name) {
  System sys(cfg);
  if (telem != nullptr && telem->tracing()) sys.spans().enable();
  if (telem != nullptr && telem->metrics_enabled()) sys.op_log().enable();
  auto& sch = sys.scheduler();
  for (unsigned t = 0; t < kTenants; ++t) {
    sch.add_tenant("tenant" + std::to_string(t), tenant_priority(t));
  }
  std::vector<sched::PipelineSlot> slots;
  slots.reserve(kTenants * jobs_per_tenant);
  for (unsigned t = 0; t < kTenants; ++t) {
    Rng rng(1000 + t);
    for (unsigned j = 0; j < jobs_per_tenant; ++j) {
      const Addr base =
          sys.data_base() + 0x10000 + (t * jobs_per_tenant + j) * 0x8000;
      slots.emplace_back(base);
      sched::place_pipeline_data(sys, slots.back(),
                                 sched::random_pipeline_data(rng));
    }
  }
  for (unsigned t = 0; t < kTenants; ++t) {
    for (unsigned j = 0; j < jobs_per_tenant; ++j) {
      const Cycle arrival =
          j * kOpenInterval + t * (kOpenInterval / kTenants);
      sched::JobSpec job =
          sched::pipeline_job(slots[t * jobs_per_tenant + j]);
      job.deadline = arrival + kDeadline;
      job.shed_on_expiry = true;
      sch.submit(t, std::move(job), arrival);
    }
  }
  sch.drain();

  RunResult r;
  r.makespan = sch.stats().makespan;
  r.clock_mhz = cfg.clock_mhz;
  r.watchdog_fires = sch.stats().watchdog_fires;
  r.quarantines = sch.stats().quarantines;
  if (sys.injector() != nullptr) {
    r.faults_injected = sys.injector()->stats().injected;
  }
  r.tenants.resize(kTenants);
  for (unsigned t = 0; t < kTenants; ++t) {
    TenantResult& tr = r.tenants[t];
    const auto& ts = sch.tenant_stats(t);
    tr.offered = jobs_per_tenant;
    tr.completed = ts.jobs_completed;
    tr.dropped = ts.jobs_dropped;
    tr.failed = ts.jobs_failed;
    tr.on_time = ts.jobs_on_time;
    tr.retries = ts.retries;
    tr.failovers = ts.failovers;
    const benchjson::LatencyPercentiles lat =
        benchjson::latency_percentiles(sch, t);
    tr.p50 = lat.p50;
    tr.p99 = lat.p99;
    tr.stalls = sch.tenant_stalls(t);

    r.all.offered += tr.offered;
    r.all.completed += tr.completed;
    r.all.dropped += tr.dropped;
    r.all.failed += tr.failed;
    r.all.on_time += tr.on_time;
    r.all.retries += tr.retries;
    r.all.failovers += tr.failovers;
  }
  const benchjson::LatencyPercentiles lat = benchjson::latency_percentiles(sch);
  r.all.p50 = lat.p50;
  r.all.p99 = lat.p99;
  r.all.stalls = sch.stall_totals();
  r.completed = sch.completed();
  r.spans_recorded = sys.spans().size();
  r.spans_dropped = sys.spans().dropped();
  if (telem != nullptr) {
    telem->collect(run_name, sys.spans(), sys.metrics(), sys.scheduler(),
                   &sys.op_log());
  }
  return r;
}

/// Cycles from the end of the disturbance until service is demonstrably
/// back to reference quality: the first completion at or after
/// `disturbance_end` whose latency is within the reference p99. Falls back
/// to the full post-disturbance tail when no completion requalifies
/// (still finite — the drain terminated).
Cycle recovery_cycles_from(const std::vector<sched::JobReport>& completed,
                           Cycle disturbance_end, Cycle ref_p99,
                           Cycle makespan) {
  Cycle best = 0;
  bool found = false;
  for (const auto& rep : completed) {
    if (rep.done < disturbance_end) continue;
    if (rep.done - rep.arrival > ref_p99) continue;
    if (!found || rep.done < best) {
      best = rep.done;
      found = true;
    }
  }
  if (!found) return makespan > disturbance_end ? makespan - disturbance_end
                                                : 0;
  return best - disturbance_end;
}

void emit(benchjson::Report& report, bool human, const std::string& scenario,
          const char* who, const char* priority, MemBackendKind backend,
          SchedPolicy policy, unsigned instances, const RunResult& r,
          const TenantResult& tr, const TenantResult& ref) {
  const double seconds =
      static_cast<double>(r.makespan) / (r.clock_mhz * 1e6);
  const double throughput =
      seconds > 0.0 ? static_cast<double>(tr.completed) / seconds : 0.0;
  const double goodput =
      seconds > 0.0 ? static_cast<double>(tr.on_time) / seconds : 0.0;
  const double availability =
      tr.offered ? 100.0 * static_cast<double>(tr.completed) /
                       static_cast<double>(tr.offered)
                 : 0.0;
  // Retention compares on-time *counts* (not rates): both runs serve the
  // same offered jobs, so counts are the load-invariant basis.
  const double retention =
      ref.on_time ? 100.0 * static_cast<double>(tr.on_time) /
                        static_cast<double>(ref.on_time)
                  : 100.0;
  char name[64];
  std::snprintf(name, sizeof(name), "%s/%s", scenario.c_str(), who);
  auto& row = report.row()
      .str("case", name)
      .str("scenario", scenario)
      .str("backend", backend_name(backend))
      .str("policy", sched_policy_name(policy))
      .num("instances", instances)
      .str("priority", priority)
      .num("offered", tr.offered)
      .num("completed", tr.completed)
      .num("dropped", tr.dropped)
      .num("failed", tr.failed)
      .num("on_time", tr.on_time)
      .num("retries", tr.retries)
      .num("failovers", tr.failovers)
      .num("availability_pct", availability)
      .num("throughput_rps", throughput)
      .num("goodput_rps", goodput)
      .num("goodput_retention_pct", retention)
      .num("p50_latency_cycles", static_cast<std::uint64_t>(tr.p50))
      .num("p99_latency_cycles", static_cast<std::uint64_t>(tr.p99))
      .num("recovery_cycles", static_cast<std::uint64_t>(r.recovery_cycles))
      .num("watchdog_fires", r.watchdog_fires)
      .num("quarantines", r.quarantines)
      .num("faults_injected", r.faults_injected)
      .num("host_wall_ms", r.host_wall_ms)
      .num("telemetry_spans_recorded", r.spans_recorded)
      .num("telemetry_spans_dropped", r.spans_dropped);
  benchjson::add_stall_fields(row, tr.stalls);
  if (human) {
    std::printf(
        "  %-20s %-6s: avail %5.1f%%  retention %5.1f%%  p99 %8llu cyc  "
        "recovery %7llu cyc  retry %llu  failover %llu\n",
        name, priority, availability, retention,
        static_cast<unsigned long long>(tr.p99),
        static_cast<unsigned long long>(r.recovery_cycles),
        static_cast<unsigned long long>(tr.retries),
        static_cast<unsigned long long>(tr.failovers));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("fault_recovery");
  h.add_choice("scenario", "--scenario", "ARCANE_BENCH_SCENARIO",
               {"none", "failstop", "hang", "transient", "degrade"},
               "restrict to one fault scenario");
  h.add_choice("instances", "--instances", "ARCANE_BENCH_INSTANCES",
               {"4", "2"}, "scheduler instances (default: 4)");
  h.grid().add_product({{"backend", {}}, {"scenario", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  const unsigned instances = h.is("instances", "4") ? 4 : 2;
  const SchedPolicy policy = opt.sched_policy.value_or(SchedPolicy::kPriority);
  const unsigned lanes = opt.lanes.value_or(4);
  const unsigned jobs_per_tenant = 24;
  const bool human = !opt.json;
  benchjson::Report report("fault_recovery");
  benchjson::TelemetryCollector telem(opt);

  if (human) {
    std::printf(
        "Fault recovery (%u tenants, %u jobs/tenant, deadline %llu cyc, "
        "%u instances, policy %s)\n\n",
        kTenants, jobs_per_tenant,
        static_cast<unsigned long long>(kDeadline), instances,
        sched_policy_name(policy));
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    if (human) std::printf("backend %s:\n", backend_name(backend));
    SystemConfig base = SystemConfig::paper(lanes);
    base.mem.backend = backend;
    base.sched_instances = instances;
    base.sched_policy = policy;
    if (opt.replacement) base.llc.replacement = *opt.replacement;

    for (const char* scenario : kScenarios) {
      if (!h.is("scenario", scenario)) continue;
      const benchjson::WallTimer cell_timer;
      // In-cell fault-free reference: anchors the fault plan, the goodput
      // retention basis and the recovery-qualification latency.
      const RunResult ref = run_load(base, jobs_per_tenant, nullptr, "");
      const Scenario sc =
          make_scenario(scenario, ref.makespan, instances);

      SystemConfig cfg = base;
      cfg.fault = sc.fault;
      const std::string run_name =
          std::string(backend_name(backend)) + " " + scenario;
      RunResult r = run_load(cfg, jobs_per_tenant, &telem, run_name);
      if (std::string(scenario) != "none") {
        r.recovery_cycles = recovery_cycles_from(
            r.completed, sc.disturbance_end, ref.all.p99, r.makespan);
      }
      r.host_wall_ms = cell_timer.ms();
      for (unsigned t = 0; t < kTenants; ++t) {
        char who[16];
        std::snprintf(who, sizeof(who), "tenant%u", t);
        emit(report, human, scenario, who, priority_name(tenant_priority(t)),
             backend, policy, instances, r, r.tenants[t], ref.tenants[t]);
      }
      emit(report, human, scenario, "all", "all", backend, policy, instances,
           r, r.all, ref.all);
    }
    if (human) std::printf("\n");
  }
  telem.finish("fault_recovery");
  if (opt.json) report.print();
  return 0;
}
