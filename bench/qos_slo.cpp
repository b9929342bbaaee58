// SLO-aware serving of the kernel-offload scheduler under QoS admission
// control (src/qos/): goodput vs raw throughput, drop/reject rates, p99 job
// latency and deadline-miss rates across tenants x priority classes x
// external-memory backends.
//
// Every job is the canonical conv2d -> leaky_relu -> maxpool -> gemm
// inference request (src/sched/pipelines.hpp) with a relative completion
// deadline. Three sections per backend:
//
//  * open/ref — overdriven open-loop (tenants submit far above service
//    capacity) with admission DISABLED: the unbounded-queue reference.
//    Every queue grows with the offered load, p99 diverges with job count
//    and goodput collapses (the pipeline_throughput pathology).
//  * open/qos — same offered load through qos::AdmissionController:
//    per-tenant queue caps + token-bucket rates + drop-on-expiry deadline
//    shedding. Queues stay bounded: drop/reject rates are nonzero, p99 of
//    accepted jobs is flat and goodput holds.
//  * closed — closed-loop (each tenant keeps a fixed window of requests in
//    flight, submitting the next on completion): the well-behaved-client
//    baseline the open-loop sections bracket.
//
// Tenant priority classes come from --mix / ARCANE_BENCH_MIX (skewed: one
// high + one normal + two low tenants; uniform: all normal); dispatch
// defaults to SchedPolicy::kPriority (--sched-policy overrides).
// --admission=off / ARCANE_BENCH_ADMISSION=off runs the open/qos section
// with admission disabled (the nightly caps-on/off axis). --json emits
// schema-v2 rows. Grid cells: backend x section (open-ref / open-qos /
// closed).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arcane/system.hpp"
#include "bench_json.hpp"
#include "qos/admission.hpp"
#include "sched/pipelines.hpp"
#include "sched/scheduler.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;
using workloads::Rng;

namespace {

// Operating point (psram anchor): 4 tenants x one 4-op pipeline job every
// 6000 cycles ~ 4.8x the 4-instance service capacity (~1 job / 7.3k
// cycles), so the reference section's queues grow without bound. Admission
// caps outstanding jobs at 3/tenant, rates tenants at 1 job / 16k cycles
// (burst 1) and sheds on a 60k-cycle completion SLO — at this point the
// high-priority tenant keeps a 100% on-time rate while low-priority
// traffic absorbs the drops.
constexpr unsigned kTenants = 4;
constexpr Cycle kOpenInterval = 6000;   // per-tenant arrival period (cycles)
constexpr Cycle kDeadline = 60000;      // relative completion SLO (cycles)
constexpr unsigned kQueueCap = 3;       // outstanding admitted jobs / tenant
constexpr unsigned kTokenBurst = 1;     // token-bucket capacity (jobs)
constexpr Cycle kTokenPeriod = 16000;   // cycles per token
constexpr unsigned kClosedWindow = 2;   // in-flight requests per tenant

enum class Mix { kSkewed, kUniform };

constexpr const char* mix_name(Mix m) {
  return m == Mix::kSkewed ? "skewed" : "uniform";
}

unsigned tenant_priority(Mix mix, unsigned t) {
  if (mix == Mix::kUniform) return kQosPriorityNormal;
  if (t == 0) return kQosPriorityHigh;
  if (t == 1) return kQosPriorityNormal;
  return kQosPriorityLow;
}

constexpr const char* priority_name(unsigned p) {
  switch (p) {
    case kQosPriorityHigh: return "high";
    case kQosPriorityNormal: return "normal";
    case kQosPriorityLow: return "low";
  }
  return "?";
}

struct TenantResult {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t on_time = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t max_outstanding = 0;
  Cycle p50 = 0, p99 = 0;          // over completed jobs
  sim::OpStallBreakdown stalls{};  // stall_* informational fields
};

struct RunResult {
  Cycle makespan = 0;
  double clock_mhz = 0.0;  // cycle -> seconds conversion for rps fields
  double host_wall_ms = 0.0;  // host time spent simulating this section
  std::uint64_t spans_recorded = 0;    // telemetry_* informational fields
  std::uint64_t spans_dropped = 0;
  std::vector<TenantResult> tenants;
  TenantResult all;
};

enum class Section { kOpenRef, kOpenQos, kClosed };

constexpr const char* section_name(Section s) {
  switch (s) {
    case Section::kOpenRef: return "open/ref";
    case Section::kOpenQos: return "open/qos";
    case Section::kClosed: return "closed";
  }
  return "?";
}

// Knob value for the --section sweep filter (cell ids avoid the slashes
// the row "case" names use).
constexpr const char* section_knob_value(Section s) {
  switch (s) {
    case Section::kOpenRef: return "open-ref";
    case Section::kOpenQos: return "open-qos";
    case Section::kClosed: return "closed";
  }
  return "?";
}

RunResult run_section(Section section, bool admission_on, Mix mix,
                      unsigned jobs_per_tenant, MemBackendKind backend,
                      SchedPolicy policy, unsigned lanes,
                      std::optional<ReplacementPolicy> replacement,
                      benchjson::TelemetryCollector& telem,
                      const std::string& run_name) {
  SystemConfig cfg = SystemConfig::paper(lanes);
  cfg.mem.backend = backend;
  cfg.sched_policy = policy;
  if (replacement) cfg.llc.replacement = *replacement;
  const bool qos_on = section == Section::kOpenQos && admission_on;
  if (qos_on) {
    cfg.qos.enabled = true;
    cfg.qos.queue_cap = kQueueCap;
    cfg.qos.token_burst = kTokenBurst;
    cfg.qos.token_period = kTokenPeriod;
    cfg.qos.deadline_policy = DeadlinePolicy::kDropOnExpiry;
  }
  System sys(cfg);
  if (telem.tracing()) sys.spans().enable();
  if (telem.metrics_enabled()) sys.op_log().enable();
  auto& adm = sys.admission();
  auto& sch = sys.scheduler();

  for (unsigned t = 0; t < kTenants; ++t) {
    qos::TenantQos spec;
    spec.priority = tenant_priority(mix, t);
    if (qos_on) {
      spec.queue_cap = kQueueCap;
      spec.token_burst = kTokenBurst;
      spec.token_period = kTokenPeriod;
    }
    adm.add_tenant("tenant" + std::to_string(t), spec);
  }

  // All job data is placed up front (disjoint 0x8000 slots); only the
  // submission times differ between the open- and closed-loop sections.
  std::vector<sched::PipelineSlot> slots;
  slots.reserve(kTenants * jobs_per_tenant);
  for (unsigned t = 0; t < kTenants; ++t) {
    Rng rng(1000 + t);
    for (unsigned j = 0; j < jobs_per_tenant; ++j) {
      const Addr base = sys.data_base() + 0x10000 +
                        (t * jobs_per_tenant + j) * 0x8000;
      slots.emplace_back(base);
      sched::place_pipeline_data(sys, slots.back(),
                                 sched::random_pipeline_data(rng));
    }
  }
  auto submit_job = [&](unsigned t, unsigned j, Cycle arrival) {
    sched::JobSpec job =
        sched::pipeline_job(slots[t * jobs_per_tenant + j]);
    job.deadline = arrival + kDeadline;  // SLO accounting in every section
    adm.submit(t, std::move(job), arrival);
  };

  // Lives until drain(): the closed-loop completion callback reads it.
  std::vector<unsigned> next(kTenants, 0);
  if (section == Section::kClosed) {
    sch.set_on_job_done([&](const sched::JobReport& rep) {
      if (next[rep.tenant] < jobs_per_tenant) {
        submit_job(rep.tenant, next[rep.tenant]++, rep.done);
      }
    });
    for (unsigned t = 0; t < kTenants; ++t) {
      for (unsigned w = 0; w < kClosedWindow; ++w) {
        submit_job(t, next[t]++, 0);
      }
    }
  } else {
    for (unsigned t = 0; t < kTenants; ++t) {
      for (unsigned j = 0; j < jobs_per_tenant; ++j) {
        submit_job(t, j, j * kOpenInterval + t * (kOpenInterval / kTenants));
      }
    }
  }
  adm.drain();

  RunResult r;
  r.makespan = sch.stats().makespan;
  r.clock_mhz = cfg.clock_mhz;
  r.tenants.resize(kTenants);
  for (unsigned t = 0; t < kTenants; ++t) {
    TenantResult& tr = r.tenants[t];
    const auto& qs = adm.tenant_qos(t);
    const auto& ts = sch.tenant_stats(t);
    tr.offered = qs.jobs_offered;
    tr.accepted = qs.jobs_accepted;
    tr.rejected = qs.jobs_rejected();
    tr.completed = ts.jobs_completed;
    tr.dropped = ts.jobs_dropped;
    tr.on_time = ts.jobs_on_time;
    tr.deadline_misses = ts.deadline_misses;
    tr.max_outstanding = qs.max_outstanding;
    const benchjson::LatencyPercentiles lat =
        benchjson::latency_percentiles(sch, t);
    tr.p50 = lat.p50;
    tr.p99 = lat.p99;
    tr.stalls = sch.tenant_stalls(t);

    r.all.offered += tr.offered;
    r.all.accepted += tr.accepted;
    r.all.rejected += tr.rejected;
    r.all.completed += tr.completed;
    r.all.dropped += tr.dropped;
    r.all.on_time += tr.on_time;
    r.all.deadline_misses += tr.deadline_misses;
    r.all.max_outstanding =
        std::max(r.all.max_outstanding, tr.max_outstanding);
  }
  const benchjson::LatencyPercentiles lat = benchjson::latency_percentiles(sch);
  r.all.p50 = lat.p50;
  r.all.p99 = lat.p99;
  r.all.stalls = sch.stall_totals();
  r.spans_recorded = sys.spans().size();
  r.spans_dropped = sys.spans().dropped();
  telem.collect(run_name, sys.spans(), sys.metrics(), sys.scheduler(),
                &sys.op_log());
  return r;
}

void emit(benchjson::Report& report, bool human, Section section,
          const char* who, const char* priority, MemBackendKind backend,
          SchedPolicy policy, bool admission_on, Mix mix, const RunResult& r,
          const TenantResult& tr) {
  const double seconds =
      static_cast<double>(r.makespan) / (r.clock_mhz * 1e6);
  const double throughput =
      seconds > 0.0 ? static_cast<double>(tr.completed) / seconds : 0.0;
  const double goodput =
      seconds > 0.0 ? static_cast<double>(tr.on_time) / seconds : 0.0;
  const std::uint64_t resolved = tr.completed + tr.dropped;
  const double drop_rate =
      resolved ? static_cast<double>(tr.dropped) /
                     static_cast<double>(resolved)
               : 0.0;
  const double reject_rate =
      tr.offered ? static_cast<double>(tr.rejected) /
                       static_cast<double>(tr.offered)
                 : 0.0;
  const double miss_rate =
      tr.completed ? static_cast<double>(tr.deadline_misses) /
                         static_cast<double>(tr.completed)
                   : 0.0;
  char name[64];
  std::snprintf(name, sizeof(name), "%s/%s", section_name(section), who);
  auto& row = report.row()
      .str("case", name)
      .str("backend", backend_name(backend))
      .str("policy", sched_policy_name(policy))
      .str("admission", admission_on ? "on" : "off")
      .str("mix", mix_name(mix))
      .str("priority", priority)
      .num("offered", tr.offered)
      .num("accepted", tr.accepted)
      .num("rejected", tr.rejected)
      .num("completed", tr.completed)
      .num("dropped", tr.dropped)
      .num("deadline_misses", tr.deadline_misses)
      .num("max_outstanding", tr.max_outstanding)
      .num("throughput_rps", throughput)
      .num("goodput_rps", goodput)
      .num("drop_rate", drop_rate)
      .num("reject_rate", reject_rate)
      .num("deadline_miss_rate", miss_rate)
      .num("p50_latency_cycles", static_cast<std::uint64_t>(tr.p50))
      .num("p99_latency_cycles", static_cast<std::uint64_t>(tr.p99))
      .num("host_wall_ms", r.host_wall_ms)
      .num("telemetry_spans_recorded", r.spans_recorded)
      .num("telemetry_spans_dropped", r.spans_dropped);
  benchjson::add_stall_fields(row, tr.stalls);
  if (human) {
    std::printf(
        "  %-18s %-8s: goodput %7.0f / tput %7.0f rps  drop %4.0f%%  "
        "rej %4.0f%%  p99 %8llu cyc\n",
        name, priority, goodput, throughput, drop_rate * 100.0,
        reject_rate * 100.0, static_cast<unsigned long long>(tr.p99));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Bench-local knobs live in the shared registry: usage text, env
  // fallbacks and value validation all come from grid.hpp.
  benchjson::Harness h("qos_slo");
  h.add_choice("admission", "--admission", "ARCANE_BENCH_ADMISSION",
               {"on", "off"},
               "QoS admission control in the open/qos section (default: on)");
  h.add_choice("mix", "--mix", "ARCANE_BENCH_MIX", {"skewed", "uniform"},
               "tenant priority mix (default: skewed)");
  h.add_choice("section", "--section", "", {"open-ref", "open-qos", "closed"},
               "restrict to one serving section");
  h.grid().add_product({{"backend", {}}, {"section", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  const bool admission_on = h.is("admission", "on");
  const Mix mix = h.is("mix", "skewed") ? Mix::kSkewed : Mix::kUniform;
  const SchedPolicy policy =
      opt.sched_policy.value_or(SchedPolicy::kPriority);
  const unsigned lanes = opt.lanes.value_or(4);
  const unsigned jobs_per_tenant = 48;
  const bool human = !opt.json;
  benchjson::Report report("qos_slo");
  benchjson::TelemetryCollector telem(opt);

  if (human) {
    std::printf(
        "QoS SLO serving (%u tenants, %u jobs/tenant, deadline %llu cyc, "
        "mix %s, admission %s)\n\n",
        kTenants, jobs_per_tenant,
        static_cast<unsigned long long>(kDeadline), mix_name(mix),
        admission_on ? "on" : "off");
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    if (human) std::printf("backend %s:\n", backend_name(backend));
    for (const Section section :
         {Section::kOpenRef, Section::kOpenQos, Section::kClosed}) {
      if (!h.is("section", section_knob_value(section))) continue;
      const benchjson::WallTimer section_timer;
      const std::string run_name =
          std::string(backend_name(backend)) + " " + section_name(section);
      RunResult r =
          run_section(section, admission_on, mix, jobs_per_tenant, backend,
                      policy, lanes, opt.replacement, telem, run_name);
      r.host_wall_ms = section_timer.ms();
      // Per-tenant rows for the admission-controlled sections; the
      // reference section only needs the aggregate (its per-tenant split
      // is symmetric by construction).
      if (section != Section::kOpenRef) {
        for (unsigned t = 0; t < kTenants; ++t) {
          char who[16];
          std::snprintf(who, sizeof(who), "tenant%u", t);
          emit(report, human, section, who,
               priority_name(tenant_priority(mix, t)), backend, policy,
               admission_on, mix, r, r.tenants[t]);
        }
      }
      emit(report, human, section, "all", "all", backend, policy,
           admission_on, mix, r, r.all);
    }
    if (human) std::printf("\n");
  }
  telem.finish("qos_slo");
  if (opt.json) report.print();
  return 0;
}
