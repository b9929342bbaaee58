// End-to-end requests/sec of the multi-tenant kernel-offload scheduler:
// sweeps VPU instances x tenants x external-memory backend for two
// workloads and reports throughput plus p50/p99 job latency.
//
//  * pipeline  — each job is a conv2d -> leaky_relu -> maxpool -> gemm
//                inference request (4-op DAG, word elements);
//  * singleop  — independent 5x5 int8 conv2d requests (the multi-instance
//                scaling probe: no dependencies, disjoint buffers).
//
// The job shapes are the canonical ones in src/sched/pipelines.hpp, shared
// with tests/sched_test.cpp. A third section ("policies") sweeps the
// dispatch policy (fifo / rr / sjf) at the full 4-instance, 4-tenant
// point. --json emits schema-v2 rows. Grid cells: backend x section.
#include <algorithm>
#include <cstdio>
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

std::optional<ReplacementPolicy> g_replacement;

struct RunResult {
  double host_wall_ms = 0.0;  // host time spent simulating this config
  std::uint64_t jobs = 0;
  Cycle makespan = 0;
  double requests_per_sec = 0.0;
  Cycle p50 = 0, p99 = 0;
  double mean_queue_wait = 0.0;
  std::uint64_t hazard_deferrals = 0;
  std::uint64_t spans_recorded = 0;    // telemetry_* informational fields
  std::uint64_t spans_dropped = 0;
  sim::OpStallBreakdown stalls{};      // stall_* informational fields
};

enum class Workload { kPipeline, kSingleOp };

constexpr const char* workload_name(Workload w) {
  return w == Workload::kPipeline ? "pipeline" : "singleop";
}

RunResult run_config(Workload workload, unsigned instances, unsigned tenants,
                     unsigned jobs_per_tenant, MemBackendKind backend,
                     SchedPolicy policy, unsigned lanes,
                     benchjson::TelemetryCollector& telem,
                     const std::string& run_name) {
  const benchjson::WallTimer timer;
  SystemConfig cfg = SystemConfig::paper(lanes);
  cfg.mem.backend = backend;
  cfg.sched_instances = instances;
  cfg.sched_policy = policy;
  if (g_replacement) cfg.llc.replacement = *g_replacement;
  System sys(cfg);
  if (telem.tracing()) sys.spans().enable();
  if (telem.metrics_enabled()) sys.op_log().enable();
  auto& sch = sys.scheduler();

  // Open-loop arrivals: each tenant issues one request every `interval`
  // cycles, offset so tenants do not arrive in lock-step.
  const Cycle interval = workload == Workload::kPipeline ? 4000 : 2000;
  const std::uint32_t slot_bytes =
      workload == Workload::kPipeline ? 0x8000 : 0x4000;

  for (unsigned t = 0; t < tenants; ++t) {
    sch.add_tenant("tenant" + std::to_string(t));
  }
  for (unsigned t = 0; t < tenants; ++t) {
    Rng rng(1000 + t);
    for (unsigned j = 0; j < jobs_per_tenant; ++j) {
      const Addr base = sys.data_base() + 0x10000 +
                        (t * jobs_per_tenant + j) * slot_bytes;
      const Cycle arrival = j * interval + t * (interval / tenants);
      if (workload == Workload::kPipeline) {
        const sched::PipelineSlot s(base);
        sched::place_pipeline_data(sys, s, sched::random_pipeline_data(rng));
        sch.submit(t, sched::pipeline_job(s), arrival);
      } else {
        sched::place_scaling_probe_data(sys, base, rng);
        sch.submit(t, sched::scaling_probe_job(base), arrival);
      }
    }
  }
  sch.drain();

  RunResult r;
  r.jobs = sch.stats().jobs_completed;
  r.makespan = sch.stats().makespan;
  r.hazard_deferrals = sch.stats().hazard_deferrals;
  const benchjson::LatencyPercentiles lat = benchjson::latency_percentiles(sch);
  r.p50 = lat.p50;
  r.p99 = lat.p99;
  r.spans_recorded = sys.spans().size();
  r.spans_dropped = sys.spans().dropped();
  r.stalls = sch.stall_totals();
  telem.collect(run_name, sys.spans(), sys.metrics(), sys.scheduler(),
                &sys.op_log());
  const double seconds =
      static_cast<double>(r.makespan) / (cfg.clock_mhz * 1e6);
  r.requests_per_sec =
      seconds > 0.0 ? static_cast<double>(r.jobs) / seconds : 0.0;
  r.mean_queue_wait =
      sch.stats().ops_dispatched
          ? static_cast<double>(sch.stats().total_queue_wait) /
                static_cast<double>(sch.stats().ops_dispatched)
          : 0.0;
  r.host_wall_ms = timer.ms();
  return r;
}

void emit(benchjson::Report& report, bool human, Workload w,
          unsigned instances, unsigned tenants, MemBackendKind backend,
          SchedPolicy policy, const RunResult& r) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s/inst=%u/tenants=%u",
                workload_name(w), instances, tenants);
  auto& row = report.row()
      .str("case", name)
      .str("backend", backend_name(backend))
      .str("policy", sched_policy_name(policy))
      .num("jobs", r.jobs)
      .num("makespan_cycles", static_cast<std::uint64_t>(r.makespan))
      .num("requests_per_sec", r.requests_per_sec)
      .num("p50_latency_cycles", static_cast<std::uint64_t>(r.p50))
      .num("p99_latency_cycles", static_cast<std::uint64_t>(r.p99))
      .num("mean_queue_wait_cycles", r.mean_queue_wait)
      .num("hazard_deferrals", r.hazard_deferrals)
      .num("host_wall_ms", r.host_wall_ms)
      .num("telemetry_spans_recorded", r.spans_recorded)
      .num("telemetry_spans_dropped", r.spans_dropped);
  benchjson::add_stall_fields(row, r.stalls);
  if (human) {
    std::printf(
        "  %-24s %-6s %-5s: %7.0f req/s  p50 %7llu  p99 %7llu cyc "
        "(%llu jobs, %llu cyc)\n",
        name, backend_name(backend), sched_policy_name(policy),
        r.requests_per_sec, static_cast<unsigned long long>(r.p50),
        static_cast<unsigned long long>(r.p99),
        static_cast<unsigned long long>(r.jobs),
        static_cast<unsigned long long>(r.makespan));
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("pipeline_throughput");
  h.add_choice("section", "--section", "",
               {"pipeline", "singleop", "policies"},
               "restrict to one workload section");
  h.grid().add_product({{"backend", {}}, {"section", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  g_replacement = opt.replacement;
  // --sched-policy / ARCANE_BENCH_SCHED_POLICY overrides the default FIFO
  // grid (and suppresses the redundant policy sweep); unset keeps the
  // blessed-baseline row set bit-identical.
  const SchedPolicy base_policy =
      opt.sched_policy.value_or(SchedPolicy::kFifo);
  const unsigned lanes = opt.lanes.value_or(4);
  const unsigned jobs_per_tenant = 24;
  const bool human = !opt.json;
  benchjson::Report report("pipeline_throughput");
  benchjson::TelemetryCollector telem(opt);
  const auto run_name = [](MemBackendKind backend, Workload w,
                           unsigned instances, unsigned tenants,
                           SchedPolicy policy) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %s/inst=%u/tenants=%u (%s)",
                  backend_name(backend), workload_name(w), instances,
                  tenants, sched_policy_name(policy));
    return std::string(buf);
  };

  if (human) {
    std::printf("Kernel-offload scheduler throughput "
                "(%u jobs/tenant, %u lanes)\n\n",
                jobs_per_tenant, lanes);
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    if (human) std::printf("backend %s:\n", backend_name(backend));
    for (const Workload w : {Workload::kPipeline, Workload::kSingleOp}) {
      if (!h.is("section", workload_name(w))) continue;
      for (const unsigned instances : {1u, 2u, 4u}) {
        for (const unsigned tenants : {1u, 4u}) {
          const RunResult r = run_config(
              w, instances, tenants, jobs_per_tenant, backend, base_policy,
              lanes, telem,
              run_name(backend, w, instances, tenants, base_policy));
          emit(report, human, w, instances, tenants, backend, base_policy,
               r);
        }
      }
    }
    // Dispatch-policy sweep at the contended corner (skipped when a single
    // policy was forced via --sched-policy — then the "policies" cells are
    // empty both serially and sharded).
    if (!opt.sched_policy && h.is("section", "policies")) {
      for (const SchedPolicy policy :
           {SchedPolicy::kRoundRobin, SchedPolicy::kSjf}) {
        const RunResult r = run_config(
            Workload::kPipeline, 4, 4, jobs_per_tenant, backend, policy,
            lanes, telem,
            run_name(backend, Workload::kPipeline, 4, 4, policy));
        emit(report, human, Workload::kPipeline, 4, 4, backend, policy, r);
      }
    }
    if (human) std::printf("\n");
  }
  telem.finish("pipeline_throughput");
  if (opt.json) report.print();
  return 0;
}
