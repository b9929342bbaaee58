// Host-simulator throughput: how many simulated cycles, instructions and
// kernel ops the simulator retires per host wall-clock second. This is the
// bench that makes *simulator* speed observable — the binding constraint on
// how many nightly sweep cells the project can afford (ROADMAP "Hot-path
// profiling").
//
// Four scenario families:
//  * iss       — host-ISS ALU loop (decode cache + interpreter hot loop);
//  * cpu       — fig4's int8 k=7 conv layer on the scalar CV32E40X and the
//                XCVPULP CV32E40PX baselines (ISS + LLC host port: the
//                cost that dominates the fig4 sweep), one pass per row;
//  * conv      — end-to-end ARCANE conv layer (event kernel + LLC + DMA +
//                VPU lane loop), per external-memory backend;
//  * sched     — a batch of independent conv jobs through the multi-tenant
//                scheduler across VPU instance counts (the event-heaviest
//                path: dispatch, hazard scan, chain stepping per instance).
//
// Every row carries the *simulated* metrics (bit-stable, gated exactly by
// the CI check) plus the wall-clock trend fields `host_wall_ms`,
// `sim_cycles_per_host_sec`, ... which check_bench_regression.py reports
// informationally and never gates on (machine-dependent). Grid cells: the
// iss cell, the cpu cell (on the paper's PSRAM unless --backend picks
// another), plus one conv and sched cell per backend.
#include <cstdio>
#include <string>

#include "arcane/system.hpp"
#include "baseline/runner.hpp"
#include "bench_json.hpp"
#include "isa/assembler.hpp"
#include "sched/pipelines.hpp"
#include "sched/scheduler.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;
using workloads::Rng;

namespace {

struct Totals {
  std::uint64_t sim_cycles = 0;  // from the final repetition (deterministic)
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;
  std::uint64_t kernel_ops = 0;
  double wall_ms = 0.0;   // summed across repetitions
  double reps_cycles = 0; // summed across repetitions (throughput basis)
  double reps_insns = 0;
  double reps_events = 0;
  double reps_ops = 0;
  sim::OpStallBreakdown stalls{};  // from the final repetition
};

void emit(benchjson::Report& report, bool human, const std::string& name,
          const char* backend, const Totals& t) {
  const double sec = t.wall_ms / 1e3;
  auto rate = [&](double total) { return sec > 0.0 ? total / sec : 0.0; };
  auto& row = report.row().str("case", name);
  if (backend != nullptr) row.str("backend", backend);
  row.num("sim_cycles", t.sim_cycles)
      .num("host_wall_ms", t.wall_ms)
      .num("sim_cycles_per_host_sec", rate(t.reps_cycles));
  if (t.instructions != 0) {
    row.num("instructions", t.instructions)
        .num("sim_insns_per_host_sec", rate(t.reps_insns));
  }
  // Only the scheduler scenarios measure the event count (the conv runner
  // owns its System internally); unmeasured metrics are omitted, not
  // recorded as a false zero.
  if (t.events != 0) {
    row.num("events_executed", t.events)
        .num("events_per_host_sec", rate(t.reps_events));
  }
  if (t.kernel_ops != 0) {
    row.num("kernel_ops", t.kernel_ops)
        .num("kernel_ops_per_host_sec", rate(t.reps_ops));
  }
  benchjson::add_stall_fields(row, t.stalls);
  if (human) {
    std::printf("  %-22s %-6s %10.2f Mcyc/s %8.1f ms (%llu sim cycles)\n",
                name.c_str(), backend != nullptr ? backend : "-",
                rate(t.reps_cycles) / 1e6, t.wall_ms,
                static_cast<unsigned long long>(t.sim_cycles));
  }
}

/// Host-ISS ALU loop: pure interpreter throughput, no data memory traffic
/// (backend-invariant), so the row doubles as the simulator's "MIPS" gauge.
Totals run_iss(unsigned iters, unsigned reps) {
  using isa::Reg;
  isa::Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(iters));
  auto loop = a.here();
  a.addi(Reg::kA0, Reg::kA0, 1);
  a.xori(Reg::kA1, Reg::kA0, 0x55);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, loop);
  a.ecall();
  const auto prog = a.finish();

  Totals t;
  System sys(SystemConfig::paper(4));
  sys.load_program(prog);
  sys.run_unchecked();  // untimed warm-up repetition
  const benchjson::WallTimer timer;
  for (unsigned r = 0; r < reps; ++r) {
    sys.load_program(prog);  // also resets the CPU
    const auto res = sys.run_unchecked();
    t.sim_cycles = res.cycles;
    t.instructions = res.instructions;
    t.reps_cycles += static_cast<double>(res.cycles);
    t.reps_insns += static_cast<double>(res.instructions);
  }
  t.wall_ms = timer.ms();
  return t;
}

/// A fig4 CPU-baseline conv layer (int8, k=7): the ISS dispatch loop and
/// the LLC host-port hit path. One timed pass, no warm-up: at full size the
/// layer runs for seconds, and fig4 already gates the same layer's cycles.
Totals run_cpu(baseline::Impl impl, std::uint32_t size,
               const benchjson::Options& opt) {
  baseline::ConvCase c;
  c.size = size;
  c.k = 7;
  c.et = ElemType::kByte;
  c.verify = false;
  SystemConfig cfg = SystemConfig::paper(4);
  if (opt.backend) cfg.mem.backend = *opt.backend;
  if (opt.replacement) cfg.llc.replacement = *opt.replacement;

  Totals t;
  const benchjson::WallTimer timer;
  const auto res = baseline::run_conv_layer(cfg, impl, c);
  t.wall_ms = timer.ms();
  t.sim_cycles = res.cycles;
  t.instructions = res.instructions;
  t.reps_cycles = static_cast<double>(res.cycles);
  t.reps_insns = static_cast<double>(res.instructions);
  return t;
}

/// End-to-end ARCANE conv layer on a fresh System per repetition: the
/// event kernel, LLC port, DMA model and VPU lane loop all on the path.
Totals run_conv(std::uint32_t size, MemBackendKind backend,
                const benchjson::Options& opt, unsigned reps) {
  baseline::ConvCase c;
  c.size = size;
  c.k = 3;
  c.et = ElemType::kByte;
  c.verify = false;
  SystemConfig cfg = SystemConfig::paper(opt.lanes.value_or(4));
  cfg.mem.backend = backend;
  if (opt.replacement) cfg.llc.replacement = *opt.replacement;

  Totals t;
  baseline::run_conv_layer(cfg, baseline::Impl::kArcane, c);  // warm-up
  const benchjson::WallTimer timer;
  for (unsigned r = 0; r < reps; ++r) {
    const auto res =
        baseline::run_conv_layer(cfg, baseline::Impl::kArcane, c);
    t.sim_cycles = res.cycles;
    t.stalls = res.stalls;
    t.reps_cycles += static_cast<double>(res.cycles);
  }
  t.wall_ms = timer.ms();
  return t;
}

/// A batch of independent single-op conv jobs through the scheduler: the
/// event-queue-heaviest path (arrival, dispatch, chain, write-back and
/// completion events per op across N concurrent instances).
Totals run_sched(unsigned instances, unsigned jobs, MemBackendKind backend,
                 const benchjson::Options& opt, unsigned reps) {
  SystemConfig cfg = SystemConfig::paper(opt.lanes.value_or(4));
  cfg.mem.backend = backend;
  cfg.sched_instances = instances;
  cfg.sched_policy = opt.sched_policy.value_or(SchedPolicy::kFifo);
  if (opt.replacement) cfg.llc.replacement = *opt.replacement;

  Totals t;
  benchjson::WallTimer timer;
  for (unsigned r = 0; r <= reps; ++r) {
    if (r == 1) timer.reset();  // repetition 0 is the untimed warm-up
    System sys(cfg);
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("bench");
    Rng rng(42);
    for (unsigned j = 0; j < jobs; ++j) {
      const Addr base = sys.data_base() + 0x10000 + j * 0x4000;
      sched::place_scaling_probe_data(sys, base, rng);
      sch.submit(t0, sched::scaling_probe_job(base), j * 500);
    }
    sch.drain();
    t.sim_cycles = sch.stats().makespan;
    t.kernel_ops = sch.stats().ops_completed;
    t.stalls = sch.stall_totals();
    t.events = sys.events().executed();
    if (r == 0) continue;  // warm-up: excluded from the throughput sums
    t.reps_cycles += static_cast<double>(sch.stats().makespan);
    t.reps_ops += static_cast<double>(sch.stats().ops_completed);
    t.reps_events += static_cast<double>(sys.events().executed());
  }
  t.wall_ms = timer.ms();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("sim_throughput");
  h.add_choice("scenario", "--scenario", "", {"iss", "cpu", "conv", "sched"},
               "restrict to one scenario family");
  h.grid().add_cell({{"scenario", "iss"}});
  h.grid().add_cell({{"scenario", "cpu"}});
  h.grid().add_product({{"scenario", {"conv"}}, {"backend", {}}});
  h.grid().add_product({{"scenario", {"sched"}}, {"backend", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  const bool human = !opt.json;
  benchjson::Report report("sim_throughput");

  const unsigned reps = 10;
  const unsigned iss_iters = 200000;
  const std::uint32_t cpu_size = 256;
  const std::uint32_t conv_size = 128;
  const unsigned sched_jobs = 48;

  if (human) {
    std::printf("Host-simulator throughput (%u reps)\n\n", reps);
  }
  if (h.is("scenario", "iss")) {
    char name[48];
    std::snprintf(name, sizeof(name), "iss/alu_loop=%u", iss_iters);
    emit(report, human, name, nullptr, run_iss(iss_iters, reps));
  }
  if (h.is("scenario", "cpu")) {
    for (const baseline::Impl impl :
         {baseline::Impl::kScalar, baseline::Impl::kPulp}) {
      char name[48];
      std::snprintf(name, sizeof(name), "cpu/%s/size=%u/k=7",
                    impl == baseline::Impl::kScalar ? "scalar" : "pulp",
                    cpu_size);
      emit(report, human, name, nullptr, run_cpu(impl, cpu_size, opt));
    }
  }
  if (h.is("scenario", "conv")) {
    for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
      char name[48];
      std::snprintf(name, sizeof(name), "conv/size=%u", conv_size);
      emit(report, human, name, backend_name(backend),
           run_conv(conv_size, backend, opt, reps));
    }
  }
  if (h.is("scenario", "sched")) {
    for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
      for (const unsigned instances : {1u, 4u}) {
        char name[48];
        std::snprintf(name, sizeof(name), "sched/inst=%u/jobs=%u", instances,
                      sched_jobs);
        emit(report, human, name, backend_name(backend),
             run_sched(instances, sched_jobs, backend, opt, reps));
      }
    }
  }
  if (opt.json) report.print();
  return 0;
}
