// Google-benchmark micro benches: raw throughput of the simulator
// components (decoder, ISS, cache port, vector unit, event queue, the
// kernel-offload scheduler's hot path) plus the wall-clock cost of a full
// end-to-end conv-layer simulation.
#include <benchmark/benchmark.h>

#include "baseline/runner.hpp"
#include "arcane/system.hpp"
#include "isa/assembler.hpp"
#include "isa/decode.hpp"
#include "isa/encode.hpp"
#include "isa/xmnmc.hpp"
#include "kernels/planners.hpp"
#include "sched/job.hpp"
#include "sched/pipelines.hpp"
#include "sched/ready_queue.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "vpu/line_storage.hpp"
#include "vpu/vector_unit.hpp"

namespace {

using namespace arcane;
using isa::Assembler;
using isa::Reg;

void BM_Decoder(benchmark::State& state) {
  const std::uint32_t words[4] = {
      isa::enc::add(1, 2, 3), isa::enc::lw(4, 5, 16), isa::enc::beq(1, 2, 64),
      isa::enc::mul(6, 7, 8)};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::decode(words[i++ & 3]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decoder);

std::vector<std::uint32_t> alu_loop_program(int iters) {
  Assembler a;
  a.li(Reg::kT0, iters);
  auto loop = a.here();
  a.addi(Reg::kA0, Reg::kA0, 1);
  a.xori(Reg::kA1, Reg::kA0, 0x55);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, loop);
  a.ecall();
  return a.finish();
}

/// Runs `prog` on `sys` once per iteration (the LLC stays warm across
/// iterations) and reports simulated instructions/s.
void run_iss_bench(benchmark::State& state, System& sys,
                   const std::vector<std::uint32_t>& prog) {
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    sys.load_program(prog);  // also resets the CPU
    instructions += sys.run_unchecked().instructions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel("simulated instructions/s");
}

void BM_IssAluLoop(benchmark::State& state) {
  System sys(SystemConfig::paper(4));
  run_iss_bench(state, sys, alu_loop_program(100000));
}
BENCHMARK(BM_IssAluLoop)->Unit(benchmark::kMillisecond);

/// The scalar conv's kx loop (two lb, mul, add, three addi, bnez), run 64
/// taps at a time over two 64-byte rows: every load an LLC hit.
void BM_IssConvTapLoop(benchmark::State& state) {
  System sys(SystemConfig::paper(4));
  const auto data = static_cast<std::int32_t>(sys.data_base());
  Assembler a;
  a.li(Reg::kS0, 1000);
  auto rows = a.here();
  a.li(Reg::kA1, data);
  a.li(Reg::kA2, data + 64);
  a.li(Reg::kT4, 64);
  auto kx = a.here();
  a.lb(Reg::kA3, Reg::kA1, 0);
  a.lb(Reg::kA4, Reg::kA2, 0);
  a.mul(Reg::kA3, Reg::kA3, Reg::kA4);
  a.add(Reg::kA0, Reg::kA0, Reg::kA3);
  a.addi(Reg::kA1, Reg::kA1, 1);
  a.addi(Reg::kA2, Reg::kA2, 1);
  a.addi(Reg::kT4, Reg::kT4, -1);
  a.bnez(Reg::kT4, kx);
  a.addi(Reg::kS0, Reg::kS0, -1);
  a.bnez(Reg::kS0, rows);
  a.ecall();
  run_iss_bench(state, sys, a.finish());
}
BENCHMARK(BM_IssConvTapLoop)->Unit(benchmark::kMillisecond);

/// The XCVPULP int8 k=7 conv window (fig4's shape): hardware loop 1 over 7
/// rows around hardware loop 0 over 2 words, whose body is two cv.lw
/// post-increment loads and pv.sdotsp.b; 1000 windows over a warm LLC.
void BM_IssHwLoopBody(benchmark::State& state) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = HostCpuKind::kCv32e40px;
  System sys(cfg);
  const auto data = static_cast<std::int32_t>(sys.data_base());
  Assembler a;
  a.li(Reg::kS4, 32);   // window row bytes
  a.li(Reg::kS9, 7);    // rows (K)
  a.li(Reg::kS10, 2);   // words per filter row
  a.li(Reg::kS0, 1000);
  auto window = a.here();
  a.li(Reg::kA6, data);        // window row pointer
  a.li(Reg::kA2, data + 256);  // filter walker
  auto ky_end = a.label();
  a.cv_setup(1, Reg::kS9, ky_end);
  a.mv(Reg::kA1, Reg::kA6);
  auto kx_end = a.label();
  a.cv_setup(0, Reg::kS10, kx_end);
  a.cv_lw_post(Reg::kA3, Reg::kA1, 4);
  a.cv_lw_post(Reg::kA4, Reg::kA2, 4);
  a.pv_sdotsp_b(Reg::kA0, Reg::kA3, Reg::kA4);
  a.bind(kx_end);
  a.add(Reg::kA6, Reg::kA6, Reg::kS4);
  a.bind(ky_end);
  a.addi(Reg::kS0, Reg::kS0, -1);
  a.bnez(Reg::kS0, window);
  a.ecall();
  run_iss_bench(state, sys, a.finish());
}
BENCHMARK(BM_IssHwLoopBody)->Unit(benchmark::kMillisecond);

void BM_CacheHitPort(benchmark::State& state) {
  System sys(SystemConfig::paper(4));
  std::uint32_t v = 0;
  Cycle t = 0;
  sys.llc().host_access(sys.data_base(), 4, false, &v, t);  // warm the line
  for (auto _ : state) {
    t = sys.llc()
            .host_access(sys.data_base() + (t % 256) * 4, 4, false, &v, t)
            .complete_at;
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitPort);

/// An LLC hit through the host CPU's data port (System::read), the path
/// the ISS's loads take: the range dispatch plus the inline hit path.
void BM_HostPortHit(benchmark::State& state) {
  System sys(SystemConfig::paper(4));
  std::uint32_t v = 0;
  Cycle t = sys.read(sys.data_base(), 4, &v, 0);  // warm the line
  for (auto _ : state) {
    t = sys.read(sys.data_base() + (t % 256) * 4, 4, &v, t);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostPortHit);

void BM_VpuMacc(benchmark::State& state) {
  LlcConfig cfg{};
  cfg.vpu.lanes = static_cast<unsigned>(state.range(0));
  vpu::LineStorage storage(cfg);
  vpu::VectorUnit vu(cfg.vpu, 0, storage);
  vpu::VInsn insn;
  insn.op = vpu::VOpc::kMaccVX;
  insn.vd = 1;
  insn.vs2 = 2;
  insn.et = ElemType::kByte;
  insn.vl = 1024;
  insn.scalar = 3;
  for (auto _ : state) {
    vu.execute(insn);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel("elements/s");
}
BENCHMARK(BM_VpuMacc)->Arg(2)->Arg(8);

/// One conv tap as the ARCANE conv kernels issue it: vslidedown.vx of the
/// input row into a temporary, then vmacc.es of that temporary times one
/// filter element into the accumulator, at vl = VLEN capacity. Arg is the
/// element width in bytes (1 = int8, 4 = int32).
void BM_VpuTap(benchmark::State& state) {
  LlcConfig cfg{};
  vpu::LineStorage storage(cfg);
  vpu::VectorUnit vu(cfg.vpu, 0, storage);
  const auto et = state.range(0) == 1 ? ElemType::kByte : ElemType::kWord;
  const std::uint32_t vl = cfg.vpu.vlen_bytes / elem_bytes(et);
  vpu::VInsn slide;
  slide.op = vpu::VOpc::kSlideDownVX;
  slide.vd = 3;
  slide.vs1 = 1;
  slide.et = et;
  slide.vl = vl;
  slide.scalar = 1;
  vpu::VInsn macc;
  macc.op = vpu::VOpc::kMaccEs;
  macc.vd = 4;
  macc.vs1 = 2;
  macc.vs2 = 3;
  macc.et = et;
  macc.vl = vl;
  macc.scalar = 5;
  for (auto _ : state) {
    vu.execute(slide);
    vu.execute(macc);
    benchmark::DoNotOptimize(vu.vreg(macc.vd).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * vl);
  state.SetLabel("elements/s");
}
BENCHMARK(BM_VpuTap)->Arg(1)->Arg(4);

/// One whole conv-layer tile program (xmk4: 3 channels of 256-wide rows,
/// k=3, then ReLU and 2x2 max-pooling), as the conv-layer planner builds
/// its first tile, through run_program on a warm unit: the functional lane
/// pass plus the issue-queue timing loop, per program. Arg is the element
/// width in bytes (1 = int8, 4 = int32).
void BM_VpuTileProgram(benchmark::State& state) {
  SystemConfig cfg{};
  const auto et = state.range(0) == 1 ? ElemType::kByte : ElemType::kWord;
  const std::uint32_t w = 256, k = 3, h = 16;
  crt::KernelOp op;
  op.et = et;
  op.ms1 = {0x1000, {3 * h, w, w}, true};
  op.ms2 = {0x100000, {3 * k, k, k}, true};
  op.md = {0x200000, {(h - k + 1) / 2, (w - k + 1) / 2, (w - k + 1) / 2}, true};
  const crt::Plan plan = kernels::conv_layer_planner()(op, cfg);
  if (!plan.ok()) {
    state.SkipWithError(plan.error.c_str());
    return;
  }
  crt::Tile tile;
  plan.chains.front().make_tile(0, tile);

  vpu::LineStorage storage(cfg.llc);
  vpu::VectorUnit vu(cfg.llc.vpu, 0, storage);
  Cycle t = 0;
  for (auto _ : state) {
    t = vu.run_program(tile.prog, t, 4);
    benchmark::DoNotOptimize(vu.vreg(0).data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tile.prog.size()));
  state.SetLabel(std::to_string(tile.prog.size()) + " vinsns/program");
}
BENCHMARK(BM_VpuTileProgram)->Arg(1)->Arg(4);

/// The schedule+drain micro: a burst of near-future events drained through
/// run_until — the simulator's dominant event pattern, and the number to
/// watch when touching the calendar-queue kernel (no automated gate: CI
/// only smoke-runs this binary).
void BM_EventQueue(benchmark::State& state) {
  sim::EventQueue q;
  Cycle t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) q.schedule(t + 1 + (i * 7) % 13, [] {});
    q.run_until(t + 14);
    t += 14;
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EventQueue);

/// schedule + run_one bursts: the blocked-actor path (AT hazard, lock,
/// kernel-queue stall) executes events one at a time, re-checking a
/// predicate between each — run_one cost is what bounds stall resolution.
void BM_EventQueueScheduleRunOne(benchmark::State& state) {
  sim::EventQueue q;
  Cycle t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) q.schedule(t + 1 + (i * 5) % 11, [] {});
    while (!q.empty()) t = q.run_one();
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EventQueueScheduleRunOne);

/// Mixed-horizon run_until: near events (cache/DMA completions a few cycles
/// out) interleaved with far events (refresh ticks, open-loop arrivals
/// thousands of cycles out), so the far-heap migration path is priced too.
void BM_EventQueueMixedHorizon(benchmark::State& state) {
  sim::EventQueue q;
  Cycle t = 0;
  std::uint64_t executed = 0;
  for (auto _ : state) {
    for (int i = 0; i < 12; ++i) q.schedule(t + 1 + (i * 7) % 29, [] {});
    for (int i = 0; i < 4; ++i) q.schedule(t + 1000 + i * 517, [] {});
    t += 40;
    q.run_until(t);
  }
  executed = q.executed();
  q.run_all();
  benchmark::DoNotOptimize(executed);
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EventQueueMixedHorizon);

// ---- kernel-offload scheduler hot path (src/sched/) ----

/// Ready-queue push + policy pick + take, per dispatch policy.
void BM_SchedReadyQueue(benchmark::State& state) {
  const auto policy = static_cast<SchedPolicy>(state.range(0));
  const auto always = [](const sched::ReadyEntry&) { return true; };
  std::uint64_t seq = 0;
  sched::ReadyQueue q;
  constexpr unsigned kDepth = 32;
  for (auto _ : state) {
    for (unsigned i = 0; i < kDepth; ++i) {
      sched::ReadyEntry e;
      e.job = static_cast<std::uint32_t>(seq);
      e.tenant = static_cast<std::uint16_t>(seq % 4);
      e.est_cost = (seq * 37) % 4096;
      e.seq = seq++;
      q.push(e);
    }
    unsigned rr_last = 0;
    while (!q.empty()) {
      const std::size_t idx = q.pick(policy, 4, rr_last, always);
      rr_last = q.take(idx).tenant;
    }
  }
  state.SetItemsProcessed(state.iterations() * kDepth);
  state.SetLabel("push+pick+take/s");
}
BENCHMARK(BM_SchedReadyQueue)
    ->Arg(static_cast<int>(SchedPolicy::kFifo))
    ->Arg(static_cast<int>(SchedPolicy::kRoundRobin))
    ->Arg(static_cast<int>(SchedPolicy::kSjf));

/// DAG ready-set update: building a job's DagState (validation included)
/// and completing ops through a fan-out/fan-in DAG.
void BM_SchedDagReadyUpdate(benchmark::State& state) {
  sched::JobSpec job;
  constexpr unsigned kStages = 8, kWidth = 8;
  job.ops.resize(1 + kStages * kWidth);
  for (unsigned s = 0; s < kStages; ++s) {
    for (unsigned w = 0; w < kWidth; ++w) {
      auto& op = job.ops[1 + s * kWidth + w];
      op.deps = s == 0 ? std::vector<unsigned>{0}
                       : std::vector<unsigned>{1 + (s - 1) * kWidth + w};
    }
  }
  std::uint64_t ready_total = 0;
  std::vector<unsigned> frontier;
  for (auto _ : state) {
    sched::DagState dag;
    dag.build(job);
    frontier.clear();
    dag.for_each_root([&](unsigned r) { frontier.push_back(r); });
    while (!frontier.empty()) {
      const unsigned op = frontier.back();
      frontier.pop_back();
      ++ready_total;
      dag.complete(op, [&](unsigned r) { frontier.push_back(r); });
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ready_total));
  state.SetLabel("ready-set updates/s");
}
BENCHMARK(BM_SchedDagReadyUpdate);

/// End-to-end dispatch decision: submit + drain a burst of single-op jobs
/// through the full scheduler (planner, hazard check, eCPU model, executor).
void BM_SchedDispatchDecision(benchmark::State& state) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = MemBackendKind::kIdealSram;
  std::uint64_t dispatched = 0;
  for (auto _ : state) {
    state.PauseTiming();
    System sys(cfg);
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("t");
    state.ResumeTiming();
    constexpr unsigned kJobs = 16;
    for (unsigned i = 0; i < kJobs; ++i) {
      const Addr base = sys.data_base() + 0x10000 + i * 0x1000;
      sched::OpSpec relu;
      relu.func5 = isa::xmnmc::kLeakyRelu;
      relu.md = sched::operand(base + 0x800, {8, 16, 16});
      relu.ms1 = sched::operand(base, {8, 16, 16});
      sched::JobSpec job;
      job.ops.push_back(relu);
      sch.submit(t0, job, 0);
    }
    sch.drain();
    dispatched += sch.stats().ops_dispatched;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(dispatched));
  state.SetLabel("dispatches/s");
}
BENCHMARK(BM_SchedDispatchDecision)->Unit(benchmark::kMillisecond);

/// The scheduled kernel path end to end: submit and drain 64 pipeline jobs
/// (conv2d -> leaky_relu -> maxpool -> gemm) from 4 tenants on 4 serving
/// instances — planning, DAG wake-ups, dispatch, tile stepping and
/// retirement, without perfbench's arrival generator and verification.
void BM_ServePipelineJobs(benchmark::State& state) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.sched_instances = 4;
  constexpr unsigned kJobs = 64;
  std::uint64_t completed = 0;
  std::unique_ptr<System> sys;
  for (auto _ : state) {
    state.PauseTiming();
    sys = std::make_unique<System>(cfg);  // the last one dies untimed
    auto& sch = sys->scheduler();
    for (const char* name : {"t0", "t1", "t2", "t3"}) sch.add_tenant(name);
    std::vector<sched::JobSpec> jobs;
    for (unsigned j = 0; j < kJobs; ++j) {
      jobs.push_back(sched::pipeline_job(
          sched::PipelineSlot(sys->data_base() + 0x10000 + j * 0x8000)));
    }
    state.ResumeTiming();
    for (unsigned j = 0; j < kJobs; ++j) {
      sch.submit(j % 4, std::move(jobs[j]), 400 * j);
    }
    sch.drain();
    completed += sch.stats().jobs_completed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.SetLabel("jobs/s");
}
BENCHMARK(BM_ServePipelineJobs)->Unit(benchmark::kMicrosecond);

void BM_ConvLayerEndToEnd(benchmark::State& state) {
  baseline::ConvCase c;
  c.size = static_cast<std::uint32_t>(state.range(0));
  c.k = 3;
  c.et = ElemType::kByte;
  c.verify = false;
  std::uint64_t simulated = 0;
  for (auto _ : state) {
    const auto r = baseline::run_conv_layer(SystemConfig::paper(4),
                                            baseline::Impl::kArcane, c);
    simulated += r.cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(simulated));
  state.SetLabel("simulated cycles/s");
}
BENCHMARK(BM_ConvLayerEndToEnd)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
