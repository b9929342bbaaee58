// Google-benchmark micro benches: raw throughput of the simulator
// components (decoder, ISS, cache port, vector unit, event queue, the
// kernel-offload scheduler's hot path) plus the wall-clock cost of a full
// end-to-end conv-layer simulation.
#include <benchmark/benchmark.h>

#include <vector>

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

/// The scalar conv's kx loop (two loads, mul, add, three addi, bnez), run
/// 64 taps at a time over two 64-element rows: every load an LLC hit. The
/// Arg is the element width in bytes: 1 loads with lb (the int8 conv's
/// tap), 2 with lh, 4 with lw.
void BM_IssConvTapLoop(benchmark::State& state) {
  const auto width = static_cast<std::int32_t>(state.range(0));
  System sys(SystemConfig::paper(4));
  const auto data = static_cast<std::int32_t>(sys.data_base());
  Assembler a;
  auto load = [&a, width](Reg rd, Reg rs1) {
    if (width == 1) {
      a.lb(rd, rs1, 0);
    } else if (width == 2) {
      a.lh(rd, rs1, 0);
    } else {
      a.lw(rd, rs1, 0);
    }
  };
  a.li(Reg::kS0, 1000);
  auto rows = a.here();
  a.li(Reg::kA1, data);
  a.li(Reg::kA2, data + 64 * width);
  a.li(Reg::kT4, 64);
  auto kx = a.here();
  load(Reg::kA3, Reg::kA1);
  load(Reg::kA4, Reg::kA2);
  a.mul(Reg::kA3, Reg::kA3, Reg::kA4);
  a.add(Reg::kA0, Reg::kA0, Reg::kA3);
  a.addi(Reg::kA1, Reg::kA1, width);
  a.addi(Reg::kA2, Reg::kA2, width);
  a.addi(Reg::kT4, Reg::kT4, -1);
  a.bnez(Reg::kT4, kx);
  a.addi(Reg::kS0, Reg::kS0, -1);
  a.bnez(Reg::kS0, rows);
  a.ecall();
  run_iss_bench(state, sys, a.finish());
}
BENCHMARK(BM_IssConvTapLoop)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

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

/// `insns` prepared as one program for units of `cfg` (no dispatch gap):
/// what the VPU benches below run.
vpu::Program prepared(std::vector<vpu::VInsn> insns, const VpuConfig& cfg) {
  vpu::Program prog;
  prog.prepare(insns, cfg, 0);
  return prog;
}

/// One vmacc.vx as a one-instruction program, prepared once and run.
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
  const vpu::Program prog = prepared({insn}, cfg.vpu);
  Cycle t = 0;
  for (auto _ : state) {
    t = vu.run(prog, t);
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel("elements/s");
}
BENCHMARK(BM_VpuMacc)->Arg(2)->Arg(8);

/// One conv tap as the ARCANE conv kernels issue it: vslidedown.vx of the
/// input row into a temporary, then vmacc.es of that temporary times one
/// filter element into the accumulator, at vl = VLEN capacity, prepared
/// once as a two-instruction program (the slide folds into the MAC) and
/// run. Arg is the element width in bytes (1 = int8, 4 = int32).
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
  const vpu::Program prog = prepared({slide, macc}, cfg.vpu);
  Cycle t = 0;
  for (auto _ : state) {
    t = vu.run(prog, t);
    benchmark::DoNotOptimize(vu.vreg(macc.vd).data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() * vl);
  state.SetLabel("elements/s");
}
BENCHMARK(BM_VpuTap)->Arg(1)->Arg(4);

/// The program of the first tile of a conv-layer plan (xmk4: 3 channels of
/// 256-wide rows, k x k filters, then ReLU and 2x2 max-pooling) at the
/// element width of `state`'s first Arg, in bytes (1 = int8, 2 = int16,
/// 4 = int32).
std::vector<vpu::VInsn> conv_layer_first_tile(const SystemConfig& cfg,
                                              benchmark::State& state,
                                              std::uint32_t k = 3) {
  const auto et = state.range(0) == 1   ? ElemType::kByte
                  : state.range(0) == 2 ? ElemType::kHalf
                                        : ElemType::kWord;
  const std::uint32_t w = 256, h = 16;
  crt::KernelOp op;
  op.et = et;
  op.ms1 = {0x1000, {3 * h, w, w}, true};
  op.ms2 = {0x100000, {3 * k, k, k}, true};
  op.md = {0x200000, {(h - k + 1) / 2, (w - k + 1) / 2, (w - k + 1) / 2}, true};
  std::vector<vpu::VInsn> list;
  const crt::Plan plan = kernels::conv_layer_planner().plan(op, cfg);
  if (!plan.ok()) {
    state.SkipWithError(plan.error);
    return list;
  }
  plan.planner->program(plan, 0, 0, list);
  return list;
}

/// One whole conv-layer tile program on a warm unit: prepared (validated,
/// timed, slides folded) into a warm Program and run, per program.
void BM_VpuTileProgram(benchmark::State& state) {
  SystemConfig cfg{};
  const std::vector<vpu::VInsn> list = conv_layer_first_tile(cfg, state);
  if (list.empty()) return;

  vpu::LineStorage storage(cfg.llc);
  vpu::VectorUnit vu(cfg.llc.vpu, 0, storage);
  vpu::Program prog;
  Cycle t = 0;
  for (auto _ : state) {
    prog.prepare(list, cfg.llc.vpu, 4);
    t = vu.run(prog, t);
    benchmark::DoNotOptimize(vu.vreg(0).data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(list.size()));
  state.SetLabel(std::to_string(list.size()) + " vinsns/program");
}
BENCHMARK(BM_VpuTileProgram)->Arg(1)->Arg(4);

/// The same program prepared once and replayed, as the executor replays a
/// program whose key it has met before: the lane pass alone. Args:
/// element bytes and k (each conv row is one MAC run of 3 k^2 taps).
void BM_VpuTileProgramReplay(benchmark::State& state) {
  SystemConfig cfg{};
  const std::vector<vpu::VInsn> list = conv_layer_first_tile(
      cfg, state, static_cast<std::uint32_t>(state.range(1)));
  if (list.empty()) return;

  vpu::LineStorage storage(cfg.llc);
  vpu::VectorUnit vu(cfg.llc.vpu, 0, storage);
  vpu::Program prog;
  prog.prepare(list, cfg.llc.vpu, 4);
  Cycle t = 0;
  for (auto _ : state) {
    t = vu.run(prog, t);
    benchmark::DoNotOptimize(vu.vreg(0).data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(t);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(list.size()));
  state.SetLabel(std::to_string(list.size()) + " vinsns/program, " +
                 std::to_string(prog.steps().size()) + " steps");
}
BENCHMARK(BM_VpuTileProgramReplay)->ArgsProduct({{1, 2, 4}, {3, 7}});

/// The program of the conv2d tile every serve-pipeline job runs first
/// (pipeline_job: a 10x12 word input, 3x3 filter).
std::vector<vpu::VInsn> serve_conv_tile(const SystemConfig& cfg) {
  const sched::JobSpec job = sched::pipeline_job(sched::PipelineSlot(0x10000));
  const sched::OpSpec& s = job.ops.front();
  crt::KernelOp op;
  op.et = s.et;
  op.md = s.md;
  op.ms1 = s.ms1;
  op.ms2 = s.ms2;
  const crt::Plan plan = kernels::conv2d_planner().plan(op, cfg);
  std::vector<vpu::VInsn> list;
  plan.planner->program(plan, 0, 0, list);
  return list;
}

/// Program::prepare alone (validate, time, fold slides, mark MAC runs),
/// into a warm Program: what a tile pays whose program its executor does
/// not hold prepared. Arg 0: the serve-pipeline conv2d tile; 1 or 4: the
/// conv-layer first tile at that element width (k = 3), which the
/// arcane-conv workload prepares once per kernel.
void BM_VpuProgramPrepare(benchmark::State& state) {
  SystemConfig cfg{};
  const std::vector<vpu::VInsn> list = state.range(0) == 0
                                           ? serve_conv_tile(cfg)
                                           : conv_layer_first_tile(cfg, state);
  if (list.empty()) return;

  vpu::Program prog;
  for (auto _ : state) {
    prog.prepare(list, cfg.llc.vpu, 4);
    benchmark::DoNotOptimize(prog.steps().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(list.size()));
  state.SetLabel(std::to_string(list.size()) + " vinsns/program");
}
BENCHMARK(BM_VpuProgramPrepare)->Arg(0)->Arg(1)->Arg(4);

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

/// Kernel-phase traffic as serve-pipeline makes it (seed 1): of all
/// events, 7% land under 256 cycles ahead, 84% 256-4,095, 2% 4,096-65,535
/// and 6% further. Here 16 phase chains each schedule their next phase at a
/// distance from the first three bands, and 64 arrivals, parked beyond the
/// wheel's horizon as perfbench's generator leaves them, each re-park
/// themselves when they run; the queue drains one span at a time.
class KernelPhaseMix {
 public:
  explicit KernelPhaseMix(sim::EventQueue& q) : q_(q) {
    for (int i = 0; i < 64; ++i) arrival();
    for (int i = 0; i < 16; ++i) phase();
  }

 private:
  std::uint64_t draw() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }
  void phase() {
    const std::uint64_t r = draw();
    const std::uint64_t band = r % 1000, x = r / 1000;
    const Cycle d = band < 79    ? x % 256
                    : band < 976 ? 256 + x % 3840
                                 : 4096 + x % 61440;
    q_.schedule(q_.now() + d, [this] { phase(); });
  }
  void arrival() {
    q_.schedule(q_.now() + sim::EventQueue::kHorizon + draw() % 200000,
                [this] { arrival(); });
  }

  sim::EventQueue& q_;
  std::uint64_t rng_ = 1;
};

void BM_EventQueueKernelPhases(benchmark::State& state) {
  sim::EventQueue q;
  KernelPhaseMix mix(q);
  q.run_until(1 << 20);  // warm: the slab and the key heap at their peak
  const std::uint64_t executed_before = q.executed();
  for (auto _ : state) q.run_until(q.now() + sim::EventQueue::kSlots);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(q.executed() - executed_before));
}
BENCHMARK(BM_EventQueueKernelPhases);

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
/// retirement, without perfbench's arrival generator and verification. One
/// warm System serves every iteration, as perfbench's serve-pipeline pass
/// does: each iteration submits 64 fresh jobs into the same slots.
void BM_ServePipelineJobs(benchmark::State& state) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.sched_instances = 4;
  constexpr unsigned kJobs = 64;
  System sys(cfg);
  auto& sch = sys.scheduler();
  for (const char* name : {"t0", "t1", "t2", "t3"}) sch.add_tenant(name);
  const std::uint64_t completed_before = sch.stats().jobs_completed;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<sched::JobSpec> jobs;
    for (unsigned j = 0; j < kJobs; ++j) {
      jobs.push_back(sched::pipeline_job(
          sched::PipelineSlot(sys.data_base() + 0x10000 + j * 0x8000)));
    }
    const Cycle t0 = sys.events().now();
    state.ResumeTiming();
    for (unsigned j = 0; j < kJobs; ++j) {
      sch.submit(j % 4, std::move(jobs[j]), t0 + 400 * j);
    }
    sch.drain();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sch.stats().jobs_completed - completed_before));
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
