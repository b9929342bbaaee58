// Steady-state allocation guard for the scheduled kernel path. This suite
// is its own executable because it replaces the global operator new with a
// counting one:
//
//  * stepping tiles on a warm executor (allocation DMA, micro-program,
//    write-back, every builtin planner) allocates nothing, also when its
//    tiles cycle through more programs than the executor keeps prepared;
//  * submitting and draining pipeline jobs on a warm scheduler allocates
//    within the bound stated at kPerJobAllocs;
//  * a kernel the host program offloads through the bridge allocates
//    nothing on a warm System;
//  * a warm event queue replaying serve-pipeline's schedule distances,
//    through all three levels of its timing wheel, allocates nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "crt/executor.hpp"
#include "isa/xmnmc.hpp"
#include "kernels/planner_util.hpp"
#include "sched/pipelines.hpp"
#include "vpu/program_cache.hpp"
#include "test_support.hpp"

namespace {

// The simulator is single-threaded; gtest's own allocations happen outside
// the measured windows.
std::uint64_t g_allocs = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: GCC's -Wmismatched-new-delete would otherwise see free()
// called on memory from operator new wherever both land in one function.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace arcane {
namespace {

/// Allocations since construction.
class AllocCounter {
 public:
  AllocCounter() : start_(g_allocs) {}
  std::uint64_t count() const { return g_allocs - start_; }

 private:
  std::uint64_t start_;
};

/// The event queue's node slab and its far-event key heap grow on first
/// use. Fill the slab with a few same-cycle events for every cycle of a
/// span and park some far events, so the measurements below see only the
/// kernel path.
void warm_event_queue(sim::EventQueue& q) {
  const Cycle now = q.now();
  for (Cycle c = 0; c < 256; ++c) {
    for (int k = 0; k < 8; ++k) q.schedule(now + c, [] {});
  }
  for (Cycle c = 0; c < 64; ++c) q.schedule(now + 100000 + c, [] {});
  q.run_all();
}

crt::KernelOp kernel_op(std::uint8_t func5, crt::Operand md, crt::Operand ms1,
                        crt::Operand ms2 = {}, crt::Operand ms3 = {},
                        std::uint16_t alpha = 0, std::uint16_t beta = 0) {
  crt::KernelOp op;
  op.func5 = func5;
  op.f.alpha = alpha;
  op.f.beta = beta;
  op.md = md;
  op.ms1 = ms1;
  op.ms2 = ms2;
  op.ms3 = ms3;
  return op;
}

crt::Operand mat(Addr addr, std::uint32_t rows, std::uint32_t cols) {
  return crt::Operand{addr, {rows, cols, cols}, true};
}

TEST(AllocSteadyStateTest, TileSteppingOnAWarmExecutorAllocatesNothing) {
  namespace x = isa::xmnmc;
  System sys(SystemConfig::paper(4));
  crt::CrtContext& ctx = sys.runtime().context();
  test::PlainClient client(sys.llc(), sys.config().llc);
  crt::KernelExecutor ex(ctx, client, /*id=*/0);

  // Multi-tile kernels of every builtin planner (word elements).
  const Addr a = sys.data_base() + 0x10000;
  const Addr b = a + 0x20000;
  const Addr c = b + 0x20000;
  const Addr d = c + 0x20000;
  const std::vector<crt::KernelOp> ops = {
      kernel_op(x::kConv2d, mat(d, 62, 62), mat(a, 64, 64), mat(b, 3, 3)),
      kernel_op(x::kLeakyRelu, mat(d, 64, 64), mat(a, 64, 64), {}, {}, 1),
      kernel_op(x::kMaxPool, mat(d, 32, 32), mat(a, 64, 64), {}, {}, 2, 2),
      kernel_op(x::kGemm, mat(d, 20, 300), mat(a, 20, 30), mat(b, 30, 300),
                mat(c, 20, 300), 1, 1),
      kernel_op(x::kConvLayer, mat(d, 31, 31), mat(a, 3 * 64, 64),
                mat(b, 3 * 3, 3)),
  };
  std::vector<crt::Plan> plans;
  for (const crt::KernelOp& op : ops) {
    plans.push_back(
        sys.runtime().library().find(op.func5)->planner->plan(op,
                                                              sys.config()));
    ASSERT_TRUE(plans.back().ok()) << plans.back().error;
    ASSERT_EQ(plans.back().chain_count, 1u);
    ASSERT_GT(plans.back().tile_count[0], 1u);
  }

  // Run every kernel once; return the allocations made from launch to
  // finish. The op copy is made before the window opens.
  const std::vector<unsigned> vpu0 = {0};
  auto run_all_kernels = [&] {
    std::uint64_t allocs = 0;
    for (std::size_t k = 0; k < ops.size(); ++k) {
      crt::KernelOp op = ops[k];
      op.uid = ctx.next_uid++;
      const unsigned before = client.finished;
      ctx.ecpu_free = std::max(ctx.ecpu_free, sys.events().now());
      const AllocCounter window;
      ex.launch(op, plans[k], vpu0, sys.events().now());
      sys.events().run_all();
      allocs += window.count();
      EXPECT_EQ(client.finished, before + 1);
    }
    return allocs;
  };

  warm_event_queue(sys.events());
  run_all_kernels();  // warm-up: the executor's tile and scratch capacity
  warm_event_queue(sys.events());
  EXPECT_EQ(run_all_kernels(), 0u);
}

/// A chain whose tile i runs `vadd.vx v1, v0, i` repeated 1 + (7 i mod 23)
/// times: every program differs from the others, and their lengths vary.
class CyclingPlanner final : public crt::Planner {
 public:
  crt::Plan plan(const crt::KernelOp& op, const SystemConfig&) const override {
    return kernels::one_chain_plan(
        *this, op, 2 * vpu::ProgramCache::kCapacity + 3, 2, /*params=*/0u);
  }
  kernels::Shape tile(const crt::Plan&, unsigned, unsigned i,
                      crt::Tile&) const override {
    return {i};
  }
  void program(const crt::Plan&, unsigned, unsigned i,
               std::vector<vpu::VInsn>& prog) const override {
    vpu::VInsn add;
    add.op = vpu::VOpc::kAddVX;
    add.vd = 1;
    add.et = ElemType::kWord;
    add.vl = 64;
    add.scalar = i;
    prog.assign(1 + (7 * i) % 23, add);
  }
};

// A chain whose tiles each run a program of their own, more of them than an
// executor slot keeps: every tile misses and is prepared into a recycled
// entry, which still allocates nothing once the slot has seen the longest
// program.
TEST(AllocSteadyStateTest, CyclingMoreProgramsThanTheCacheHoldsAllocatesNothing) {
  System sys(SystemConfig::paper(4));
  crt::CrtContext& ctx = sys.runtime().context();
  test::PlainClient client(sys.llc(), sys.config().llc);
  crt::KernelExecutor ex(ctx, client, /*id=*/0);

  const CyclingPlanner planner;
  const crt::Plan plan = planner.plan({}, sys.config());
  const unsigned kTiles = plan.tile_count[0];
  crt::KernelOp op;
  op.func5 = isa::xmnmc::kLeakyRelu;

  const std::vector<unsigned> vpu0 = {0};
  auto run_kernel = [&] {
    crt::KernelOp o = op;
    o.uid = ctx.next_uid++;
    const unsigned before = client.finished;
    const std::uint64_t prepared = ctx.phases.programs_prepared;
    ctx.ecpu_free = std::max(ctx.ecpu_free, sys.events().now());
    const AllocCounter window;
    ex.launch(o, plan, vpu0, sys.events().now());
    sys.events().run_all();
    const std::uint64_t allocs = window.count();
    EXPECT_EQ(client.finished, before + 1);
    EXPECT_EQ(ctx.phases.programs_prepared - prepared, kTiles);  // no hits
    return allocs;
  };

  warm_event_queue(sys.events());
  run_kernel();  // warm-up: the slot's entries and their room
  warm_event_queue(sys.events());
  EXPECT_EQ(run_kernel(), 0u);
}

// Heap allocations one pipeline job (4 single-chain ops) may make between
// submit and retirement. Its DAG and op table live in a recycled job slot
// and its plans are flat, so planning, dispatch, tile stepping and
// retirement add nothing; the one allowed per job covers the amortized
// growth of the outcome log and the event queue.
constexpr std::uint64_t kPerJobAllocs = 1;

TEST(AllocSteadyStateTest, PipelineJobsAllocateOnlyPerJobState) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.sched_instances = 4;
  System sys(cfg);
  auto& sch = sys.scheduler();
  for (const char* name : {"t0", "t1", "t2", "t3"}) sch.add_tenant(name);

  constexpr unsigned kJobs = 64;
  workloads::Rng rng(7);
  auto slot = [&](unsigned j) {
    return sched::PipelineSlot(sys.data_base() + 0x10000 + j * 0x8000);
  };
  for (unsigned j = 0; j < kJobs; ++j) {
    sched::place_pipeline_data(sys, slot(j),
                               sched::random_pipeline_data(rng));
  }
  // Submit and drain kJobs jobs, 4 tenants interleaved, arrivals spaced so
  // the 4 instances overlap; returns the allocations of submit + drain.
  auto batch = [&] {
    std::vector<sched::JobSpec> jobs;
    for (unsigned j = 0; j < kJobs; ++j) {
      jobs.push_back(sched::pipeline_job(slot(j)));
    }
    const Cycle t0 = sys.events().now();
    const AllocCounter window;
    for (unsigned j = 0; j < kJobs; ++j) {
      sch.submit(j % 4, std::move(jobs[j]), t0 + 400 * j);
    }
    sch.drain();
    return window.count();
  };

  warm_event_queue(sys.events());
  batch();  // warm-up: executor, queue and scratch capacity
  const std::uint64_t allocs = batch();
  EXPECT_EQ(sch.stats().jobs_completed, 2u * kJobs);
  EXPECT_LE(allocs, kJobs * kPerJobAllocs)
      << allocs / static_cast<double>(kJobs) << " allocations per job";
}

// The bridge path: the decoder's op and plan go straight into the host
// instance's op slot, where the executor borrows them, so once a System is
// warm, offloading twice the kernels allocates no more.
TEST(AllocSteadyStateTest, OffloadedKernelsAllocateNothingPerKernel) {
  constexpr unsigned kKernels = 16;
  System sys(SystemConfig::paper(4));
  warm_event_queue(sys.events());
  const Addr src = sys.data_base() + 0x10000;
  const Addr dst = src + 0x1000;
  const MatShape shape{8, 8, 8};
  // One straight-line host program, started at the warmed queue's time: a
  // warm-up section of 2 kKernels offloads, then kKernels, then 2 kKernels,
  // each ended by a read of the destination that waits for its last kernel.
  // ends[s] is the number of instructions executed through section s.
  XProgram prog;
  isa::Assembler& a = prog.a();
  prog.xmr(0, src, shape, ElemType::kWord);
  prog.xmr(1, dst, shape, ElemType::kWord);
  std::vector<std::uint64_t> ends;
  for (unsigned kernels : {2 * kKernels, kKernels, 2 * kKernels}) {
    for (unsigned k = 0; k < kernels; ++k) {
      prog.leaky_relu(1, 0, 1, ElemType::kWord);
    }
    prog.sync_read(dst);
    ends.push_back(a.pc() / 4);
  }
  prog.halt();
  sys.load_program(prog.finish());

  // Run the host program through section `s`; returns the allocations of
  // that stretch, less the reallocations of the scheduler's outcome log,
  // which keeps every job's report.
  const sched::Scheduler& sch = sys.scheduler();
  auto run_section = [&](std::size_t s) {
    const std::uint64_t insns = ends[s] - sys.host().stats().instructions;
    const std::size_t resolved = sch.outcomes().size();
    const std::size_t log_room = sch.outcomes().capacity();
    const AllocCounter window;
    const auto res = sys.host().run(insns);
    const std::uint64_t allocs = window.count();
    EXPECT_EQ(res.reason, cpu::HaltReason::kMaxInstructions);
    EXPECT_EQ(sch.outcomes().size() - resolved,
              s == 1 ? kKernels : 2 * kKernels);
    return allocs - (sch.outcomes().capacity() != log_room ? 1 : 0);
  };

  run_section(0);  // warm-up: host tenant, instance, slots and queues
  const std::uint64_t once = run_section(1);
  const std::uint64_t twice = run_section(2);
  EXPECT_EQ(twice, once) << "per extra offloaded kernel: "
                         << (static_cast<double>(twice) - once) / kKernels;
  sys.run();
}


/// serve-pipeline's schedule distances (seed 1), event by event: 7% under
/// 256 cycles ahead, 84% 256-4,095, 2% 4,096-65,535 and 6% beyond the
/// wheel's horizon. 16 phase chains each schedule their next phase, and 64
/// arrivals parked beyond the horizon each re-park themselves, until
/// `budget` events have been scheduled.
class ServeDistanceMix {
 public:
  ServeDistanceMix(sim::EventQueue& q, unsigned budget)
      : q_(q), left_(budget) {
    for (int i = 0; i < 64; ++i) arrival();
    for (int i = 0; i < 16; ++i) phase();
  }

 private:
  std::uint64_t draw() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }
  void phase() {
    if (left_ == 0) return;
    --left_;
    const std::uint64_t r = draw();
    const std::uint64_t band = r % 1000, x = r / 1000;
    const Cycle d = band < 79    ? x % 256
                    : band < 976 ? 256 + x % 3840
                                 : 4096 + x % 61440;
    q_.schedule(q_.now() + d, [this] { phase(); });
  }
  void arrival() {
    if (left_ == 0) return;
    --left_;
    q_.schedule(q_.now() + sim::EventQueue::kHorizon + draw() % 200000,
                [this] { arrival(); });
  }

  sim::EventQueue& q_;
  unsigned left_;
  std::uint64_t rng_ = 1;
};

// Once its slab and key heap have seen the peak, a queue replaying serve's
// distance mix through all three levels allocates nothing.
TEST(AllocSteadyStateTest, EventQueueReplayingServesDistanceMixAllocatesNothing) {
  constexpr unsigned kEvents = 20000;
  sim::EventQueue q;
  {
    ServeDistanceMix warm(q, kEvents);
    q.run_all();
  }
  const std::uint64_t executed_before = q.executed();
  const AllocCounter allocs;
  ServeDistanceMix mix(q, kEvents);
  EXPECT_EQ(q.beyond_horizon(), 64u);
  q.run_all();
  EXPECT_EQ(allocs.count(), 0u);
  EXPECT_EQ(q.executed() - executed_before, kEvents);
}
}  // namespace
}  // namespace arcane
