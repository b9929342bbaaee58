// Multi-tenant kernel-offload scheduler tests: DAG validation, dependency
// ordering under contention, buffer-reuse ordering across jobs,
// determinism, tenant fairness, cross-backend functional equivalence,
// multi-instance throughput scaling, the outcome log behind every per-job
// view, and host-program offloads sharing the scheduler with tenant jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "isa/xmnmc.hpp"
#include "sched/job.hpp"
#include "sched/pipelines.hpp"
#include "sched/ready_queue.hpp"
#include "sched/scheduler.hpp"
#include "vpu/program_cache.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"
#include "test_support.hpp"

namespace arcane {
namespace {

namespace x = isa::xmnmc;
using sched::operand;
using sched::PipelineData;
using sched::PipelineSlot;
using workloads::Matrix;
using workloads::Rng;

SystemConfig sched_config(MemBackendKind backend, unsigned instances,
                          SchedPolicy policy = SchedPolicy::kFifo) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = backend;
  cfg.sched_instances = instances;
  cfg.sched_policy = policy;
  return cfg;
}

// ------------------------- ReadyQueue unit tests -------------------------
// Direct coverage of the pick/take hot path (previously only exercised
// through full-System scheduler runs).

sched::ReadyEntry entry(std::uint64_t seq, std::uint16_t tenant,
                        std::uint64_t est_cost, std::uint8_t priority = 1) {
  sched::ReadyEntry e;
  e.job = static_cast<std::uint32_t>(seq);
  e.tenant = tenant;
  e.priority = priority;
  e.est_cost = est_cost;
  e.seq = seq;
  return e;
}

const auto kAll = [](const sched::ReadyEntry&) { return true; };

/// Drain `q` under `policy` and return the seq order of dispatch.
std::vector<std::uint64_t> drain_order(sched::ReadyQueue& q,
                                       SchedPolicy policy,
                                       unsigned num_tenants) {
  std::vector<std::uint64_t> order;
  unsigned rr_last = num_tenants ? num_tenants - 1 : 0;
  while (!q.empty()) {
    const std::size_t i = q.pick(policy, num_tenants, rr_last, kAll);
    EXPECT_NE(i, sched::ReadyQueue::kNone) << "eligible entries remain";
    if (i == sched::ReadyQueue::kNone) break;
    const sched::ReadyEntry e = q.take(i);
    rr_last = e.tenant;
    order.push_back(e.seq);
  }
  return order;
}

TEST(ReadyQueueTest, EmptyQueuePicksNoneUnderEveryPolicy) {
  sched::ReadyQueue q;
  for (SchedPolicy policy :
       {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf,
        SchedPolicy::kPriority}) {
    EXPECT_EQ(q.pick(policy, 4, 0, kAll), sched::ReadyQueue::kNone)
        << sched_policy_name(policy);
  }
  // Round-robin with no tenants registered must not spin.
  EXPECT_EQ(q.pick(SchedPolicy::kRoundRobin, 0, 0, kAll),
            sched::ReadyQueue::kNone);
}

TEST(ReadyQueueTest, SjfTieBreaksByPriorityThenSeq) {
  sched::ReadyQueue q;
  q.push(entry(10, 0, 500, 2));
  q.push(entry(11, 1, 500, 2));  // same cost+priority: lower seq (10) first
  q.push(entry(12, 2, 500, 0));  // same cost, higher class: beats both
  q.push(entry(13, 3, 400, 2));  // cheapest: beats everything
  std::vector<std::uint64_t> order = drain_order(q, SchedPolicy::kSjf, 4);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{13, 12, 10, 11}));
}

TEST(ReadyQueueTest, OrderingIsStableUnderEveryPolicy) {
  auto fill = [](sched::ReadyQueue& q) {
    q.push(entry(0, 1, 300, 1));
    q.push(entry(1, 0, 100, 2));
    q.push(entry(2, 1, 100, 1));
    q.push(entry(3, 2, 200, 0));
    q.push(entry(4, 0, 300, 2));
  };
  sched::ReadyQueue fifo;
  fill(fifo);
  EXPECT_EQ(drain_order(fifo, SchedPolicy::kFifo, 3),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  // Rotation from tenant 2: t0 -> seq 1, t1 -> seq 0, t2 -> seq 3, then
  // t0 -> seq 4, t1 -> seq 2.
  sched::ReadyQueue rr;
  fill(rr);
  EXPECT_EQ(drain_order(rr, SchedPolicy::kRoundRobin, 3),
            (std::vector<std::uint64_t>{1, 0, 3, 4, 2}));
  // Cost asc; 100-cost tie: priority 1 (seq 2) beats 2 (seq 1); 300-cost
  // tie: priority 1 (seq 0) beats 2 (seq 4).
  sched::ReadyQueue sjf;
  fill(sjf);
  EXPECT_EQ(drain_order(sjf, SchedPolicy::kSjf, 3),
            (std::vector<std::uint64_t>{2, 1, 3, 0, 4}));
  // Class asc; class-1 tie by seq; class-2 tie by seq.
  sched::ReadyQueue prio;
  fill(prio);
  EXPECT_EQ(drain_order(prio, SchedPolicy::kPriority, 3),
            (std::vector<std::uint64_t>{3, 0, 2, 1, 4}));
  // Repeated drains of identical content are identical (determinism).
  sched::ReadyQueue again;
  fill(again);
  EXPECT_EQ(drain_order(again, SchedPolicy::kSjf, 3),
            (std::vector<std::uint64_t>{2, 1, 3, 0, 4}));
}

TEST(ReadyQueueTest, PickHonoursEligibilityAndEraseIf) {
  sched::ReadyQueue q;
  q.push(entry(0, 0, 100));
  q.push(entry(1, 1, 200));
  q.push(entry(2, 0, 300));
  const auto odd_seq = [](const sched::ReadyEntry& e) {
    return e.seq % 2 == 1;
  };
  const std::size_t i = q.pick(SchedPolicy::kFifo, 2, 0, odd_seq);
  ASSERT_NE(i, sched::ReadyQueue::kNone);
  EXPECT_EQ(q.entries()[i].seq, 1u);
  EXPECT_EQ(q.erase_if([](const sched::ReadyEntry& e) {
              return e.tenant == 0;
            }),
            2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.entries()[0].seq, 1u);
}

TEST(SchedJobTest, ValidateRejectsMalformedDags) {
  sched::JobSpec empty;
  EXPECT_FALSE(sched::validate(empty).empty());

  sched::JobSpec self;
  self.ops.resize(1);
  self.ops[0].deps = {0};
  EXPECT_NE(sched::validate(self).find("itself"), std::string::npos);

  sched::JobSpec range;
  range.ops.resize(2);
  range.ops[1].deps = {7};
  EXPECT_NE(sched::validate(range).find("out of range"), std::string::npos);

  sched::JobSpec cycle;
  cycle.ops.resize(3);
  cycle.ops[0].deps = {2};
  cycle.ops[1].deps = {0};
  cycle.ops[2].deps = {1};
  EXPECT_NE(sched::validate(cycle).find("cycle"), std::string::npos);

  sched::JobSpec huge;
  huge.ops.resize(0x10000);
  EXPECT_NE(sched::validate(huge).find("too large"), std::string::npos);

  sched::JobSpec diamond;  // 0 -> {1, 2} -> 3: fine
  diamond.ops.resize(4);
  diamond.ops[1].deps = {0};
  diamond.ops[2].deps = {0};
  diamond.ops[3].deps = {1, 2};
  EXPECT_TRUE(sched::validate(diamond).empty());
}

TEST(SchedSubmitTest, RejectsCyclesAndBadKernels) {
  System sys(sched_config(MemBackendKind::kBurstPsram, 4));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t0");
  const PipelineSlot slot(sys.data_base());

  sched::JobSpec cycle = sched::pipeline_job(slot);
  cycle.ops[0].deps = {3};  // conv waits on gemm: cycle
  EXPECT_THROW(sch.submit(t0, cycle, 0), Error);

  sched::JobSpec unknown = sched::pipeline_job(slot);
  unknown.ops[0].func5 = 17;  // no kernel registered there
  EXPECT_THROW(sch.submit(t0, unknown, 0), Error);

  sched::JobSpec bad_shape = sched::pipeline_job(slot);
  bad_shape.ops[0].md = operand(sys.data_base() + 0x1000, {5, 5, 5});
  EXPECT_THROW(sch.submit(t0, bad_shape, 0), Error);

  EXPECT_THROW(sch.submit(7, sched::pipeline_job(slot), 0), Error);
}

// Dependency ordering under contention: many pipeline jobs across fewer
// instances; every op must consume its predecessor's output, so any
// ordering violation corrupts the final gemm result.
TEST(SchedPipelineTest, DependencyOrderingUnderContention) {
  System sys(sched_config(MemBackendKind::kBurstPsram, 2));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("stream0");
  const unsigned t1 = sch.add_tenant("stream1");

  Rng rng(11);
  constexpr unsigned kJobs = 6;
  std::vector<PipelineData> data;
  std::vector<PipelineSlot> slots;
  for (unsigned i = 0; i < kJobs; ++i) {
    slots.emplace_back(sys.data_base() + 0x10000 + i * 0x8000);
    data.push_back(sched::random_pipeline_data(rng));
    sched::place_pipeline_data(sys, slots[i], data[i]);
    sch.submit(i % 2 ? t1 : t0, sched::pipeline_job(slots[i]), i * 100);
  }
  sch.drain();

  EXPECT_EQ(sch.stats().jobs_completed, kJobs);
  EXPECT_EQ(sch.stats().ops_completed, kJobs * 4);
  for (unsigned i = 0; i < kJobs; ++i) {
    const auto out = workloads::load_matrix<std::int32_t>(sys, slots[i].out,
                                                          4, 4);
    EXPECT_EQ(workloads::count_mismatches(out, sched::golden_pipeline(data[i])),
              0u)
        << "job " << i;
  }
  for (const auto& rep : sch.completed()) {
    EXPECT_LE(rep.arrival, rep.first_dispatch);
    EXPECT_LT(rep.first_dispatch, rep.done);
  }
}

// Buffer reuse across jobs: two jobs of one tenant write the same output
// buffer. Conflicting ops must execute in ready order even when parked on
// different instance queues, so the final memory holds the *second* job's
// result.
TEST(SchedOrderingTest, ConflictingJobsExecuteInReadyOrder) {
  for (SchedPolicy policy :
       {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf}) {
    System sys(sched_config(MemBackendKind::kBurstPsram, 4, policy));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("t");
    Rng rng(13);
    const Addr in_a = sys.data_base() + 0x10000;
    const Addr in_b = sys.data_base() + 0x12000;
    const Addr out = sys.data_base() + 0x14000;  // shared by both jobs
    const auto A = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    const auto B = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
    workloads::store_matrix(sys, in_a, A);
    workloads::store_matrix(sys, in_b, B);
    auto relu_job = [&](Addr src) {
      sched::OpSpec relu;
      relu.func5 = x::kLeakyRelu;
      relu.alpha = 1;
      relu.md = operand(out, {8, 10, 10});
      relu.ms1 = operand(src, {8, 10, 10});
      sched::JobSpec job;
      job.ops.push_back(relu);
      return job;
    };
    sch.submit(t0, relu_job(in_a), 0);  // job 1: out <- f(A)
    sch.submit(t0, relu_job(in_b), 0);  // job 2: out <- f(B), must win
    sch.drain();

    const auto got = workloads::load_matrix<std::int32_t>(sys, out, 8, 10);
    EXPECT_EQ(workloads::count_mismatches(got,
                                          workloads::golden_leaky_relu(B, 1)),
              0u)
        << "policy " << sched_policy_name(policy);
  }
}

// One offload path: a host program offloading through the bridge while
// tenant jobs are in flight on the same System finishes both. The host
// instance spans every VPU, so its kernel waits until no serving instance
// holds one, instead of racing them for lines and operand ranges. The first
// offload creates the host tenant, its job slot and its instance while
// serving kernels are in flight: the job and instance tables grow under
// executors that borrow their ops from those job slots.
TEST(SchedMixedPathTest, HostOffloadsAndTenantJobsFinishTogether) {
  System sys(sched_config(MemBackendKind::kBurstPsram, 4));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("t");
  Rng rng(3);
  std::vector<PipelineSlot> slots;
  std::vector<PipelineData> data;
  for (unsigned j = 0; j < 4; ++j) {
    slots.emplace_back(sys.data_base() + 0x10000 + j * 0x8000);
    data.push_back(sched::random_pipeline_data(rng));
    sched::place_pipeline_data(sys, slots.back(), data.back());
    sch.submit(t0, sched::pipeline_job(slots.back()), 0);  // in flight at t=0
  }

  const auto X = Matrix<std::int8_t>::random(3 * 16, 16, rng, -9, 9);
  const auto F = Matrix<std::int8_t>::random(3 * 3, 3, rng, -3, 3);
  const Addr in = sys.data_base() + 0x40000;
  const Addr f = sys.data_base() + 0x44000;
  const Addr out = sys.data_base() + 0x48000;
  workloads::store_matrix(sys, in, X);
  workloads::store_matrix(sys, f, F);
  XProgram prog;
  prog.xmr(0, in, X.shape(), ElemType::kByte);
  prog.xmr(1, f, F.shape(), ElemType::kByte);
  prog.xmr(2, out, MatShape{7, 7, 7}, ElemType::kByte);
  prog.conv_layer(2, 0, 1, ElemType::kByte);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  // Dispatch the jobs due at cycle 0 first: the bridge decodes an offload
  // without running the events due before it.
  sys.events().run_until(0);
  while (sch.num_tenants() == 1) {  // step the host to its first offload
    ASSERT_EQ(sys.host().run(1).reason, cpu::HaltReason::kMaxInstructions);
  }
  const sim::SchedStats at_offload = sch.stats();
  EXPECT_GT(at_offload.ops_dispatched, at_offload.ops_completed)
      << "no serving kernel in flight at the first offload";
  sys.run();

  // The host tenant is created on the first offload, after tenant "t".
  ASSERT_EQ(sch.num_tenants(), 2u);
  const unsigned host = 1;
  EXPECT_EQ(sch.tenant_name(host), "host");
  EXPECT_EQ(sch.tenant_stats(t0).jobs_completed, 4u);
  EXPECT_EQ(sch.tenant_stats(host).jobs_completed, 1u);
  EXPECT_GT(sch.tenant_stats(host).total_queue_wait, 0u)
      << "the host kernel should have waited for the serving instances";
  EXPECT_EQ(sch.num_instances(), 4u);
  EXPECT_FALSE(sch.kernels_busy());

  const auto got = workloads::load_matrix<std::int8_t>(sys, out, 7, 7);
  EXPECT_EQ(workloads::count_mismatches(
                got, workloads::golden_conv_layer<std::int8_t>(X, F)),
            0u);
  for (unsigned j = 0; j < slots.size(); ++j) {
    const auto res =
        workloads::load_matrix<std::int32_t>(sys, slots[j].out, 4, 4);
    EXPECT_EQ(workloads::count_mismatches(res,
                                          sched::golden_pipeline(data[j])),
              0u)
        << "job " << j;
  }
}

// The paper's C-RT is a one-instance FIFO scheduler: the same kernel
// sequence, offloaded by a host program through the bridge or submitted as
// single-op jobs to a one-instance FIFO scheduler, leaves byte-identical
// memory.
TEST(SchedMixedPathTest, BridgeMatchesOneInstanceFifoScheduler) {
  Rng rng(11);
  const PipelineData d = sched::random_pipeline_data(rng);
  constexpr std::uint32_t kSlotBytes = 0x4000;

  auto image = [&](bool bridge) {
    SystemConfig cfg = sched_config(MemBackendKind::kBurstPsram, 1);
    System sys(cfg);
    const PipelineSlot s(sys.data_base() + 0x10000);
    sched::place_pipeline_data(sys, s, d);
    const sched::JobSpec pipeline = sched::pipeline_job(s);
    if (bridge) {
      XProgram prog;
      prog.xmr(0, s.x, d.X.shape(), ElemType::kWord);
      prog.xmr(1, s.f, d.F.shape(), ElemType::kWord);
      prog.xmr(2, s.c1, MatShape{8, 10, 10}, ElemType::kWord);
      prog.xmr(3, s.r, MatShape{8, 10, 10}, ElemType::kWord);
      prog.xmr(4, s.p, MatShape{4, 5, 5}, ElemType::kWord);
      prog.xmr(5, s.w, d.W.shape(), ElemType::kWord);
      prog.xmr(6, s.b, d.B.shape(), ElemType::kWord);
      prog.xmr(7, s.out, MatShape{4, 4, 4}, ElemType::kWord);
      prog.conv2d(2, 0, 1, ElemType::kWord);
      prog.leaky_relu(3, 2, 1, ElemType::kWord);
      prog.maxpool(4, 3, /*win=*/2, /*stride=*/2, ElemType::kWord);
      prog.gemm(7, 4, 5, 6, 1, 1, ElemType::kWord);
      prog.halt();
      sys.load_program(prog.finish());
      sys.run();
    } else {
      auto& sch = sys.scheduler();
      const unsigned t = sch.add_tenant("t");
      for (sched::OpSpec op : pipeline.ops) {
        op.deps.clear();
        sched::JobSpec job;
        job.ops.push_back(op);
        sch.submit(t, std::move(job), 0);
      }
      sch.drain();
    }
    std::vector<std::uint8_t> bytes(kSlotBytes);
    sys.read_bytes(s.x, bytes);
    return bytes;
  };

  const std::vector<std::uint8_t> via_bridge = image(true);
  EXPECT_EQ(via_bridge, image(false));
  // And both are right.
  Matrix<std::int32_t> out(4, 4);
  std::memcpy(out.flat().data(), via_bridge.data() + 0x3800, 4 * 4 * 4);
  EXPECT_EQ(workloads::count_mismatches(out, sched::golden_pipeline(d)), 0u);
}

TEST(SchedDeterminismTest, RepeatedRunsAreBitIdentical) {
  auto run = [](SchedPolicy policy) {
    System sys(sched_config(MemBackendKind::kDramTiming, 4, policy));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("a");
    const unsigned t1 = sch.add_tenant("b");
    Rng rng(23);
    std::vector<PipelineSlot> slots;
    std::vector<PipelineData> data;
    for (unsigned i = 0; i < 8; ++i) {
      slots.emplace_back(sys.data_base() + 0x20000 + i * 0x8000);
      data.push_back(sched::random_pipeline_data(rng));
      sched::place_pipeline_data(sys, slots[i], data[i]);
      sch.submit(i < 4 ? t0 : t1, sched::pipeline_job(slots[i]),
                 (i % 4) * 500);
    }
    sch.drain();
    std::vector<std::uint8_t> outs;
    for (const auto& s : slots) {
      std::vector<std::uint8_t> buf(4 * 4 * 4);
      sys.read_bytes(s.out, buf);
      outs.insert(outs.end(), buf.begin(), buf.end());
    }
    return std::tuple(sch.completed(), sch.stats().makespan, outs);
  };
  for (SchedPolicy policy :
       {SchedPolicy::kFifo, SchedPolicy::kRoundRobin, SchedPolicy::kSjf}) {
    const auto [jobs_a, makespan_a, outs_a] = run(policy);
    const auto [jobs_b, makespan_b, outs_b] = run(policy);
    EXPECT_EQ(makespan_a, makespan_b);
    EXPECT_EQ(outs_a, outs_b);
    ASSERT_EQ(jobs_a.size(), jobs_b.size());
    for (std::size_t i = 0; i < jobs_a.size(); ++i) {
      EXPECT_EQ(jobs_a[i].id, jobs_b[i].id);
      EXPECT_EQ(jobs_a[i].tenant, jobs_b[i].tenant);
      EXPECT_EQ(jobs_a[i].done, jobs_b[i].done);
    }
  }
}

// Round-robin fairness: two tenants flood one instance at t=0; RR must
// alternate their jobs while FIFO drains tenant 0's burst first.
TEST(SchedFairnessTest, RoundRobinAlternatesTenants) {
  auto completion_tenants = [](SchedPolicy policy) {
    System sys(sched_config(MemBackendKind::kBurstPsram, 1, policy));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("heavy");
    const unsigned t1 = sch.add_tenant("light");
    Rng rng(5);
    unsigned slot = 0;
    auto submit_one = [&](unsigned tenant) {
      const Addr base = sys.data_base() + 0x10000 + slot++ * 0x2000;
      auto X = Matrix<std::int32_t>::random(8, 10, rng, -9, 9);
      workloads::store_matrix(sys, base, X);
      sched::OpSpec relu;
      relu.func5 = x::kLeakyRelu;
      relu.md = operand(base + 0x1000, {8, 10, 10});
      relu.ms1 = operand(base, {8, 10, 10});
      sched::JobSpec job;
      job.ops.push_back(relu);
      sch.submit(tenant, job, 0);
    };
    for (unsigned i = 0; i < 6; ++i) submit_one(t0);
    for (unsigned i = 0; i < 6; ++i) submit_one(t1);
    sch.drain();
    std::vector<unsigned> order;
    for (const auto& rep : sch.completed()) order.push_back(rep.tenant);
    return order;
  };

  const auto rr = completion_tenants(SchedPolicy::kRoundRobin);
  ASSERT_EQ(rr.size(), 12u);
  // First job dispatches before tenant 1's burst arrives; afterwards the
  // rotation strictly alternates.
  for (std::size_t i = 1; i + 1 < rr.size(); i += 2) {
    EXPECT_NE(rr[i], rr[i + 1]) << "position " << i;
  }
  const auto fifo = completion_tenants(SchedPolicy::kFifo);
  ASSERT_EQ(fifo.size(), 12u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(fifo[i], 0u);
  for (std::size_t i = 6; i < 12; ++i) EXPECT_EQ(fifo[i], 1u);
}

TEST(SchedBackendTest, CrossBackendFunctionalEquivalence) {
  auto run = [](MemBackendKind backend) {
    System sys(sched_config(backend, 4));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("t");
    std::vector<PipelineSlot> slots;
    for (unsigned i = 0; i < 4; ++i) {
      slots.emplace_back(sys.data_base() + 0x10000 + i * 0x8000);
      Rng rng(100 + i);  // per-slot seed so backends see identical data
      sched::place_pipeline_data(sys, slots[i],
                                 sched::random_pipeline_data(rng));
      sch.submit(t0, sched::pipeline_job(slots[i]), i * 50);
    }
    sch.drain();
    std::vector<std::uint8_t> outs;
    for (const auto& s : slots) {
      std::vector<std::uint8_t> buf(4 * 4 * 4);
      sys.read_bytes(s.out, buf);
      outs.insert(outs.end(), buf.begin(), buf.end());
    }
    return std::pair(outs, sch.stats().makespan);
  };
  const auto [ideal, ideal_span] = run(MemBackendKind::kIdealSram);
  const auto [psram, psram_span] = run(MemBackendKind::kBurstPsram);
  const auto [dram, dram_span] = run(MemBackendKind::kDramTiming);
  EXPECT_EQ(ideal, psram);
  EXPECT_EQ(psram, dram);
  EXPECT_LE(ideal_span, psram_span);
  EXPECT_LE(psram_span, dram_span);
}

// A pipeline job's tile programs do not depend on its buffers' addresses,
// so N identical jobs on one instance prepare each distinct program of a
// job once: every later tile replays the executor's prepared copy.
TEST(SchedProgramReuseTest, IdenticalJobsPrepareEachDistinctProgramOnce) {
  System sys(sched_config(MemBackendKind::kDramTiming, 1));
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("a");

  // The distinct programs one job's tiles name, from its plans.
  std::vector<vpu::ProgramKey> distinct;
  const PipelineSlot first(sys.data_base() + 0x20000);
  for (const sched::OpSpec& s : sched::pipeline_job(first).ops) {
    crt::KernelOp op;
    op.func5 = s.func5;
    op.et = s.et;
    op.f.alpha = s.alpha;
    op.f.beta = s.beta;
    op.md = s.md;
    op.ms1 = s.ms1;
    op.ms2 = s.ms2;
    op.ms3 = s.ms3;
    const crt::Plan plan =
        sys.runtime().library().find(s.func5)->planner->plan(op,
                                                             sys.config());
    ASSERT_TRUE(plan.ok()) << plan.error;
    for (unsigned c = 0; c < plan.chain_count; ++c) {
      crt::Tile t;
      for (unsigned i = 0; i < plan.tile_count[c]; ++i) {
        t.clear();
        const vpu::ProgramKey key{op.func5, op.et,
                                  plan.planner->tile(plan, c, i, t)};
        if (std::find(distinct.begin(), distinct.end(), key) ==
            distinct.end()) {
          distinct.push_back(key);
        }
      }
    }
  }
  ASSERT_LE(distinct.size(), vpu::ProgramCache::kCapacity);

  constexpr unsigned kJobs = 12;
  Rng rng(31);
  for (unsigned j = 0; j < kJobs; ++j) {
    const PipelineSlot slot(sys.data_base() + 0x20000 + j * 0x8000);
    sched::place_pipeline_data(sys, slot, sched::random_pipeline_data(rng));
    sch.submit(t0, sched::pipeline_job(slot), j * 300);
  }
  sch.drain();
  EXPECT_EQ(sch.stats().jobs_completed, kJobs);
  EXPECT_EQ(sys.runtime().phases().programs_prepared, distinct.size());
}

// The scheduler frees a kernel's lines by walking only its VPUs' claimed
// registers. Run every event of a scenario one at a time; after each, for
// every kernel whose busy lines just went free, the full scan over all
// lines (test::release_kernel_lines_everywhere) must find nothing left to
// free.
class LineReleaseCheck {
 public:
  explicit LineReleaseCheck(System& sys) : sys_(&sys), before_(owners()) {}

  /// Runs the queue dry; returns the releases seen.
  unsigned run() {
    unsigned releases = 0;
    while (!sys_->events().empty()) {
      sys_->events().run_one();
      std::map<std::uint64_t, unsigned> now = owners();
      for (const auto& [uid, lines] : before_) {
        const auto it = now.find(uid);
        if (it != now.end() && it->second >= lines) continue;
        ++releases;
        const auto states = line_states();
        test::release_kernel_lines_everywhere(sys_->llc(),
                                              sys_->config().llc, uid);
        EXPECT_EQ(line_states(), states)
            << "kernel " << uid << " kept lines the full scan frees";
      }
      before_ = std::move(now);
    }
    return releases;
  }

 private:
  std::map<std::uint64_t, unsigned> owners() const {
    std::map<std::uint64_t, unsigned> busy;
    const llc::Llc& llc = sys_->llc();
    for (unsigned i = 0; i < llc.num_lines(); ++i) {
      if (llc.line(i).state == llc::LineState::kBusy) {
        ++busy[llc.line(i).owner_uid];
      }
    }
    return busy;
  }
  std::vector<std::pair<llc::LineState, std::uint64_t>> line_states() const {
    std::vector<std::pair<llc::LineState, std::uint64_t>> s;
    for (unsigned i = 0; i < sys_->llc().num_lines(); ++i) {
      s.emplace_back(sys_->llc().line(i).state, sys_->llc().line(i).owner_uid);
    }
    return s;
  }

  System* sys_;
  std::map<std::uint64_t, unsigned> before_;
};

/// Submit `jobs` pipeline jobs across two tenants, run them through a
/// LineReleaseCheck and return the releases it saw.
unsigned checked_pipelines(System& sys, unsigned jobs, Cycle spacing) {
  auto& sch = sys.scheduler();
  const unsigned t0 = sch.add_tenant("a");
  const unsigned t1 = sch.add_tenant("b");
  Rng rng(41);
  for (unsigned j = 0; j < jobs; ++j) {
    // Four slots, reused: later jobs overwrite earlier destinations.
    const PipelineSlot slot(sys.data_base() + 0x20000 + (j % 4) * 0x8000);
    sched::place_pipeline_data(sys, slot, sched::random_pipeline_data(rng));
    sch.submit(j % 2 ? t1 : t0, sched::pipeline_job(slot), j * spacing);
  }
  const unsigned releases = LineReleaseCheck(sys).run();
  sch.drain();
  return releases;
}

unsigned busy_lines(System& sys) {
  unsigned busy = 0;
  for (unsigned v = 0; v < sys.config().llc.num_vpus; ++v) {
    busy += sys.llc().busy_lines_in_vpu(v);
  }
  return busy;
}

TEST(SchedLineReleaseTest, FinishedKernelsFreeWhatTheFullScanFrees) {
  System sys(sched_config(MemBackendKind::kDramTiming, 4));
  const unsigned releases = checked_pipelines(sys, 16, 150);
  EXPECT_EQ(releases, sys.runtime().phases().kernels_executed);
  EXPECT_EQ(busy_lines(sys), 0u);
}

TEST(SchedLineReleaseTest, AbortedHungKernelsFreeWhatTheFullScanFrees) {
  SystemConfig cfg = sched_config(MemBackendKind::kBurstPsram, 2);
  cfg.fault.enabled = true;
  cfg.fault.watchdog_timeout = 500;
  cfg.fault.max_retries = 2;
  cfg.fault.retry_backoff = 100;
  for (const auto& [at, inst] :
       {std::pair<std::uint64_t, unsigned>{0, 0}, {2000, 1}, {6000, 0}}) {
    FaultEvent e;
    e.kind = FaultKind::kOpHang;
    e.at = at;
    e.instance = inst;
    cfg.fault.events.push_back(e);
  }
  System sys(cfg);
  const unsigned releases = checked_pipelines(sys, 8, 400);
  EXPECT_EQ(sys.scheduler().stats().watchdog_fires, 3u);
  EXPECT_EQ(sys.scheduler().stats().jobs_completed, 8u);
  EXPECT_EQ(releases, sys.runtime().phases().kernels_executed);
  EXPECT_EQ(busy_lines(sys), 0u);
}

// Host programs run the CPU and the event queue together, so the two
// host-path cases check the end state: no line stays busy, which is what
// the full scan of every retired kernel would leave.
TEST(SchedLineReleaseTest, DroppedResidentsFreeEveryLine) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.full_writeback_elision = true;
  System sys(cfg);
  Rng rng(7);
  auto X = Matrix<std::int32_t>::random(14, 16, rng, -9, 9);
  auto F = Matrix<std::int32_t>::random(3, 3, rng, -3, 3);
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);
  XProgram prog;
  prog.xmr(0, x, X.shape(), ElemType::kWord);
  prog.xmr(1, f, F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  // The first conv's result stays resident for the relu; the second conv
  // overwrites it, which drops the resident.
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_EQ(sys.runtime().phases().full_elisions, 1u);
  EXPECT_EQ(busy_lines(sys), 0u);
}

TEST(SchedLineReleaseTest, MultiChainHostKernelsFreeEveryVpu) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.multi_vpu_kernels = true;
  System sys(cfg);
  Rng rng(43);
  auto X = Matrix<std::int16_t>::random(3 * 40, 40, rng, -8, 7);
  auto F = Matrix<std::int16_t>::random(3 * 3, 3, rng, -4, 3);
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x300000;
  const Addr d = sys.data_base() + 0x380000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);
  XProgram prog;
  prog.xmr(0, x, X.shape(), ElemType::kHalf);
  prog.xmr(1, f, F.shape(), ElemType::kHalf);
  prog.xmr(2, d, MatShape{19, 19, 19}, ElemType::kHalf);
  prog.conv_layer(2, 0, 1, ElemType::kHalf);
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  for (unsigned v = 0; v < cfg.llc.num_vpus; ++v) {
    EXPECT_GT(sys.vpus()[v].stats().instructions, 0u) << "VPU " << v;
  }
  EXPECT_EQ(busy_lines(sys), 0u);
}

// The acceptance-criterion scaling check: independent single-op jobs under
// the psram backend must reach >= 2x requests/sec with 4 instances vs 1.
TEST(SchedScalingTest, FourInstancesAtLeastTwiceOneInstance) {
  auto makespan = [](unsigned instances) {
    System sys(sched_config(MemBackendKind::kBurstPsram, instances));
    auto& sch = sys.scheduler();
    const unsigned t0 = sch.add_tenant("load");
    Rng rng(7);
    constexpr unsigned kJobs = 16;
    for (unsigned i = 0; i < kJobs; ++i) {
      const Addr base = sys.data_base() + 0x10000 + i * 0x4000;
      sched::place_scaling_probe_data(sys, base, rng);
      sch.submit(t0, sched::scaling_probe_job(base), 0);
    }
    sch.drain();
    return sch.stats().makespan;
  };
  const Cycle one = makespan(1);
  const Cycle four = makespan(4);
  // requests/sec ratio == makespan ratio for a fixed job count.
  EXPECT_GE(one, 2 * four) << "1-instance " << one << " vs 4-instance "
                           << four;
}

// One seeded serving run that resolves jobs every way a job can resolve:
// four tenants under QoS drop-on-expiry, transient errors that retry and
// fail over, a burst that exhausts the retries, and an instance fail-stop.
// The outcome log is the scheduler's one record of resolved jobs; the job
// totals and the flight recorder are views of it.
TEST(SchedOutcomeLogTest, SeededRunViewsAgreeWithTheLog) {
  constexpr unsigned kTenants = 4;
  constexpr unsigned kJobsPerTenant = 72;  // > kFlightDepth: ring wraps
  constexpr Cycle kPeriod = 33000;         // per tenant: a mild overload
  SystemConfig cfg = sched_config(MemBackendKind::kBurstPsram, 3);
  cfg.qos.enabled = true;
  cfg.qos.deadline = 60000;
  cfg.qos.deadline_policy = DeadlinePolicy::kDropOnExpiry;
  cfg.fault.enabled = true;
  cfg.fault.max_retries = 1;
  cfg.fault.retry_backoff = 64;
  Rng rng(0x0C7C0E);
  auto fault = [&](FaultKind kind, unsigned instance) {
    FaultEvent e;
    e.kind = kind;
    e.at = static_cast<Cycle>(rng.uniform(0, kJobsPerTenant * kPeriod / 2));
    e.instance = instance;
    return e;
  };
  for (unsigned i = 0; i < 6; ++i) {
    cfg.fault.events.push_back(fault(FaultKind::kTransientError, i % 3));
  }
  // Three errors armed on every instance at once: an op that fails and
  // fails over meets a second error and exhausts max_retries.
  const FaultEvent burst = fault(FaultKind::kTransientError, 0);
  for (unsigned i = 0; i < 9; ++i) {
    cfg.fault.events.push_back(burst);
    cfg.fault.events.back().instance = i % 3;
  }
  FaultEvent stop = fault(FaultKind::kInstanceFailStop, 2);
  stop.recover_at = stop.at + 20 * kPeriod;
  cfg.fault.events.push_back(stop);
  System sys(cfg);
  auto& adm = sys.admission();
  auto& sch = sys.scheduler();
  for (unsigned t = 0; t < kTenants; ++t) {
    adm.add_tenant(std::string("t").append(std::to_string(t)));
  }
  for (unsigned j = 0; j < kJobsPerTenant; ++j) {
    for (unsigned t = 0; t < kTenants; ++t) {
      // Slots are reused (outputs are not checked here); the hazard checks
      // order jobs that share one.
      const PipelineSlot slot(sys.data_base() + 0x10000 +
                              ((j * kTenants + t) % 128) * 0x8000);
      sched::place_pipeline_data(sys, slot, sched::random_pipeline_data(rng));
      const auto jitter = static_cast<Cycle>(rng.uniform(0, kPeriod / 2));
      adm.submit(t, sched::pipeline_job(slot), j * kPeriod + jitter);
    }
  }
  adm.drain();

  // 1. Every submitted job is in the log exactly once, as completed, shed
  //    or failed — and the run produced all three.
  const std::vector<sched::JobReport>& log = sch.outcomes();
  const sim::SchedStats stats = sch.stats();
  std::vector<std::uint64_t> ids;
  for (const sched::JobReport& r : log) {
    EXPECT_FALSE(r.dropped && r.failed) << "job " << r.id;
    ids.push_back(r.id);
  }
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), stats.jobs_submitted);
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
  EXPECT_GT(sch.completed().size(), 0u);
  EXPECT_GT(sch.shed().size(), 0u);
  EXPECT_GT(sch.failed().size(), 0u);
  EXPECT_EQ(sch.completed().size() + sch.shed().size() + sch.failed().size(),
            log.size());
  EXPECT_GT(stats.failovers, 0u);
  EXPECT_EQ(stats.quarantines, 1u);

  // 2. Each stats() total is its tenant sum (and agrees with the log).
  sim::SchedStats sum;
  std::uint64_t log_retries = 0;
  for (const sched::JobReport& r : log) log_retries += r.retries;
  for (unsigned t = 0; t < kTenants; ++t) {
    const sim::TenantStats& ts = sch.tenant_stats(t);
    sum.jobs_submitted += ts.jobs_submitted;
    sum.jobs_completed += ts.jobs_completed;
    sum.jobs_dropped += ts.jobs_dropped;
    sum.jobs_failed += ts.jobs_failed;
    sum.deadline_misses += ts.deadline_misses;
    sum.retries += ts.retries;
    sum.failovers += ts.failovers;
    sum.total_queue_wait += ts.total_queue_wait;
    sum.makespan = std::max(sum.makespan, ts.last_completion);
  }
  EXPECT_EQ(stats.jobs_submitted, sum.jobs_submitted);
  EXPECT_EQ(stats.jobs_completed, sum.jobs_completed);
  EXPECT_EQ(stats.jobs_dropped, sum.jobs_dropped);
  EXPECT_EQ(stats.jobs_failed, sum.jobs_failed);
  EXPECT_EQ(stats.deadline_misses, sum.deadline_misses);
  EXPECT_EQ(stats.retries, sum.retries);
  EXPECT_EQ(stats.failovers, sum.failovers);
  EXPECT_EQ(stats.total_queue_wait, sum.total_queue_wait);
  EXPECT_EQ(stats.makespan, sum.makespan);
  EXPECT_EQ(stats.jobs_completed, sch.completed().size());
  EXPECT_EQ(stats.jobs_dropped, sch.shed().size());
  EXPECT_EQ(stats.jobs_failed, sch.failed().size());
  EXPECT_EQ(stats.retries, log_retries);

  // 3. The flight view of each tenant is its last <= kFlightDepth entries.
  bool wrapped = false;
  for (unsigned t = 0; t < kTenants; ++t) {
    std::vector<sched::JobReport> mine;
    for (const sched::JobReport& r : log) {
      if (r.tenant == t) mine.push_back(r);
    }
    wrapped = wrapped || mine.size() > sched::Scheduler::kFlightDepth;
    const std::size_t keep =
        std::min(mine.size(), sched::Scheduler::kFlightDepth);
    const std::vector<sched::JobReport> recent = sch.recent(t);
    ASSERT_EQ(recent.size(), keep) << "tenant " << t;
    for (std::size_t i = 0; i < keep; ++i) {
      const sched::JobReport& want = mine[mine.size() - keep + i];
      EXPECT_EQ(recent[i].id, want.id);
      EXPECT_EQ(recent[i].done, want.done);
    }
  }
  EXPECT_TRUE(wrapped);
}

}  // namespace
}  // namespace arcane
