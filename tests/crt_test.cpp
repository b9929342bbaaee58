// C-RT runtime unit tests: decoder, matrix map, hazard renaming, kernel
// queue, scheduler policy, kernel library extensibility, and the prepared
// programs a kernel executor keeps across kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "crt/executor.hpp"
#include "crt/kernel_library.hpp"
#include "crt/matrix_map.hpp"
#include "isa/xmnmc.hpp"
#include "kernels/planner_util.hpp"
#include "kernels/planners.hpp"
#include "vpu/program_cache.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"
#include "test_support.hpp"

namespace arcane {
namespace {

namespace x = isa::xmnmc;
using workloads::Matrix;
using workloads::Rng;

x::OffloadPayload xmr_payload(unsigned md, Addr addr, MatShape s,
                              ElemType et = ElemType::kWord) {
  return x::pack_xmr(
      x::XmrFields{addr, static_cast<std::uint16_t>(s.stride),
                   static_cast<std::uint16_t>(md),
                   static_cast<std::uint16_t>(s.cols),
                   static_cast<std::uint16_t>(s.rows)},
      et);
}

TEST(MatrixMapTest, BindAndVersioning) {
  crt::MatrixMap map(4);
  EXPECT_FALSE(map.get(0).valid);
  EXPECT_EQ(map.bind(0, 0x100, {2, 3, 3}, ElemType::kWord), 1u);
  EXPECT_EQ(map.bind(0, 0x200, {2, 3, 3}, ElemType::kWord), 2u);
  EXPECT_TRUE(map.get(0).valid);
  EXPECT_EQ(map.get(0).addr, 0x200u);
  EXPECT_THROW(map.get(4), Error);
}

TEST(KernelLibraryTest, BuiltinsRegistered) {
  const auto lib = crt::KernelLibrary::with_builtins();
  EXPECT_NE(lib.find(x::kGemm), nullptr);
  EXPECT_NE(lib.find(x::kLeakyRelu), nullptr);
  EXPECT_NE(lib.find(x::kMaxPool), nullptr);
  EXPECT_NE(lib.find(x::kConv2d), nullptr);
  EXPECT_NE(lib.find(x::kConvLayer), nullptr);
  EXPECT_EQ(lib.find(17), nullptr);
  EXPECT_EQ(lib.list().size(), 5u);
}

TEST(KernelLibraryTest, RejectsBadRegistrations) {
  crt::KernelLibrary lib;
  crt::KernelInfo info;
  info.func5 = 31;  // xmr's slot — not a kernel id
  info.planner = &kernels::leaky_relu_planner();
  EXPECT_THROW(lib.register_kernel(info), Error);
  info.func5 = 5;
  info.planner = nullptr;
  EXPECT_THROW(lib.register_kernel(info), Error);
}

TEST(CrtDecodeTest, XmrBindsMatrix) {
  System sys(SystemConfig::paper(4));
  auto r = sys.runtime().decode_offload(
      xmr_payload(3, sys.data_base(), {8, 8, 8}), 100);
  EXPECT_TRUE(r.accepted);
  EXPECT_GT(r.complete_at, 100u);
  const auto& b = sys.runtime().matrix_map().get(3);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(b.addr, sys.data_base());
  EXPECT_EQ(b.shape.rows, 8u);
}

TEST(CrtDecodeTest, XmrRejectsBadRegisterAndShape) {
  System sys(SystemConfig::paper(4));
  auto r = sys.runtime().decode_offload(
      xmr_payload(200, sys.data_base(), {8, 8, 8}), 0);
  EXPECT_FALSE(r.accepted);
  r = sys.runtime().decode_offload(xmr_payload(0, sys.data_base(), {0, 8, 8}),
                                   1000);
  EXPECT_FALSE(r.accepted);
  // stride < cols is degenerate too
  r = sys.runtime().decode_offload(xmr_payload(0, sys.data_base(), {8, 8, 4}),
                                   2000);
  EXPECT_FALSE(r.accepted);
}

TEST(CrtDecodeTest, KernelShapeMismatchRejected) {
  System sys(SystemConfig::paper(4));
  auto& rt = sys.runtime();
  Cycle t = 0;
  t = rt.decode_offload(xmr_payload(0, sys.data_base(), {8, 8, 8}), t).complete_at;
  t = rt.decode_offload(xmr_payload(1, sys.data_base() + 0x1000, {3, 3, 3}), t).complete_at;
  // Destination shape wrong for conv2d (should be 6x6).
  t = rt.decode_offload(xmr_payload(2, sys.data_base() + 0x2000, {5, 5, 5}), t).complete_at;
  auto r = rt.decode_offload(
      x::pack_xmk(x::kConv2d, ElemType::kWord, {0, 0, 0, 2, 0, 1}), t);
  EXPECT_FALSE(r.accepted);
  EXPECT_NE(r.reject_reason.find("shape"), std::string::npos);
}

TEST(CrtDecodeTest, HazardRenameCounted) {
  System sys(SystemConfig::paper(4));
  Rng rng(1);
  auto X = Matrix<std::int32_t>::random(8, 8, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base(), X);
  auto& rt = sys.runtime();
  Cycle t = 0;
  t = rt.decode_offload(xmr_payload(0, sys.data_base(), {8, 8, 8}), t).complete_at;
  t = rt.decode_offload(xmr_payload(1, sys.data_base() + 0x8000, {8, 8, 8}), t).complete_at;
  t = rt.decode_offload(
            x::pack_xmk(x::kLeakyRelu, ElemType::kWord, {0, 0, 0, 1, 0, 0}), t)
          .complete_at;
  // Rebind m0 while the kernel may still reference it: a rename.
  t = rt.decode_offload(xmr_payload(0, sys.data_base() + 0x10000, {4, 4, 4}), t).complete_at;
  sys.drain();
  EXPECT_EQ(rt.phases().renames, 1u);
  EXPECT_EQ(rt.phases().kernels_executed, 1u);
  // The kernel used the OLD binding (snapshot semantics).
  auto got = workloads::load_matrix<std::int32_t>(sys, sys.data_base() + 0x8000, 8, 8);
  EXPECT_EQ(workloads::count_mismatches(got, workloads::golden_leaky_relu(X, 0u)), 0u);
}

// The bridge's status register reads the scheduler's host instance: busy,
// with the decoded kernel queued, until the event queue dispatches and
// retires it.
TEST(CrtDecodeTest, StatusRegisterReadsTheKernelQueue) {
  System sys(SystemConfig::paper(4));
  auto& rt = sys.runtime();
  Cycle t = 0;
  t = rt.decode_offload(xmr_payload(0, sys.data_base(), {8, 8, 8}), t).complete_at;
  t = rt.decode_offload(xmr_payload(1, sys.data_base() + 0x8000, {8, 8, 8}), t).complete_at;
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegStatus), 0u);
  ASSERT_TRUE(rt.decode_offload(
                    x::pack_xmk(x::kLeakyRelu, ElemType::kWord, {0, 0, 0, 1, 0, 0}), t)
                  .accepted);
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegStatus), 1u | (1u << 8));
  sys.drain();
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegStatus), 0u);
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegKernelCount), 1u);
}

TEST(CrtDecodeTest, QueueBackpressureDelaysDecode) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.kernel_queue_depth = 1;
  System sys(cfg);
  Rng rng(2);
  auto X = Matrix<std::int32_t>::random(64, 64, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base(), X);
  auto& rt = sys.runtime();
  Cycle t = 0;
  t = rt.decode_offload(xmr_payload(0, sys.data_base(), {64, 64, 64}), t).complete_at;
  t = rt.decode_offload(xmr_payload(1, sys.data_base() + 0x40000, {64, 64, 64}), t).complete_at;
  const auto k1 = rt.decode_offload(
      x::pack_xmk(x::kLeakyRelu, ElemType::kWord, {1, 0, 0, 1, 0, 0}), t);
  ASSERT_TRUE(k1.accepted);
  // Queue depth 1 and one kernel running: issuing two more back-to-back
  // forces the decoder to wait for completions.
  const auto k2 = rt.decode_offload(
      x::pack_xmk(x::kLeakyRelu, ElemType::kWord, {1, 0, 0, 1, 0, 0}),
      k1.complete_at);
  ASSERT_TRUE(k2.accepted);
  const auto k3 = rt.decode_offload(
      x::pack_xmk(x::kLeakyRelu, ElemType::kWord, {1, 0, 0, 1, 0, 0}),
      k2.complete_at);
  ASSERT_TRUE(k3.accepted);
  sys.drain();
  EXPECT_EQ(rt.phases().kernels_executed, 3u);
  // The third decode could not finish before the first kernel completed.
  EXPECT_GT(k3.complete_at, k1.complete_at);
}

TEST(CrtSchedulerTest, FewestDirtyPolicySelectsCleanVpu) {
  System sys(SystemConfig::paper(4));
  // Dirty many lines inside VPU 0's slice via host writes (invalid-first
  // victim selection fills VPU 0 first).
  Cycle t = 0;
  for (unsigned i = 0; i < 16; ++i) {
    std::uint32_t v = i;
    t = sys.llc()
            .host_access(sys.data_base() + 0x100000 + i * 1024, 4, true, &v, t)
            .complete_at + 1;
  }
  EXPECT_GT(sys.llc().dirty_lines_in_vpu(0), 0u);
  // Run a small kernel; the scheduler must pick a VPU with no dirty lines
  // (1, 2 or 3), leaving VPU 0's dirty lines untouched.
  Rng rng(3);
  auto X = Matrix<std::int32_t>::random(4, 4, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base(), X);
  XProgram prog;
  prog.xmr(0, sys.data_base(), X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_GT(sys.llc().dirty_lines_in_vpu(0), 0u);  // untouched
  EXPECT_GT(sys.vpus()[1].stats().instructions +
                sys.vpus()[2].stats().instructions +
                sys.vpus()[3].stats().instructions,
            0u);
  EXPECT_EQ(sys.vpus()[0].stats().instructions, 0u);
}

/// xmk7 = elementwise doubling, one tile: rows of ms1 into v0.., doubled
/// into v16.., stored to md.
class DoublePlanner final : public crt::Planner {
 public:
  crt::Plan plan(const crt::KernelOp& op,
                 const SystemConfig& /*cfg*/) const override {
    const auto& in = op.ms1.shape;
    if (op.md.shape.rows != in.rows || op.md.shape.cols != in.cols) {
      return crt::Plan::fail("xmk7: shape mismatch");
    }
    const Params p{op.ms1.addr,
                   op.md.addr,
                   in.stride * elem_bytes(op.et),
                   op.md.shape.stride * elem_bytes(op.et),
                   in.rows,
                   in.cols,
                   elem_bytes(op.et),
                   op.et};
    return kernels::one_chain_plan(*this, op, 1, 16 + in.rows, p);
  }
  kernels::Shape tile(const crt::Plan& plan, unsigned, unsigned,
                      crt::Tile& t) const override {
    const Params& p = plan.params<Params>();
    crt::DmaXfer load;
    load.mem_addr = p.in;
    load.rows = p.rows;
    load.row_bytes = p.cols * p.es;
    load.mem_stride = p.in_stride;
    load.first_vreg = 0;
    t.loads.push_back(load);
    crt::DmaXfer store = load;
    store.mem_addr = p.out;
    store.mem_stride = p.out_stride;
    store.first_vreg = 16;
    t.stores.push_back(store);
    return {p.rows, p.cols};
  }
  void program(const crt::Plan& plan, unsigned, unsigned,
               std::vector<vpu::VInsn>& prog) const override {
    const Params& p = plan.params<Params>();
    for (std::uint32_t r = 0; r < p.rows; ++r) {
      vpu::VInsn i;
      i.op = vpu::VOpc::kMulVX;
      i.vd = static_cast<std::uint8_t>(16 + r);
      i.vs1 = static_cast<std::uint8_t>(r);
      i.et = p.et;
      i.vl = p.cols;
      i.scalar = 2;
      prog.push_back(i);
    }
  }

 private:
  struct Params {
    Addr in, out;
    std::uint32_t in_stride, out_stride, rows, cols;
    unsigned es;
    ElemType et;
  };
};

TEST(CrtTest, CustomKernelRegistration) {
  // Register a user kernel (xmk7 = elementwise doubling) before System
  // construction — the paper's software-defined ISA extensibility.
  static const DoublePlanner doubler;
  auto lib = crt::KernelLibrary::with_builtins();
  crt::KernelInfo info;
  info.func5 = 7;
  info.name = "xmk7";
  info.description = "D = 2*ms1";
  info.uses_ms1 = true;
  info.planner = &doubler;
  lib.register_kernel(std::move(info));

  System sys(SystemConfig::paper(4), std::move(lib));
  Rng rng(9);
  auto X = Matrix<std::int32_t>::random(8, 12, rng, -50, 50);
  workloads::store_matrix(sys, sys.data_base(), X);
  XProgram prog;
  prog.xmr(0, sys.data_base(), X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.xmk(7, ElemType::kWord, {0, 0, 0, 1, 0, 0});
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  auto got = workloads::load_matrix<std::int32_t>(sys, sys.data_base() + 0x8000, 8, 12);
  for (std::uint32_t r = 0; r < 8; ++r) {
    for (std::uint32_t c = 0; c < 12; ++c) {
      ASSERT_EQ(got.at(r, c), 2 * X.at(r, c));
    }
  }
}

TEST(CrtTest, PhaseAccountingMonotone) {
  System sys(SystemConfig::paper(4));
  Rng rng(5);
  auto X = Matrix<std::int16_t>::random(32, 32, rng, -100, 100);
  workloads::store_matrix(sys, sys.data_base(), X);
  XProgram prog;
  prog.xmr(0, sys.data_base(), X.shape(), ElemType::kHalf);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kHalf);
  prog.leaky_relu(1, 0, 2, ElemType::kHalf);
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  sys.load_program(prog.finish());
  auto res = sys.run();
  const auto& ph = sys.runtime().phases();
  EXPECT_GT(ph.preamble, 0u);
  EXPECT_GT(ph.allocation, 0u);
  EXPECT_GT(ph.compute, 0u);
  EXPECT_GT(ph.writeback, 0u);
  EXPECT_LE(ph.pipeline_total(), res.cycles * 2);  // sanity
  EXPECT_GT(ph.dma_descriptors, 0u);
}

// ------------------- prepared programs across kernels -------------------
// A kernel executor keeps each slot's prepared programs keyed by the names
// their planners give them and replays them for any later tile, of any
// kernel, whose planner names an equal key. Replaying must be
// indistinguishable from preparing afresh. Every executor here checks each
// hit against a fresh emission of the program.

constexpr Addr kRegionBytes = 0x20000;

/// A System whose kernels run on VPU 0, launched by hand: on one executor
/// kept for every kernel, or on a fresh executor per kernel.
struct ExecRig {
  explicit ExecRig(bool fresh_per_kernel) : fresh(fresh_per_kernel) {
    Rng rng(77);
    std::vector<std::uint8_t> bytes(4 * kRegionBytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    sys.write_bytes(region(0), bytes);
  }
  Addr region(unsigned i) const {
    return sys.data_base() + 0x10000 + i * kRegionBytes;
  }
  /// Run `op` with `plan` to completion; returns its finish time.
  Cycle run(crt::KernelOp op, crt::Plan plan) {
    crt::CrtContext& ctx = sys.runtime().context();
    if (fresh || !ex) {
      ex = std::make_unique<crt::KernelExecutor>(ctx, client, 0);
      ex->check_programs(true);
    }
    op.uid = ctx.next_uid++;
    ctx.ecpu_free = std::max(ctx.ecpu_free, sys.events().now());
    const unsigned vpu0[] = {0};
    ex->launch(op, plan, vpu0, sys.events().now());
    sys.events().run_all();
    EXPECT_FALSE(ex->busy());
    return client.finish;
  }
  std::uint64_t prepared() {
    return sys.runtime().context().phases.programs_prepared;
  }

  bool fresh;
  System sys{SystemConfig::paper(4)};
  test::PlainClient client{sys.llc(), sys.config().llc};
  std::unique_ptr<crt::KernelExecutor> ex;
};

/// Every register byte and every VpuStats field of every VPU are equal.
void expect_same_vpus(System& a, System& b, const std::string& what) {
  for (unsigned v = 0; v < a.vpus().size(); ++v) {
    const sim::VpuStats& sa = a.vpus()[v].stats();
    const sim::VpuStats& sb = b.vpus()[v].stats();
    EXPECT_EQ(sa.instructions, sb.instructions) << what << " VPU " << v;
    EXPECT_EQ(sa.elements, sb.elements) << what << " VPU " << v;
    EXPECT_EQ(sa.macs, sb.macs) << what << " VPU " << v;
    EXPECT_EQ(sa.busy_cycles, sb.busy_cycles) << what << " VPU " << v;
    for (unsigned r = 0; r < a.config().llc.vpu.num_vregs; ++r) {
      const auto ra = a.vpus()[v].vreg(r);
      const auto rb = b.vpus()[v].vreg(r);
      ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin()))
          << what << " VPU " << v << " v" << r;
    }
  }
}

crt::Operand mat(Addr addr, std::uint32_t rows, std::uint32_t cols) {
  return crt::Operand{addr, {rows, cols, cols}, true};
}

/// A random kernel of one of the five builtin planners or the two
/// extensions, from a few shapes per planner so that programs repeat across
/// kernels.
crt::KernelOp random_kernel(Rng& rng, const ExecRig& rig) {
  const Addr a = rig.region(0), b = rig.region(1), c = rig.region(2),
             d = rig.region(3);
  crt::KernelOp op;
  static constexpr ElemType kTypes[] = {ElemType::kWord, ElemType::kHalf,
                                        ElemType::kByte};
  op.et = kTypes[rng.uniform(0, 2)];
  const auto h = static_cast<std::uint32_t>(8 * rng.uniform(2, 5));
  const auto w16 = static_cast<std::uint32_t>(16 * rng.uniform(1, 3));
  const auto k = static_cast<std::uint32_t>(rng.uniform(1, 2) * 2 + 1);
  // Convolutions of both filter sizes share their output widths.
  const std::uint32_t w = w16 + k - 1;
  switch (rng.uniform(0, 6)) {
    case 0:
      op.func5 = x::kConv2d;
      op.md = mat(d, h - k + 1, w - k + 1);
      op.ms1 = mat(a, h, w);
      op.ms2 = mat(b, k, k);
      break;
    case 1:
      op.func5 = x::kLeakyRelu;
      op.f.alpha = static_cast<std::uint16_t>(rng.uniform(1, 2));
      op.md = mat(d, h, w);
      op.ms1 = mat(a, h, w);
      break;
    case 2:
      op.func5 = x::kMaxPool;
      op.f.alpha = 2;
      op.f.beta = 2;
      op.md = mat(d, h / 2, w / 2);
      op.ms1 = mat(a, h, w);
      break;
    case 3:
      op.func5 = x::kGemm;
      op.f.alpha = 1;
      op.f.beta = static_cast<std::uint16_t>(rng.uniform(0, 1));
      op.md = mat(d, h / 2, w);
      op.ms1 = mat(a, h / 2, k * 4);
      op.ms2 = mat(b, k * 4, w);
      op.ms3 = mat(c, h / 2, w);
      break;
    case 4:
      op.func5 = x::kConvLayer;
      op.md = mat(d, (h - k + 1) / 2, (w - k + 1) / 2);
      op.ms1 = mat(a, 3 * h, w);
      op.ms2 = mat(b, 3 * k, k);
      break;
    case 5:  // transpose
      op.func5 = 5;
      op.md = mat(d, w, h);
      op.ms1 = mat(a, h, w);
      break;
    default:  // hadamard
      op.func5 = 6;
      op.md = mat(d, h, w);
      op.ms1 = mat(a, h, w);
      op.ms2 = mat(b, h, w);
      break;
  }
  return op;
}

TEST(ProgramReuseTest, WarmExecutorMatchesFreshExecutorsKernelByKernel) {
  ExecRig warm(/*fresh_per_kernel=*/false);
  ExecRig fresh(/*fresh_per_kernel=*/true);
  const crt::KernelLibrary lib = crt::KernelLibrary::with_extensions();
  Rng rng(1234);
  unsigned kernels = 0;
  bool planners[7] = {};
  while (kernels < 80) {
    const crt::KernelOp op = random_kernel(rng, warm);
    crt::Plan plan =
        lib.find(op.func5)->planner->plan(op, warm.sys.config());
    if (!plan.ok()) continue;
    ASSERT_EQ(plan.chain_count, 1u);
    planners[op.func5] = true;
    const std::string what = "kernel " + std::to_string(kernels) + " (xmk" +
                             std::to_string(op.func5) + ")";
    const Cycle tw = warm.run(op, plan);
    const Cycle tf = fresh.run(op, std::move(plan));
    EXPECT_EQ(tw, tf) << what;
    expect_same_vpus(warm.sys, fresh.sys, what);
    ++kernels;
  }
  for (bool used : planners) EXPECT_TRUE(used);
  // The warm executor replayed programs the fresh ones prepared again.
  EXPECT_LT(warm.prepared(), fresh.prepared());
}

/// One-tile kernels on VPU 0 that load 16 rows of 256 bytes into v0..v15
/// and run the list their parameters point to, under the shape they carry.
class ListPlanner final : public crt::Planner {
 public:
  struct Params {
    Addr load;
    const std::vector<vpu::VInsn>* prog;
    kernels::Shape shape;
  };
  crt::Plan plan(const crt::KernelOp&, const SystemConfig&) const override {
    return crt::Plan::fail("list kernels are planned by list_plan");
  }
  kernels::Shape tile(const crt::Plan& plan, unsigned, unsigned,
                      crt::Tile& t) const override {
    crt::DmaXfer load;
    load.mem_addr = plan.params<Params>().load;
    load.rows = 16;
    load.row_bytes = 256;
    load.mem_stride = 256;
    t.loads.push_back(load);
    return plan.params<Params>().shape;
  }
  void program(const crt::Plan& plan, unsigned, unsigned,
               std::vector<vpu::VInsn>& prog) const override {
    const std::vector<vpu::VInsn>& list = *plan.params<Params>().prog;
    prog.insert(prog.end(), list.begin(), list.end());
  }
};

crt::Plan list_plan(const ExecRig& rig, const crt::KernelOp& op,
                    const std::vector<vpu::VInsn>& prog,
                    const kernels::Shape& shape) {
  static const ListPlanner planner;
  return kernels::one_chain_plan(
      planner, op, 1, 24, ListPlanner::Params{rig.region(0), &prog, shape});
}

TEST(ProgramReuseTest, KeysOneFieldAwayFromACachedOneDoNotHit) {
  using vpu::VInsn;
  using vpu::VOpc;
  const std::vector<VInsn> base_prog = {
      {VOpc::kAddVX, 16, 0, 0, ElemType::kWord, 64, 3},
      {VOpc::kMulVV, 17, 16, 1, ElemType::kWord, 64, 0},
      {VOpc::kMaccEs, 18, 2, 17, ElemType::kWord, 64, 5},
      {VOpc::kSlideDownVX, 19, 18, 0, ElemType::kWord, 64, 2},
  };
  struct Variant {
    std::string name;
    crt::KernelOp op;
    kernels::Shape shape;
    std::vector<VInsn> prog;
  };
  Variant base{"base", {}, {1, 2, 3, 4, 5, 6, 7}, base_prog};
  base.op.func5 = x::kLeakyRelu;
  // Each variant changes one field of the key, and runs a program of its
  // own, so a wrong hit would leave other register contents.
  std::vector<Variant> variants;
  auto with = [&](std::string name, auto change) {
    Variant v = base;
    v.name = std::move(name);
    v.prog[0].scalar = 10 + static_cast<std::uint32_t>(variants.size());
    change(v);
    variants.push_back(std::move(v));
  };
  with("kernel", [](Variant& v) { v.op.func5 = x::kMaxPool; });
  with("et", [](Variant& v) { v.op.et = ElemType::kHalf; });
  for (std::size_t w = 0; w < vpu::ProgramKey::kShapeWords; ++w) {
    with("shape word " + std::to_string(w),
         [w](Variant& v) { v.shape[w] += 1; });
  }

  ExecRig warm(/*fresh_per_kernel=*/false);
  ExecRig fresh(/*fresh_per_kernel=*/true);
  auto run_both = [&](const Variant& v, const std::string& what) {
    const Cycle tw = warm.run(v.op, list_plan(warm, v.op, v.prog, v.shape));
    const Cycle tf = fresh.run(v.op, list_plan(fresh, v.op, v.prog, v.shape));
    EXPECT_EQ(tw, tf) << what;
    expect_same_vpus(warm.sys, fresh.sys, what);
  };
  run_both(base, "base");
  for (const Variant& v : variants) {
    const std::uint64_t before = warm.prepared();
    run_both(v, v.name);
    EXPECT_EQ(warm.prepared(), before + 1) << v.name << " hit the cache";
  }
  // The base and every variant replay now.
  const std::uint64_t before = warm.prepared();
  run_both(base, "base again");
  for (const Variant& v : variants) run_both(v, v.name + " again");
  EXPECT_EQ(warm.prepared(), before);
}

// The checked mode itself: a planner whose key leaves out what tells two
// of its programs apart is caught at the first hit.
TEST(ProgramReuseTest, CheckedModeCatchesAKeyThatNamesTwoPrograms) {
  using vpu::VInsn;
  using vpu::VOpc;
  const std::vector<VInsn> a = {{VOpc::kAddVX, 16, 0, 0, ElemType::kWord,
                                 64, 3}};
  std::vector<VInsn> b = a;
  b[0].scalar = 4;
  ExecRig rig(/*fresh_per_kernel=*/false);
  crt::KernelOp op;
  op.func5 = x::kLeakyRelu;
  rig.run(op, list_plan(rig, op, a, {1}));
  EXPECT_THROW(rig.run(op, list_plan(rig, op, b, {1})), AssertionError);
}

TEST(ProgramReuseTest, InvalidProgramReplaysItsPrefixAndError) {
  const SystemConfig cfg = SystemConfig::paper(4);
  vpu::LineStorage storage(cfg.llc);
  vpu::VectorUnit vu(cfg.llc.vpu, 0, storage);
  Rng rng(5);
  for (unsigned r = 0; r < cfg.llc.vpu.num_vregs; ++r) {
    for (auto& b : vu.vreg(r)) b = static_cast<std::uint8_t>(rng.next());
  }
  const auto regs = [&] {
    std::vector<std::uint8_t> all;
    for (unsigned r = 0; r < cfg.llc.vpu.num_vregs; ++r) {
      all.insert(all.end(), vu.vreg(r).begin(), vu.vreg(r).end());
    }
    return all;
  };
  const auto restore = [&](const std::vector<std::uint8_t>& all) {
    for (unsigned r = 0; r < cfg.llc.vpu.num_vregs; ++r) {
      std::copy_n(all.begin() + r * cfg.llc.vpu.vlen_bytes,
                  cfg.llc.vpu.vlen_bytes, vu.vreg(r).begin());
    }
  };
  using vpu::VInsn;
  using vpu::VOpc;
  const std::vector<VInsn> prog = {
      {VOpc::kAddVX, 4, 0, 0, ElemType::kWord, 64, 3},
      {VOpc::kMaccEs, 5, 1, 4, ElemType::kWord, 64, 7},
      {VOpc::kMulVX, 6, 5, 0, ElemType::kWord, 999, 2},  // vl > VLEN/4
      {VOpc::kAddVX, 7, 6, 0, ElemType::kWord, 64, 1},
  };
  vpu::ProgramCache cache;
  std::uint64_t prepared = 0;
  const std::vector<std::uint8_t> start = regs();
  struct Outcome {
    std::vector<std::uint8_t> regs;
    std::uint64_t instructions, busy;
    std::string error;
  };
  auto attempt = [&] {
    restore(start);
    const sim::VpuStats before = vu.stats();
    const vpu::Program& program = cache.acquire(
        vpu::ProgramKey{}, cfg.llc.vpu, 4,
        [&](std::vector<VInsn>& list) { list = prog; }, prepared);
    Outcome o;
    try {
      vu.run(program, 0);
      ADD_FAILURE() << "the invalid program ran through";
    } catch (const Error& err) {
      o.error = err.what();
    }
    o.regs = regs();
    o.instructions = vu.stats().instructions - before.instructions;
    o.busy = vu.stats().busy_cycles - before.busy_cycles;
    return o;
  };
  const Outcome first = attempt();
  const Outcome again = attempt();
  EXPECT_EQ(prepared, 1u);  // the second attempt replayed
  EXPECT_NE(first.error.find("vl exceeds"), std::string::npos) << first.error;
  EXPECT_EQ(again.error, first.error);
  EXPECT_EQ(first.instructions, 2u);
  EXPECT_EQ(again.instructions, first.instructions);
  EXPECT_EQ(again.busy, first.busy);
  EXPECT_NE(first.regs, start);  // the valid prefix ran
  EXPECT_EQ(again.regs, first.regs);
}

}  // namespace
}  // namespace arcane
