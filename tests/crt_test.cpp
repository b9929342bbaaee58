// C-RT runtime unit tests: decoder, matrix map, hazard renaming, kernel
// queue, scheduler policy, kernel library extensibility.
#include <gtest/gtest.h>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "crt/kernel_library.hpp"
#include "crt/matrix_map.hpp"
#include "isa/xmnmc.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

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
  info.planner = [](const crt::KernelOp&, const SystemConfig&) {
    return crt::Plan::fail("x");
  };
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

TEST(CrtTest, CustomKernelRegistration) {
  // Register a user kernel (xmk7 = elementwise doubling) before System
  // construction — the paper's software-defined ISA extensibility.
  auto lib = crt::KernelLibrary::with_builtins();
  crt::KernelInfo info;
  info.func5 = 7;
  info.name = "xmk7";
  info.description = "D = 2*ms1";
  info.uses_ms1 = true;
  info.planner = [](const crt::KernelOp& op, const SystemConfig& /*cfg*/) {
    const auto& in = op.ms1.shape;
    const unsigned es = elem_bytes(op.et);
    if (op.md.shape.rows != in.rows || op.md.shape.cols != in.cols) {
      return crt::Plan::fail("xmk7: shape mismatch");
    }
    crt::Plan plan;
    plan.dest_lo = op.md.addr;
    plan.dest_hi = op.md.addr + mat_footprint_bytes(op.md.shape, op.et);
    crt::Chain chain;
    chain.tile_count = 1;
    const auto self = op;  // snapshot
    chain.make_tile = [self, es](unsigned, crt::Tile& t) {
      t.clear();
      crt::DmaXfer load;
      load.mem_addr = self.ms1.addr;
      load.rows = self.ms1.shape.rows;
      load.row_bytes = self.ms1.shape.cols * es;
      load.mem_stride = self.ms1.shape.stride * es;
      load.first_vreg = 0;
      t.loads.push_back(load);
      for (std::uint32_t r = 0; r < self.ms1.shape.rows; ++r) {
        vpu::VInsn i;
        i.op = vpu::VOpc::kMulVX;
        i.vd = static_cast<std::uint8_t>(16 + r);
        i.vs1 = static_cast<std::uint8_t>(r);
        i.et = self.et;
        i.vl = self.ms1.shape.cols;
        i.scalar = 2;
        t.prog.push_back(i);
      }
      crt::DmaXfer store = load;
      store.mem_addr = self.md.addr;
      store.mem_stride = self.md.shape.stride * es;
      store.first_vreg = 16;
      t.stores.push_back(store);
    };
    chain.vregs_claimed = 16 + in.rows;
    plan.chains.push_back(std::move(chain));
    return plan;
  };
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

}  // namespace
}  // namespace arcane
