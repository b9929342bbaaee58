// Full-system integration: host program -> CV-X-IF -> bridge -> C-RT ->
// DMA -> VPU -> write-back, validated against the golden models.
#include <gtest/gtest.h>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "baseline/runner.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using workloads::Matrix;
using workloads::Rng;

template <typename T>
struct Layout {
  Addr a = 0, b = 0, c = 0, d = 0;
};

TEST(IntegrationTest, GemmSmallInt32) {
  System sys(SystemConfig::paper(4));
  Rng rng(7);
  auto A = Matrix<std::int32_t>::random(4, 5, rng, -100, 100);
  auto B = Matrix<std::int32_t>::random(5, 6, rng, -100, 100);
  auto C = Matrix<std::int32_t>::random(4, 6, rng, -100, 100);
  const Addr a = sys.data_base() + 0x1000;
  const Addr b = sys.data_base() + 0x2000;
  const Addr c = sys.data_base() + 0x3000;
  const Addr d = sys.data_base() + 0x4000;
  workloads::store_matrix(sys, a, A);
  workloads::store_matrix(sys, b, B);
  workloads::store_matrix(sys, c, C);

  XProgram prog;
  prog.xmr(0, a, A.shape(), ElemType::kWord);
  prog.xmr(1, b, B.shape(), ElemType::kWord);
  prog.xmr(2, c, C.shape(), ElemType::kWord);
  prog.xmr(3, d, MatShape{4, 6, 6}, ElemType::kWord);
  prog.gemm(3, 0, 1, 2, /*alpha=*/3, /*beta=*/-2, ElemType::kWord);
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<std::int32_t>(sys, d, 4, 6);
  auto want = workloads::golden_gemm(A, B, C, 3, -2);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

TEST(IntegrationTest, GemmTiledLargeK) {
  // K=37 forces several k-tiles; M=25 forces several m-tiles.
  System sys(SystemConfig::paper(4));
  Rng rng(11);
  auto A = Matrix<std::int32_t>::random(25, 37, rng, -9, 9);
  auto B = Matrix<std::int32_t>::random(37, 40, rng, -9, 9);
  auto C = Matrix<std::int32_t>::random(25, 40, rng, -9, 9);
  const Addr a = sys.data_base() + 0x10000;
  const Addr b = sys.data_base() + 0x20000;
  const Addr c = sys.data_base() + 0x30000;
  const Addr d = sys.data_base() + 0x40000;
  workloads::store_matrix(sys, a, A);
  workloads::store_matrix(sys, b, B);
  workloads::store_matrix(sys, c, C);

  XProgram prog;
  prog.xmr(0, a, A.shape(), ElemType::kWord);
  prog.xmr(1, b, B.shape(), ElemType::kWord);
  prog.xmr(2, c, C.shape(), ElemType::kWord);
  prog.xmr(3, d, MatShape{25, 40, 40}, ElemType::kWord);
  prog.gemm(3, 0, 1, 2, 1, 1, ElemType::kWord);
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<std::int32_t>(sys, d, 25, 40);
  auto want = workloads::golden_gemm(A, B, C, 1, 1);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

template <typename T>
void run_leaky_relu_case(std::uint32_t rows, std::uint32_t cols,
                         unsigned alpha) {
  System sys(SystemConfig::paper(4));
  Rng rng(rows * 7 + cols);
  auto X = Matrix<T>::random(rows, cols, rng, -100, 100);
  const Addr x = sys.data_base() + 0x1000;
  const Addr d = sys.data_base() + 0x80000;
  workloads::store_matrix(sys, x, X);

  XProgram prog;
  prog.xmr(0, x, X.shape(), X.elem_type());
  prog.xmr(1, d, X.shape(), X.elem_type());
  prog.leaky_relu(1, 0, alpha, X.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<T>(sys, d, rows, cols);
  auto want = workloads::golden_leaky_relu(X, alpha);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u)
      << rows << "x" << cols << " alpha=" << alpha;
}

TEST(IntegrationTest, LeakyReluVariants) {
  run_leaky_relu_case<std::int32_t>(8, 16, 0);
  run_leaky_relu_case<std::int32_t>(33, 20, 3);  // multiple tiles
  run_leaky_relu_case<std::int16_t>(16, 50, 2);
  run_leaky_relu_case<std::int8_t>(40, 64, 1);
}

template <typename T>
void run_maxpool_case(std::uint32_t rows, std::uint32_t cols, unsigned win,
                      unsigned stride) {
  System sys(SystemConfig::paper(4));
  Rng rng(rows * 31 + win);
  auto X = Matrix<T>::random(rows, cols, rng, -100, 100);
  const std::uint32_t ho = (rows - win) / stride + 1;
  const std::uint32_t wo = (cols - win) / stride + 1;
  const Addr x = sys.data_base() + 0x1000;
  const Addr d = sys.data_base() + 0x90000;
  workloads::store_matrix(sys, x, X);

  XProgram prog;
  prog.xmr(0, x, X.shape(), X.elem_type());
  prog.xmr(1, d, MatShape{ho, wo, wo}, X.elem_type());
  prog.maxpool(1, 0, win, stride, X.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<T>(sys, d, ho, wo);
  auto want = workloads::golden_maxpool(X, win, stride);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u)
      << rows << "x" << cols << " win=" << win << " stride=" << stride;
}

TEST(IntegrationTest, MaxPoolVariants) {
  run_maxpool_case<std::int32_t>(8, 8, 2, 2);
  run_maxpool_case<std::int32_t>(17, 23, 3, 2);  // overlap + odd shapes
  run_maxpool_case<std::int16_t>(30, 40, 2, 2);
  run_maxpool_case<std::int8_t>(64, 64, 4, 4);
}

TEST(IntegrationTest, Conv2dAgainstGolden) {
  System sys(SystemConfig::paper(4));
  Rng rng(3);
  auto X = Matrix<std::int32_t>::random(20, 24, rng, -10, 10);
  auto F = Matrix<std::int32_t>::random(3, 3, rng, -4, 4);
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x20000;
  const Addr d = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);

  XProgram prog;
  prog.xmr(0, x, X.shape(), ElemType::kWord);
  prog.xmr(1, f, F.shape(), ElemType::kWord);
  prog.xmr(2, d, MatShape{18, 22, 22}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<std::int32_t>(sys, d, 18, 22);
  auto want = workloads::golden_conv2d(X, F);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

struct ConvParam {
  std::uint32_t size;
  std::uint32_t k;
  ElemType et;
};

class ConvLayerSweep : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvLayerSweep, MatchesGolden) {
  const auto p = GetParam();
  baseline::ConvCase c;
  c.size = p.size;
  c.k = p.k;
  c.et = p.et;
  auto res = baseline::run_conv_layer(SystemConfig::paper(4),
                                      baseline::Impl::kArcane, c);
  EXPECT_TRUE(res.correct);
  EXPECT_GT(res.cycles, 0u);
  EXPECT_EQ(res.phases.kernels_executed, 1u);
  EXPECT_GT(res.vpu_macs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvLayerSweep,
    ::testing::Values(ConvParam{8, 3, ElemType::kWord},
                      ConvParam{16, 3, ElemType::kWord},
                      ConvParam{16, 5, ElemType::kWord},
                      ConvParam{16, 7, ElemType::kWord},
                      ConvParam{32, 3, ElemType::kHalf},
                      ConvParam{32, 5, ElemType::kHalf},
                      ConvParam{32, 3, ElemType::kByte},
                      ConvParam{64, 7, ElemType::kByte},
                      ConvParam{17, 3, ElemType::kWord},   // odd size
                      ConvParam{33, 5, ElemType::kByte}),  // odd size
    [](const auto& info) {
      const auto& p = info.param;
      return std::string("s") + std::to_string(p.size) + "k" +
             std::to_string(p.k) + elem_suffix(p.et);
    });

TEST(IntegrationTest, ConvLayerAllLaneConfigs) {
  for (unsigned lanes : {2u, 4u, 8u}) {
    baseline::ConvCase c;
    c.size = 24;
    c.k = 3;
    c.et = ElemType::kByte;
    auto res = baseline::run_conv_layer(SystemConfig::paper(lanes),
                                        baseline::Impl::kArcane, c);
    EXPECT_TRUE(res.correct) << lanes << " lanes";
  }
}

TEST(IntegrationTest, MoreLanesNeverSlower) {
  baseline::ConvCase c;
  c.size = 64;
  c.k = 3;
  c.et = ElemType::kByte;
  c.verify = false;
  const auto c2 = baseline::run_conv_layer(SystemConfig::paper(2),
                                           baseline::Impl::kArcane, c);
  const auto c8 = baseline::run_conv_layer(SystemConfig::paper(8),
                                           baseline::Impl::kArcane, c);
  EXPECT_LT(c8.cycles, c2.cycles);
}

TEST(IntegrationTest, MultiVpuModeCorrectAndFaster) {
  baseline::ConvCase c;
  c.size = 128;  // large enough to be compute-bound (DMA is shared)
  c.k = 5;
  c.et = ElemType::kByte;
  SystemConfig single = SystemConfig::paper(8);
  SystemConfig multi = single;
  multi.multi_vpu_kernels = true;
  const auto r1 = baseline::run_conv_layer(single, baseline::Impl::kArcane, c);
  const auto r4 = baseline::run_conv_layer(multi, baseline::Impl::kArcane, c);
  EXPECT_TRUE(r1.correct);
  EXPECT_TRUE(r4.correct);
  EXPECT_LT(r4.cycles, r1.cycles);
}

TEST(IntegrationTest, ChainedKernelsConvThenRelu) {
  System sys(SystemConfig::paper(4));
  Rng rng(17);
  auto X = Matrix<std::int32_t>::random(12, 12, rng, -10, 10);
  auto F = Matrix<std::int32_t>::random(3, 3, rng, -4, 4);
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);

  XProgram prog;
  prog.xmr(0, x, X.shape(), ElemType::kWord);
  prog.xmr(1, f, F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{10, 10, 10}, ElemType::kWord);
  prog.xmr(3, out, MatShape{10, 10, 10}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);  // consumes the conv output
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<std::int32_t>(sys, out, 10, 10);
  auto want = workloads::golden_leaky_relu(workloads::golden_conv2d(X, F), 0);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
  // Both kernels executed; the intermediate was also written back (full
  // write-back elision is off by default).
  EXPECT_EQ(sys.runtime().phases().kernels_executed, 2u);
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 10, 10);
  EXPECT_EQ(workloads::count_mismatches(midm, workloads::golden_conv2d(X, F)),
            0u);
}

TEST(IntegrationTest, MmioStatusRegisters) {
  System sys(SystemConfig::paper(4));
  const Addr mmio = sys.config().mem.mmio_base;
  using isa::Reg;
  XProgram prog;
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(mmio));
  a.lw(Reg::kA0, Reg::kT3, 0x00);  // magic
  a.ecall();
  sys.load_program(prog.finish());
  auto res = sys.run_unchecked();
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, 0x41524341u);
}

TEST(IntegrationTest, RejectedOffloadTrapsWithReason) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  // xmk4 without any xmr: destination not reserved -> rejected.
  prog.conv_layer(2, 0, 1, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  auto res = sys.run_unchecked();
  EXPECT_EQ(res.reason, cpu::HaltReason::kIllegalInstruction);
  EXPECT_EQ(sys.bridge().rejects(), 1u);
  EXPECT_FALSE(sys.bridge().last_reject_reason().empty());
}

TEST(IntegrationTest, UnknownKernelIdRejected) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmk(/*func5=*/17, ElemType::kWord, {});
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason,
            cpu::HaltReason::kIllegalInstruction);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  auto once = [] {
    baseline::ConvCase c;
    c.size = 24;
    c.k = 3;
    c.et = ElemType::kHalf;
    return baseline::run_conv_layer(SystemConfig::paper(4),
                                    baseline::Impl::kArcane, c)
        .cycles;
  };
  EXPECT_EQ(once(), once());
}

TEST(IntegrationTest, BackToBackKernelsQueue) {
  // Issue several independent LeakyReLU kernels back to back; the kernel
  // queue must serialize them and all results must be correct.
  System sys(SystemConfig::paper(4));
  Rng rng(5);
  constexpr unsigned kN = 5;
  std::vector<Matrix<std::int32_t>> xs;
  XProgram prog;
  for (unsigned i = 0; i < kN; ++i) {
    xs.push_back(Matrix<std::int32_t>::random(10, 10, rng, -50, 50));
    const Addr x = sys.data_base() + 0x1000 + i * 0x2000;
    workloads::store_matrix(sys, x, xs.back());
    prog.xmr(2 * i, x, xs.back().shape(), ElemType::kWord);
    prog.xmr(2 * i + 1, sys.data_base() + 0x100000 + i * 0x2000,
             MatShape{10, 10, 10}, ElemType::kWord);
    prog.leaky_relu(2 * i + 1, 2 * i, 1, ElemType::kWord);
  }
  for (unsigned i = 0; i < kN; ++i) {
    prog.sync_read(sys.data_base() + 0x100000 + i * 0x2000);
  }
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  for (unsigned i = 0; i < kN; ++i) {
    auto got = workloads::load_matrix<std::int32_t>(
        sys, sys.data_base() + 0x100000 + i * 0x2000, 10, 10);
    EXPECT_EQ(workloads::count_mismatches(
                  got, workloads::golden_leaky_relu(xs[i], 1)),
              0u)
        << "kernel " << i;
  }
  EXPECT_EQ(sys.runtime().phases().kernels_executed, kN);
}

}  // namespace
}  // namespace arcane
