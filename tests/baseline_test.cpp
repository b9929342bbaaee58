// Baseline program validation: the hand-written scalar RV32IM and XCVPULP
// assembly kernels must match the wide-accumulation golden models over
// randomized shapes and data, and their relative performance must be sane.
#include <gtest/gtest.h>

#include <sstream>

#include "arcane/system.hpp"
#include "baseline/runner.hpp"
#include "baseline/scalar_kernels.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using workloads::Matrix;
using workloads::Rng;

struct BaselineParam {
  std::uint32_t size;
  std::uint32_t k;
  ElemType et;
  baseline::Impl impl;
};

class BaselineConvSweep : public ::testing::TestWithParam<BaselineParam> {};

TEST_P(BaselineConvSweep, MatchesWideGolden) {
  const auto p = GetParam();
  baseline::ConvCase c;
  c.size = p.size;
  c.k = p.k;
  c.et = p.et;
  c.seed = p.size * 100 + p.k;
  const auto res = baseline::run_conv_layer(SystemConfig::paper(4), p.impl, c);
  EXPECT_TRUE(res.correct);
  EXPECT_GT(res.cycles, 0u);
  EXPECT_GT(res.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scalar, BaselineConvSweep,
    ::testing::Values(
        BaselineParam{8, 3, ElemType::kWord, baseline::Impl::kScalar},
        BaselineParam{16, 3, ElemType::kWord, baseline::Impl::kScalar},
        BaselineParam{16, 5, ElemType::kWord, baseline::Impl::kScalar},
        BaselineParam{16, 7, ElemType::kWord, baseline::Impl::kScalar},
        BaselineParam{17, 3, ElemType::kWord, baseline::Impl::kScalar},
        BaselineParam{24, 3, ElemType::kHalf, baseline::Impl::kScalar},
        BaselineParam{32, 5, ElemType::kByte, baseline::Impl::kScalar},
        BaselineParam{33, 7, ElemType::kByte, baseline::Impl::kScalar}),
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "s" << p.size << "k" << p.k << elem_suffix(p.et);
      return name.str();
    });

INSTANTIATE_TEST_SUITE_P(
    Pulp, BaselineConvSweep,
    ::testing::Values(
        BaselineParam{8, 3, ElemType::kByte, baseline::Impl::kPulp},
        BaselineParam{16, 3, ElemType::kByte, baseline::Impl::kPulp},
        BaselineParam{17, 3, ElemType::kByte, baseline::Impl::kPulp},
        BaselineParam{32, 3, ElemType::kByte, baseline::Impl::kPulp},
        BaselineParam{16, 5, ElemType::kByte, baseline::Impl::kPulp},
        BaselineParam{16, 7, ElemType::kByte, baseline::Impl::kPulp},
        BaselineParam{16, 3, ElemType::kHalf, baseline::Impl::kPulp},
        BaselineParam{24, 5, ElemType::kHalf, baseline::Impl::kPulp},
        BaselineParam{16, 3, ElemType::kWord, baseline::Impl::kPulp},
        BaselineParam{24, 7, ElemType::kWord, baseline::Impl::kPulp}),
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "s" << p.size << "k" << p.k << elem_suffix(p.et);
      return name.str();
    });

TEST(BaselineTest, PulpFasterThanScalar) {
  baseline::ConvCase c;
  c.size = 32;
  c.k = 3;
  c.et = ElemType::kByte;
  const auto sc =
      baseline::run_conv_layer(SystemConfig::paper(4), baseline::Impl::kScalar, c);
  const auto pu =
      baseline::run_conv_layer(SystemConfig::paper(4), baseline::Impl::kPulp, c);
  EXPECT_TRUE(sc.correct);
  EXPECT_TRUE(pu.correct);
  EXPECT_LT(pu.cycles, sc.cycles);
  // Packed SIMD should land in the single-digit-x band (paper Fig. 4).
  const double speedup = static_cast<double>(sc.cycles) / pu.cycles;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 12.0);
}

TEST(BaselineTest, ArcaneBeatsBothAtLargeSizes) {
  baseline::ConvCase c;
  c.size = 64;
  c.k = 3;
  c.et = ElemType::kByte;
  c.verify = false;
  const auto cfg = SystemConfig::paper(8);
  const auto sc = baseline::run_conv_layer(cfg, baseline::Impl::kScalar, c);
  const auto pu = baseline::run_conv_layer(cfg, baseline::Impl::kPulp, c);
  const auto ar = baseline::run_conv_layer(cfg, baseline::Impl::kArcane, c);
  EXPECT_LT(ar.cycles, pu.cycles);
  EXPECT_LT(pu.cycles, sc.cycles);
}

template <typename T>
void check_scalar_gemm(std::uint32_t m, std::uint32_t k, std::uint32_t n,
                       std::int32_t alpha, std::int32_t beta) {
  System sys(SystemConfig::paper(4));
  Rng rng(m * 7 + k * 3 + n);
  auto A = Matrix<T>::random(m, k, rng, -9, 9);
  auto B = Matrix<T>::random(k, n, rng, -9, 9);
  auto C = Matrix<T>::random(m, n, rng, -9, 9);
  baseline::GemmLayout l;
  l.a = sys.data_base() + 0x1000;
  l.b = sys.data_base() + 0x10000;
  l.c = sys.data_base() + 0x20000;
  l.d = sys.data_base() + 0x30000;
  l.M = m;
  l.K = k;
  l.N = n;
  l.alpha = alpha;
  l.beta = beta;
  l.et = A.elem_type();
  workloads::store_matrix(sys, l.a, A);
  workloads::store_matrix(sys, l.b, B);
  workloads::store_matrix(sys, l.c, C);
  sys.load_program(baseline::scalar_gemm_program(l));
  sys.run();
  auto got = workloads::load_matrix<T>(sys, l.d, m, n);
  // 32-bit accumulation golden (values small enough to also match wrap).
  auto want = workloads::golden_gemm(A, B, C, alpha, beta);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

TEST(BaselineTest, ScalarGemmMatchesGolden) {
  check_scalar_gemm<std::int32_t>(4, 5, 6, 1, 0);
  check_scalar_gemm<std::int32_t>(8, 8, 8, 3, -2);
  check_scalar_gemm<std::int16_t>(5, 9, 7, 1, 1);
  check_scalar_gemm<std::int32_t>(1, 1, 1, 2, 2);
}

TEST(BaselineTest, ScalarCyclesScaleWithWork) {
  baseline::ConvCase small;
  small.size = 16;
  small.k = 3;
  small.et = ElemType::kWord;
  small.verify = false;
  auto big = small;
  big.size = 32;
  const auto cfg = SystemConfig::paper(4);
  const auto s = baseline::run_conv_layer(cfg, baseline::Impl::kScalar, small);
  const auto b = baseline::run_conv_layer(cfg, baseline::Impl::kScalar, big);
  // ~4.9x the MACs => between 3x and 7x the cycles.
  EXPECT_GT(b.cycles, 3 * s.cycles);
  EXPECT_LT(b.cycles, 7 * s.cycles);
}

}  // namespace
}  // namespace arcane
