// GeMM kernel (xmk0) property tests across shapes, dtypes and alpha/beta.
#include <gtest/gtest.h>

#include <sstream>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using workloads::Matrix;
using workloads::Rng;

struct GemmParam {
  std::uint32_t m, k, n;
  std::int16_t alpha, beta;
  ElemType et;
  std::uint64_t seed;
};

template <typename T>
void run_gemm(const GemmParam& p) {
  System sys(SystemConfig::paper(4));
  Rng rng(p.seed);
  auto A = Matrix<T>::random(p.m, p.k, rng, -20, 20);
  auto B = Matrix<T>::random(p.k, p.n, rng, -20, 20);
  auto C = Matrix<T>::random(p.m, p.n, rng, -20, 20);
  const Addr a = sys.data_base() + 0x1000;
  const Addr b = sys.data_base() + 0x100000;
  const Addr c = sys.data_base() + 0x200000;
  const Addr d = sys.data_base() + 0x300000;
  workloads::store_matrix(sys, a, A);
  workloads::store_matrix(sys, b, B);
  workloads::store_matrix(sys, c, C);

  XProgram prog;
  prog.xmr(0, a, A.shape(), A.elem_type());
  prog.xmr(1, b, B.shape(), A.elem_type());
  prog.xmr(2, c, C.shape(), A.elem_type());
  prog.xmr(3, d, MatShape{p.m, p.n, p.n}, A.elem_type());
  prog.gemm(3, 0, 1, 2, p.alpha, p.beta, A.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  auto got = workloads::load_matrix<T>(sys, d, p.m, p.n);
  auto want = workloads::golden_gemm(A, B, C, p.alpha, p.beta);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u)
      << p.m << "x" << p.k << "x" << p.n << " alpha=" << p.alpha
      << " beta=" << p.beta;
}

class GemmSweep : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmSweep, MatchesGolden) {
  const auto p = GetParam();
  switch (p.et) {
    case ElemType::kWord: run_gemm<std::int32_t>(p); break;
    case ElemType::kHalf: run_gemm<std::int16_t>(p); break;
    case ElemType::kByte: run_gemm<std::int8_t>(p); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(
        GemmParam{1, 1, 1, 1, 0, ElemType::kWord, 1},
        GemmParam{4, 4, 4, 1, 0, ElemType::kWord, 2},
        GemmParam{8, 8, 8, 1, 1, ElemType::kWord, 3},
        GemmParam{9, 10, 11, 2, -1, ElemType::kWord, 4},
        GemmParam{16, 16, 16, 1, 0, ElemType::kHalf, 5},
        GemmParam{5, 37, 8, 1, 0, ElemType::kWord, 6},   // k tiling
        GemmParam{25, 5, 8, 1, 0, ElemType::kWord, 7},   // m tiling
        GemmParam{30, 33, 40, 3, 2, ElemType::kWord, 8}, // both + beta
        GemmParam{12, 12, 200, 1, 0, ElemType::kHalf, 9},
        GemmParam{7, 19, 64, 1, -2, ElemType::kByte, 10},
        GemmParam{64, 64, 64, 1, 0, ElemType::kByte, 11},
        GemmParam{3, 3, 256, 1, 1, ElemType::kWord, 12}),  // N == cap
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "m" << p.m << "k" << p.k << "n" << p.n << elem_suffix(p.et)
           << "s" << p.seed;
      return name.str();
    });

TEST(GemmKernelTest, ColumnTilingBeyondVlen) {
  // N = 300 int32 elements exceeds one 256-element vector register: the
  // planner must tile the column dimension.
  run_gemm<std::int32_t>(GemmParam{4, 5, 300, 1, 0, ElemType::kWord, 42});
  run_gemm<std::int32_t>(GemmParam{9, 23, 513, 2, -1, ElemType::kWord, 43});
  run_gemm<std::int8_t>(GemmParam{3, 4, 2000, 1, 1, ElemType::kByte, 44});
}

TEST(GemmKernelTest, InnerDimensionMismatchRejected) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{4, 5, 5}, ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x1000, MatShape{6, 4, 4}, ElemType::kWord);
  prog.xmr(2, sys.data_base() + 0x8000, MatShape{4, 4, 4}, ElemType::kWord);
  prog.xmr(3, sys.data_base() + 0x10000, MatShape{4, 4, 4}, ElemType::kWord);
  prog.gemm(3, 0, 1, 2, 1, 0, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
}

TEST(GemmKernelTest, StridedViews) {
  // Operands as sub-views of larger buffers (stride > cols).
  System sys(SystemConfig::paper(4));
  Rng rng(13);
  auto A = Matrix<std::int32_t>::random(6, 5, rng, -9, 9, /*stride=*/16);
  auto B = Matrix<std::int32_t>::random(5, 7, rng, -9, 9, /*stride=*/32);
  auto C = Matrix<std::int32_t>::random(6, 7, rng, -9, 9, /*stride=*/8);
  const Addr a = sys.data_base() + 0x1000;
  const Addr b = sys.data_base() + 0x10000;
  const Addr c = sys.data_base() + 0x20000;
  const Addr d = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, a, A);
  workloads::store_matrix(sys, b, B);
  workloads::store_matrix(sys, c, C);
  XProgram prog;
  prog.xmr(0, a, A.shape(), ElemType::kWord);
  prog.xmr(1, b, B.shape(), ElemType::kWord);
  prog.xmr(2, c, C.shape(), ElemType::kWord);
  prog.xmr(3, d, MatShape{6, 7, 10}, ElemType::kWord);  // strided dest too
  prog.gemm(3, 0, 1, 2, 1, 1, ElemType::kWord);
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  auto got = workloads::load_matrix<std::int32_t>(sys, d, 6, 7, 10);
  auto want = workloads::golden_gemm(A, B, C, 1, 1);
  for (std::uint32_t r = 0; r < 6; ++r) {
    for (std::uint32_t cc = 0; cc < 7; ++cc) {
      ASSERT_EQ(got.at(r, cc), want.at(r, cc)) << r << "," << cc;
    }
  }
}

}  // namespace
}  // namespace arcane
