// LeakyReLU (xmk1) and MaxPool (xmk2) property sweeps.
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

struct EwParam {
  std::uint32_t rows, cols;
  unsigned alpha;
  ElemType et;
};

template <typename T>
void check_lrelu(const EwParam& p) {
  System sys(SystemConfig::paper(4));
  Rng rng(p.rows * 131 + p.cols * 7 + p.alpha);
  auto X = Matrix<T>::random(p.rows, p.cols, rng,
                             std::numeric_limits<T>::min(),
                             std::numeric_limits<T>::max());
  const Addr x = sys.data_base() + 0x1000;
  const Addr d = sys.data_base() + 0x200000;
  workloads::store_matrix(sys, x, X);
  XProgram prog;
  prog.xmr(0, x, X.shape(), X.elem_type());
  prog.xmr(1, d, X.shape(), X.elem_type());
  prog.leaky_relu(1, 0, p.alpha, X.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  auto got = workloads::load_matrix<T>(sys, d, p.rows, p.cols);
  EXPECT_EQ(workloads::count_mismatches(got,
                                        workloads::golden_leaky_relu(X, p.alpha)),
            0u);
}

class LreluSweep : public ::testing::TestWithParam<EwParam> {};
TEST_P(LreluSweep, MatchesGolden) {
  const auto p = GetParam();
  switch (p.et) {
    case ElemType::kWord: check_lrelu<std::int32_t>(p); break;
    case ElemType::kHalf: check_lrelu<std::int16_t>(p); break;
    case ElemType::kByte: check_lrelu<std::int8_t>(p); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LreluSweep,
    ::testing::Values(EwParam{1, 1, 0, ElemType::kWord},
                      EwParam{15, 16, 0, ElemType::kWord},   // exactly 1 tile
                      EwParam{16, 16, 3, ElemType::kWord},   // 2 tiles
                      EwParam{45, 13, 4, ElemType::kWord},
                      EwParam{100, 256, 2, ElemType::kWord}, // cap cols
                      EwParam{33, 511, 7, ElemType::kHalf},
                      EwParam{128, 1024, 5, ElemType::kByte},
                      EwParam{7, 3, 1, ElemType::kByte}),
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "r" << p.rows << "c" << p.cols << "a" << p.alpha
           << elem_suffix(p.et);
      return name.str();
    });

TEST(LreluKernelTest, ShiftExceedingWidthRejected) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{4, 4, 4}, ElemType::kByte);
  prog.xmr(1, sys.data_base() + 0x1000, MatShape{4, 4, 4}, ElemType::kByte);
  prog.leaky_relu(1, 0, /*alpha=*/8, ElemType::kByte);  // >= 8 bits
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
}

struct PoolParam {
  std::uint32_t rows, cols;
  unsigned win, stride;
  ElemType et;
};

template <typename T>
void check_pool(const PoolParam& p) {
  System sys(SystemConfig::paper(4));
  Rng rng(p.rows * 17 + p.win * 5 + p.stride);
  auto X = Matrix<T>::random(p.rows, p.cols, rng, -100, 100);
  const std::uint32_t ho = (p.rows - p.win) / p.stride + 1;
  const std::uint32_t wo = (p.cols - p.win) / p.stride + 1;
  const Addr x = sys.data_base() + 0x1000;
  const Addr d = sys.data_base() + 0x200000;
  workloads::store_matrix(sys, x, X);
  XProgram prog;
  prog.xmr(0, x, X.shape(), X.elem_type());
  prog.xmr(1, d, MatShape{ho, wo, wo}, X.elem_type());
  prog.maxpool(1, 0, p.win, p.stride, X.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  auto got = workloads::load_matrix<T>(sys, d, ho, wo);
  EXPECT_EQ(workloads::count_mismatches(
                got, workloads::golden_maxpool(X, p.win, p.stride)),
            0u);
}

class PoolSweep : public ::testing::TestWithParam<PoolParam> {};
TEST_P(PoolSweep, MatchesGolden) {
  const auto p = GetParam();
  switch (p.et) {
    case ElemType::kWord: check_pool<std::int32_t>(p); break;
    case ElemType::kHalf: check_pool<std::int16_t>(p); break;
    case ElemType::kByte: check_pool<std::int8_t>(p); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PoolSweep,
    ::testing::Values(PoolParam{2, 2, 2, 2, ElemType::kWord},
                      PoolParam{8, 8, 2, 2, ElemType::kWord},
                      PoolParam{9, 9, 3, 3, ElemType::kWord},
                      PoolParam{10, 10, 3, 2, ElemType::kWord},  // overlap
                      PoolParam{32, 48, 2, 2, ElemType::kHalf},
                      PoolParam{64, 100, 4, 4, ElemType::kByte},
                      PoolParam{17, 23, 5, 3, ElemType::kByte},
                      PoolParam{40, 256, 2, 2, ElemType::kWord},
                      PoolParam{6, 6, 6, 1, ElemType::kWord}),  // win == size
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "r" << p.rows << "c" << p.cols << "w" << p.win << "s"
           << p.stride << elem_suffix(p.et);
      return name.str();
    });

TEST(PoolKernelTest, WindowLargerThanInputRejected) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{4, 4, 4}, ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x1000, MatShape{1, 1, 1}, ElemType::kWord);
  prog.maxpool(1, 0, /*win=*/8, /*stride=*/2, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
}

}  // namespace
}  // namespace arcane
