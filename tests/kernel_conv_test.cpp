// Conv2D (xmk3) and Conv Layer (xmk4) kernel property sweeps.
#include <gtest/gtest.h>

#include <sstream>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "crt/kernel_op.hpp"
#include "kernels/planners.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using workloads::Matrix;
using workloads::Rng;

struct ConvParam {
  std::uint32_t h, w, k;
  ElemType et;
};

template <typename T>
void check_conv2d(const ConvParam& p) {
  System sys(SystemConfig::paper(4));
  Rng rng(p.h * 3 + p.w * 5 + p.k);
  auto X = Matrix<T>::random(p.h, p.w, rng, -10, 10);
  auto F = Matrix<T>::random(p.k, p.k, rng, -3, 3);
  const std::uint32_t hc = p.h - p.k + 1, wc = p.w - p.k + 1;
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x200000;
  const Addr d = sys.data_base() + 0x280000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);
  XProgram prog;
  prog.xmr(0, x, X.shape(), X.elem_type());
  prog.xmr(1, f, F.shape(), X.elem_type());
  prog.xmr(2, d, MatShape{hc, wc, wc}, X.elem_type());
  prog.conv2d(2, 0, 1, X.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  auto got = workloads::load_matrix<T>(sys, d, hc, wc);
  EXPECT_EQ(workloads::count_mismatches(got, workloads::golden_conv2d(X, F)),
            0u)
      << p.h << "x" << p.w << " k" << p.k;
}

class Conv2dSweep : public ::testing::TestWithParam<ConvParam> {};
TEST_P(Conv2dSweep, MatchesGolden) {
  const auto p = GetParam();
  switch (p.et) {
    case ElemType::kWord: check_conv2d<std::int32_t>(p); break;
    case ElemType::kHalf: check_conv2d<std::int16_t>(p); break;
    case ElemType::kByte: check_conv2d<std::int8_t>(p); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Conv2dSweep,
    ::testing::Values(ConvParam{3, 3, 3, ElemType::kWord},  // output 1x1
                      ConvParam{8, 8, 3, ElemType::kWord},
                      ConvParam{20, 20, 5, ElemType::kWord},
                      ConvParam{33, 20, 7, ElemType::kWord},
                      ConvParam{16, 16, 1, ElemType::kWord},  // 1x1 filter
                      ConvParam{40, 64, 3, ElemType::kHalf},
                      ConvParam{64, 64, 5, ElemType::kByte},
                      ConvParam{100, 256, 3, ElemType::kByte},
                      ConvParam{13, 17, 11, ElemType::kWord}),  // big filter
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "h" << p.h << "w" << p.w << "k" << p.k << elem_suffix(p.et);
      return name.str();
    });

template <typename T>
void check_conv_layer(const ConvParam& p, bool multi_vpu) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.multi_vpu_kernels = multi_vpu;
  System sys(cfg);
  Rng rng(p.h * 11 + p.k * 3 + (multi_vpu ? 1 : 0));
  auto X = Matrix<T>::random(3 * p.h, p.w, rng, -8, 7);
  auto F = Matrix<T>::random(3 * p.k, p.k, rng, -4, 3);
  const std::uint32_t ho = (p.h - p.k + 1) / 2, wo = (p.w - p.k + 1) / 2;
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x300000;
  const Addr d = sys.data_base() + 0x380000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);
  XProgram prog;
  prog.xmr(0, x, X.shape(), X.elem_type());
  prog.xmr(1, f, F.shape(), X.elem_type());
  prog.xmr(2, d, MatShape{ho, wo, wo}, X.elem_type());
  prog.conv_layer(2, 0, 1, X.elem_type());
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  auto got = workloads::load_matrix<T>(sys, d, ho, wo);
  auto want = workloads::golden_conv_layer<T>(X, F);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u)
      << p.h << "x" << p.w << " k" << p.k << " multi=" << multi_vpu;
}

class ConvLayerSweepK : public ::testing::TestWithParam<ConvParam> {};
TEST_P(ConvLayerSweepK, SingleVpu) {
  const auto p = GetParam();
  switch (p.et) {
    case ElemType::kWord: check_conv_layer<std::int32_t>(p, false); break;
    case ElemType::kHalf: check_conv_layer<std::int16_t>(p, false); break;
    case ElemType::kByte: check_conv_layer<std::int8_t>(p, false); break;
  }
}
TEST_P(ConvLayerSweepK, MultiVpu) {
  const auto p = GetParam();
  switch (p.et) {
    case ElemType::kWord: check_conv_layer<std::int32_t>(p, true); break;
    case ElemType::kHalf: check_conv_layer<std::int16_t>(p, true); break;
    case ElemType::kByte: check_conv_layer<std::int8_t>(p, true); break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvLayerSweepK,
    ::testing::Values(ConvParam{4, 4, 3, ElemType::kWord},  // minimal output
                      ConvParam{10, 10, 3, ElemType::kWord},
                      ConvParam{11, 13, 3, ElemType::kWord},  // odd dims
                      ConvParam{16, 16, 5, ElemType::kWord},
                      ConvParam{18, 24, 7, ElemType::kWord},
                      ConvParam{24, 24, 5, ElemType::kHalf},
                      ConvParam{48, 40, 7, ElemType::kByte},
                      ConvParam{9, 64, 3, ElemType::kByte}),
    [](const auto& info) {
      const auto& p = info.param;
      std::ostringstream name;
      name << "h" << p.h << "w" << p.w << "k" << p.k << elem_suffix(p.et);
      return name.str();
    });

TEST(ConvLayerKernelTest, NonTripleInputRejected) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{10, 8, 8}, ElemType::kWord);  // not 3H
  prog.xmr(1, sys.data_base() + 0x1000, MatShape{9, 3, 3}, ElemType::kWord);
  prog.xmr(2, sys.data_base() + 0x8000, MatShape{1, 3, 3}, ElemType::kWord);
  prog.conv_layer(2, 0, 1, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
}

TEST(ConvLayerKernelTest, FilterTooLargeForRegistersRejected) {
  System sys(SystemConfig::paper(4));
  // K=13: 3*(P+12)+... does not fit 32 vregs even with P=2.
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{90, 64, 64}, ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x100000, MatShape{39, 13, 13}, ElemType::kWord);
  prog.xmr(2, sys.data_base() + 0x180000, MatShape{9, 26, 26}, ElemType::kWord);
  prog.conv_layer(2, 0, 1, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
}

TEST(ConvLayerKernelTest, InputLargerThanCacheStreams) {
  // 3 x 160 x 512 int32 input = 960 KiB >> 128 KiB cache: tiling + ring
  // buffers must stream it correctly.
  check_conv_layer<std::int32_t>(ConvParam{160, 256, 3, ElemType::kWord},
                                 false);
}

// The Tile::repeats contract of both conv planners: a tile that repeats
// another names an earlier tile of its own chain, which emitted its program
// and kept it (repeats == itself), and whose program is exactly the one the
// repeating tile would emit. Every tile that emits a program emits its own.
TEST(ConvTileRepeats, EveryRepeatNamesAnEarlierTileWithTheSameProgram) {
  std::uint64_t tiles = 0, replayed = 0;
  for (const bool multi_vpu : {false, true}) {
    SystemConfig cfg = SystemConfig::paper(4);
    cfg.multi_vpu_kernels = multi_vpu;
    for (const ElemType et :
         {ElemType::kWord, ElemType::kHalf, ElemType::kByte}) {
      for (const std::uint32_t n : {16u, 23u, 32u, 64u, 100u, 128u, 256u}) {
        for (const std::uint32_t k : {3u, 5u, 7u}) {
          for (const bool layer : {false, true}) {
            crt::KernelOp op;
            op.et = et;
            std::uint32_t ho = n - k + 1, wo = n - k + 1;
            if (layer) {
              ho /= 2;
              wo /= 2;
            }
            op.ms1 = {0x1000, {layer ? 3 * n : n, n, n}, true};
            op.ms2 = {0x400000, {layer ? 3 * k : k, k, k}, true};
            op.md = {0x500000, {ho, wo, wo}, true};
            const crt::Plan plan =
                layer ? kernels::conv_layer_planner()(op, cfg)
                      : kernels::conv2d_planner()(op, cfg);
            SCOPED_TRACE(::testing::Message()
                         << (layer ? "conv layer " : "conv2d ") << n << "x"
                         << n << " k" << k << elem_suffix(et)
                         << " multi=" << multi_vpu);
            ASSERT_TRUE(plan.ok()) << plan.error;

            auto full = [&](unsigned c, unsigned i) {
              std::vector<vpu::VInsn> prog;
              if (layer) {
                kernels::conv_layer_tile_program(op, cfg, c, i, prog);
              } else {
                kernels::conv2d_tile_program(op, cfg, i, prog);
              }
              return prog;
            };
            for (unsigned c = 0; c < plan.chains.size(); ++c) {
              const crt::Chain& chain = plan.chains[c];
              crt::Tile tile, target;
              for (unsigned i = 0; i < chain.tile_count; ++i) {
                chain.make_tile(i, tile);
                ++tiles;
                if (tile.repeats == crt::Tile::kOnce || tile.repeats == i) {
                  EXPECT_EQ(tile.prog, full(c, i))
                      << "chain " << c << " tile " << i;
                  continue;
                }
                ++replayed;
                ASSERT_LT(tile.repeats, i) << "chain " << c << " tile " << i;
                EXPECT_TRUE(tile.prog.empty());
                chain.make_tile(tile.repeats, target);
                EXPECT_EQ(target.repeats, tile.repeats);
                EXPECT_EQ(target.prog, full(c, i))
                    << "chain " << c << " tile " << i << " repeats "
                    << tile.repeats;
              }
            }
          }
        }
      }
    }
  }
  // Most tiles of the larger shapes replay an earlier program.
  EXPECT_GT(replayed * 2, tiles);
}

}  // namespace
}  // namespace arcane
