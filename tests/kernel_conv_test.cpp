// Conv2D (xmk3) and Conv Layer (xmk4) kernel property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "crt/kernel_op.hpp"
#include "isa/xmnmc.hpp"
#include "kernels/planners.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"
#include "test_support.hpp"

namespace arcane {
namespace {

using workloads::Matrix;
using workloads::Rng;
namespace x = isa::xmnmc;

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

// The program keys of both conv planners. Every conv kernel of a sweep runs
// on one warm executor that checks each key hit against a fresh emission,
// and across the whole sweep tiles of equal keys (func5, element type,
// shape) must emit equal programs: a key that leaves out the ring slot, the
// row count, K or the layout would name two programs.
TEST(ConvProgramKeys, EqualKeysNameEqualPrograms) {
  std::uint64_t tiles = 0, prepared = 0;
  for (const bool multi_vpu : {false, true}) {
    SystemConfig cfg = SystemConfig::paper(4);
    cfg.multi_vpu_kernels = multi_vpu;
    System sys(cfg);
    crt::CrtContext& ctx = sys.runtime().context();
    test::PlainClient client(sys.llc(), cfg.llc);
    crt::KernelExecutor ex(ctx, client, /*id=*/0);
    ex.check_programs(true);
    const std::uint64_t prepared_before = ctx.phases.programs_prepared;
    std::vector<std::pair<vpu::ProgramKey, std::vector<vpu::VInsn>>> named;
    for (const ElemType et :
         {ElemType::kWord, ElemType::kHalf, ElemType::kByte}) {
      // Square inputs, and a 12x40 output for every filter size, where the
      // row blocking P of K = 3 and K = 5 agree.
      for (const std::uint32_t n :
           {16u, 23u, 32u, 64u, 100u, 128u, 256u, 0u}) {
        for (const std::uint32_t k : {3u, 5u, 7u}) {
          for (const bool layer : {false, true}) {
            const std::uint32_t h = n != 0 ? n : 12 + k - 1;
            const std::uint32_t w = n != 0 ? n : 40 + k - 1;
            crt::KernelOp op;
            op.func5 = layer ? x::kConvLayer : x::kConv2d;
            op.et = et;
            std::uint32_t ho = h - k + 1, wo = w - k + 1;
            if (layer) {
              ho /= 2;
              wo /= 2;
            }
            const Addr base = sys.data_base() + 0x1000;
            op.ms1 = {base, {layer ? 3 * h : h, w, w}, true};
            op.ms2 = {base + 0x400000, {layer ? 3 * k : k, k, k}, true};
            op.md = {base + 0x500000, {ho, wo, wo}, true};
            const crt::Planner& planner = layer
                                              ? kernels::conv_layer_planner()
                                              : kernels::conv2d_planner();
            const crt::Plan plan = planner.plan(op, cfg);
            SCOPED_TRACE(::testing::Message()
                         << (layer ? "conv layer " : "conv2d ") << h << "x"
                         << w << " k" << k << elem_suffix(et)
                         << " multi=" << multi_vpu);
            ASSERT_TRUE(plan.ok()) << plan.error;

            for (unsigned c = 0; c < plan.chain_count; ++c) {
              crt::Tile tile;
              for (unsigned i = 0; i < plan.tile_count[c]; ++i) {
                tile.clear();
                const vpu::ProgramKey key{op.func5, op.et,
                                          planner.tile(plan, c, i, tile)};
                std::vector<vpu::VInsn> prog;
                planner.program(plan, c, i, prog);
                ++tiles;
                auto it = std::find_if(
                    named.begin(), named.end(),
                    [&key](const auto& e) { return e.first == key; });
                if (it == named.end()) {
                  named.emplace_back(key, std::move(prog));
                } else {
                  EXPECT_EQ(prog, it->second) << "chain " << c << " tile "
                                              << i;
                }
              }
            }

            op.uid = ctx.next_uid++;
            ctx.ecpu_free = std::max(ctx.ecpu_free, sys.events().now());
            std::vector<unsigned> vpus(plan.chain_count);
            std::iota(vpus.begin(), vpus.end(), 0u);
            const unsigned finished = client.finished;
            ex.launch(op, plan, vpus, sys.events().now());
            sys.events().run_all();
            EXPECT_EQ(client.finished, finished + 1);
          }
        }
      }
    }
    prepared += ctx.phases.programs_prepared - prepared_before;
  }
  // Most tiles replay a program an earlier tile or kernel prepared.
  EXPECT_GT(tiles, 2 * prepared);
}

}  // namespace
}  // namespace arcane
