// Vector unit timing model: lane/element-width scaling, pipeline overlap,
// issue-queue behaviour.
#include <gtest/gtest.h>

#include "vpu/line_storage.hpp"
#include "vpu/vector_unit.hpp"

namespace arcane::vpu {
namespace {

VInsn insn(VOpc op, ElemType et, std::uint32_t vl, std::uint32_t scalar = 0) {
  VInsn i;
  i.op = op;
  i.vd = 1;
  i.vs1 = 2;
  i.vs2 = 3;
  i.et = et;
  i.vl = vl;
  i.scalar = scalar;
  return i;
}

TEST(VpuTiming, BeatsScaleWithLanes) {
  VpuConfig c2{};
  c2.lanes = 2;
  VpuConfig c8 = c2;
  c8.lanes = 8;
  const auto i = insn(VOpc::kAddVV, ElemType::kWord, 256);
  EXPECT_EQ(vinsn_cycles(i, c2), c2.pipe_fill + 128u);
  EXPECT_EQ(vinsn_cycles(i, c8), c8.pipe_fill + 32u);
}

TEST(VpuTiming, SubwordSimdPacksElements) {
  VpuConfig c{};
  c.lanes = 4;
  EXPECT_EQ(vinsn_cycles(insn(VOpc::kAddVV, ElemType::kWord, 256), c),
            c.pipe_fill + 64u);
  EXPECT_EQ(vinsn_cycles(insn(VOpc::kAddVV, ElemType::kHalf, 256), c),
            c.pipe_fill + 32u);
  EXPECT_EQ(vinsn_cycles(insn(VOpc::kAddVV, ElemType::kByte, 256), c),
            c.pipe_fill + 16u);
}

TEST(VpuTiming, GatherPaysBankConflictPenalty) {
  VpuConfig c{};
  const auto plain = vinsn_cycles(insn(VOpc::kMvVV, ElemType::kWord, 128), c);
  const auto gather =
      vinsn_cycles(insn(VOpc::kGatherStride, ElemType::kWord, 128,
                        pack16(2, 0)), c);
  EXPECT_GT(gather, plain);
}

TEST(VpuTiming, MaccEsExtraElementRead) {
  VpuConfig c{};
  EXPECT_EQ(vinsn_cycles(insn(VOpc::kMaccEs, ElemType::kWord, 64), c),
            vinsn_cycles(insn(VOpc::kMaccVX, ElemType::kWord, 64), c) + 1);
}

TEST(VpuTiming, ZeroVlStillCostsOneBeat) {
  VpuConfig c{};
  EXPECT_EQ(vinsn_cycles(insn(VOpc::kAddVV, ElemType::kWord, 0), c),
            c.pipe_fill + 1u);
}

// vinsn_cycles shifts where it used to divide; it must agree with the
// division formula for every supported lane count, element type and
// opcode class at each vl edge: 0, around one beat, around the register
// capacity, and where the uint32 rounding sum wraps.
TEST(VpuTiming, ShiftedBeatsMatchTheDivisionFormula) {
  const VpuConfig base{};
  for (unsigned lanes : {1u, 2u, 4u, 8u, 16u}) {
    VpuConfig c = base;
    c.lanes = lanes;
    for (ElemType et : {ElemType::kWord, ElemType::kHalf, ElemType::kByte}) {
      const unsigned eb = elem_bytes(et);
      const std::uint32_t epc = lanes * (4u / eb);
      const std::uint32_t cap = c.vlen_bytes / eb;
      EXPECT_EQ(c.elems_per_cycle(eb), epc);
      for (std::uint32_t vl :
           {0u, 1u, epc - 1, epc, epc + 1, 2 * epc - 1, 2 * epc + 1, cap - 1,
            cap, cap + 1, 0xFFFFFFFFu - epc, 0xFFFFFFFFu - epc + 1,
            0xFFFFFFFFu - epc + 2, 0xFFFFFFFFu}) {
        for (VOpc op : {VOpc::kAddVV, VOpc::kMaccEs, VOpc::kGatherStride}) {
          // The division formula, with its 32-bit rounding sum.
          Cycle beats = ceil_div<std::uint32_t>(vl == 0 ? 1 : vl, epc);
          if (op == VOpc::kGatherStride) beats *= c.gather_penalty;
          Cycle want = c.pipe_fill + beats;
          if (op == VOpc::kMaccEs) want += 1;
          const VInsn i = insn(op, et, vl);
          EXPECT_EQ(vinsn_cycles(i, c), want)
              << "lanes " << lanes << " ebytes " << eb << " vl " << vl
              << " " << vopc_name(op);
        }
      }
    }
  }
}

TEST(VpuTiming, ProgramLongVectorsHideDispatch) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  // 10 long instructions: execution dominates; total ~ sum of exec.
  std::vector<VInsn> prog(10, insn(VOpc::kAddVV, ElemType::kWord, 256));
  const Cycle end = vu.run_program(prog, 1000, /*dispatch_gap=*/4);
  const Cycle exec_each = vinsn_cycles(prog[0], cfg.vpu);
  EXPECT_LE(end, 1000 + 4 + 10 * exec_each + cfg.vpu.pipe_fill);
}

TEST(VpuTiming, ProgramShortVectorsDispatchBound) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  std::vector<VInsn> prog(100, insn(VOpc::kAddVV, ElemType::kWord, 1));
  const Cycle gap = 50;  // absurdly slow dispatcher
  const Cycle end = vu.run_program(prog, 0, gap);
  EXPECT_GE(end, 100 * gap);  // dispatch dominates
}

TEST(VpuTiming, ProgramBusyCyclesAccumulated) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  std::vector<VInsn> prog(5, insn(VOpc::kMulVV, ElemType::kWord, 64));
  vu.run_program(prog, 0, 4);
  EXPECT_EQ(vu.stats().busy_cycles,
            5 * vinsn_cycles(prog[0], cfg.vpu));
  EXPECT_EQ(vu.stats().instructions, 5u);
}

TEST(VpuTiming, EmptyProgramCompletesImmediately) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  EXPECT_EQ(vu.run_program({}, 123, 4), 123u);
}

}  // namespace
}  // namespace arcane::vpu
