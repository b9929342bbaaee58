// Vector unit timing model: lane/element-width scaling, pipeline overlap,
// issue-queue behaviour, and run_program against a per-instruction model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <vector>

#include "common/assert.hpp"
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

// ---------------------------------------------------------------------
// run_program against a per-instruction twin: the same program executed one
// execute() at a time, timed by a test-local issue-queue model that keeps
// every completion time.
// ---------------------------------------------------------------------

/// Completion time of every instruction of `prog`: instruction i is
/// dispatched at start + (i+1)*gap, enters the queue once instruction
/// i - depth has completed, and executes after instruction i - 1.
std::vector<Cycle> model_completions(const std::vector<VInsn>& prog,
                                     const VpuConfig& cfg, Cycle start,
                                     unsigned gap) {
  const std::size_t depth = std::max(1u, cfg.issue_queue);
  std::vector<Cycle> done(prog.size());
  for (std::size_t i = 0; i < prog.size(); ++i) {
    Cycle enqueue = start + (i + 1) * gap;
    if (i >= depth) enqueue = std::max(enqueue, done[i - depth]);
    const Cycle exec_start = std::max(enqueue, i == 0 ? start : done[i - 1]);
    done[i] = exec_start + vinsn_cycles(prog[i], cfg);
  }
  return done;
}

/// A seeded mixed-width program over few registers, so sources alias vd
/// often, with vmacc.es and strided gathers among all the other opcodes.
std::vector<VInsn> random_program(std::mt19937& rng, const VpuConfig& cfg,
                                  std::size_t n) {
  constexpr ElemType kWidths[] = {ElemType::kWord, ElemType::kHalf,
                                  ElemType::kByte};
  std::vector<VInsn> prog(n);
  for (std::size_t k = 0; k < n; ++k) {
    VInsn& i = prog[k];
    // Every third instruction a vmacc.es or a gather, the rest any opcode.
    if (k % 3 == 0) {
      i.op = rng() % 2 ? VOpc::kMaccEs : VOpc::kGatherStride;
    } else {
      i.op = static_cast<VOpc>(rng() % static_cast<unsigned>(VOpc::kOpcCount));
    }
    i.et = kWidths[rng() % 3];
    const unsigned cap = cfg.vlen_bytes / elem_bytes(i.et);
    i.vd = static_cast<std::uint8_t>(rng() % 5);
    i.vs1 = static_cast<std::uint8_t>(rng() % 5);
    i.vs2 = static_cast<std::uint8_t>(rng() % 5);
    i.vl = rng() % (cap + 1);
    switch (i.op) {
      case VOpc::kMaccEs: i.scalar = rng() % cap; break;
      case VOpc::kGatherStride: i.scalar = pack16(rng() % 4, rng() % cap); break;
      default: i.scalar = static_cast<std::uint32_t>(rng()) % (cap + 3);
    }
  }
  return prog;
}

/// One VPU with its own line storage, registers seeded from `seed`.
struct Unit {
  LlcConfig cfg;
  LineStorage storage;
  VectorUnit vu;

  Unit(const LlcConfig& c, std::uint32_t seed)
      : cfg(c), storage(cfg), vu(cfg.vpu, 0, storage) {
    std::mt19937 rng(seed);
    for (unsigned r = 0; r < cfg.vpu.num_vregs; ++r)
      for (auto& b : vu.vreg(r)) b = static_cast<std::uint8_t>(rng());
  }

  bool same_registers(const Unit& o) const {
    for (unsigned r = 0; r < cfg.vpu.num_vregs; ++r) {
      if (std::memcmp(vu.vreg(r).data(), o.vu.vreg(r).data(),
                      cfg.vpu.vlen_bytes) != 0)
        return false;
    }
    return true;
  }
};

void expect_same_counts(const sim::VpuStats& got, const sim::VpuStats& want) {
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.elements, want.elements);
  EXPECT_EQ(got.macs, want.macs);
}

TEST(VpuTiming, ProgramMatchesPerInstructionModel) {
  for (unsigned depth : {1u, 2u, 3u, 8u}) {
    for (unsigned gap : {0u, 1u, 4u, 40u}) {
      LlcConfig cfg{};
      cfg.vpu.vlen_bytes = 128;
      cfg.vpu.issue_queue = depth;
      std::mt19937 rng(depth * 100 + gap);
      const std::vector<VInsn> prog = random_program(rng, cfg.vpu, 120);
      const Cycle start = 1000;

      Unit real(cfg, 7), twin(cfg, 7);
      const Cycle end = real.vu.run_program(prog, start, gap);
      for (const VInsn& i : prog) twin.vu.execute(i);
      const std::vector<Cycle> done =
          model_completions(prog, cfg.vpu, start, gap);

      SCOPED_TRACE(::testing::Message() << "depth " << depth << " gap " << gap);
      EXPECT_TRUE(real.same_registers(twin));
      expect_same_counts(real.vu.stats(), twin.vu.stats());
      Cycle busy = 0;
      for (const VInsn& i : prog) busy += vinsn_cycles(i, cfg.vpu);
      EXPECT_EQ(real.vu.stats().busy_cycles, busy);
      EXPECT_EQ(end, done.back());

      // Completion time of every instruction: a prefix of the program
      // completes when its last instruction does. One warm unit runs every
      // prefix, so each run also reuses the completion ring.
      Unit timing(cfg, 7);
      for (std::size_t k = 1; k <= prog.size(); ++k) {
        ASSERT_EQ(timing.vu.run_program({prog.data(), k}, start, gap),
                  done[k - 1])
            << "instruction " << k - 1;
      }
    }
  }
}

TEST(VpuTiming, ProgramThatThrowsLeavesItsPrefixExecuted) {
  LlcConfig cfg{};
  cfg.vpu.vlen_bytes = 128;
  std::mt19937 rng(31);
  std::vector<VInsn> prog = random_program(rng, cfg.vpu, 60);
  // Each way an instruction can be invalid, at instruction k.
  VInsn bad_vl = prog[0];
  bad_vl.vl = cfg.vpu.vlen_bytes / elem_bytes(bad_vl.et) + 1;
  VInsn bad_reg = prog[0];
  bad_reg.vs2 = static_cast<std::uint8_t>(cfg.vpu.num_vregs);
  VInsn bad_es = prog[0];
  bad_es.op = VOpc::kMaccEs;
  bad_es.scalar = cfg.vpu.vlen_bytes / elem_bytes(bad_es.et);
  for (const VInsn& bad : {bad_vl, bad_reg, bad_es}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{37}}) {
      std::vector<VInsn> p = prog;
      p[k] = bad;
      Unit real(cfg, 9), twin(cfg, 9);
      real.vu.stats().busy_cycles = 5;
      twin.vu.stats().busy_cycles = 5;
      EXPECT_ANY_THROW(real.vu.run_program(p, 0, 4)) << "k " << k;
      for (std::size_t i = 0; i < k; ++i) twin.vu.execute(p[i]);
      EXPECT_TRUE(real.same_registers(twin)) << "k " << k;
      expect_same_counts(real.vu.stats(), twin.vu.stats());
      EXPECT_EQ(real.vu.stats().busy_cycles, 5u);
    }
  }
}

}  // namespace
}  // namespace arcane::vpu
