// Vector unit timing model: lane/element-width scaling, pipeline overlap and
// dispatch, whole programs against a per-instruction model, and prepared
// programs (vpu::Program: run once and replayed, slides folded into their
// MACs, vmacc.es runs swept at once) against one-instruction programs on
// both lane pass builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "vpu/line_storage.hpp"
#include "vpu/vector_unit.hpp"
#include "test_support.hpp"

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
  const Cycle end = test::run_insns(vu, prog, 1000, /*dispatch_gap=*/4);
  const Cycle exec_each = vinsn_cycles(prog[0], cfg.vpu);
  EXPECT_LE(end, 1000 + 4 + 10 * exec_each + cfg.vpu.pipe_fill);
}

TEST(VpuTiming, ProgramShortVectorsDispatchBound) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  std::vector<VInsn> prog(100, insn(VOpc::kAddVV, ElemType::kWord, 1));
  const Cycle gap = 50;  // absurdly slow dispatcher
  const Cycle end = test::run_insns(vu, prog, 0, gap);
  EXPECT_GE(end, 100 * gap);  // dispatch dominates
}

TEST(VpuTiming, ProgramBusyCyclesAccumulated) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  std::vector<VInsn> prog(5, insn(VOpc::kMulVV, ElemType::kWord, 64));
  test::run_insns(vu, prog, 0, 4);
  EXPECT_EQ(vu.stats().busy_cycles,
            5 * vinsn_cycles(prog[0], cfg.vpu));
  EXPECT_EQ(vu.stats().instructions, 5u);
}

TEST(VpuTiming, EmptyProgramCompletesImmediately) {
  LlcConfig cfg{};
  LineStorage storage(cfg);
  VectorUnit vu(cfg.vpu, 0, storage);
  EXPECT_EQ(test::run_insns(vu, {}, 123, 4), 123u);
}

// ---------------------------------------------------------------------
// A whole program against a per-instruction twin: the same program run one
// instruction at a time, timed by a test-local issue model that keeps every
// completion time.
// ---------------------------------------------------------------------

/// Completion time of every instruction of `prog`: instruction i is
/// dispatched at start + (i+1)*gap and executes after instruction i - 1.
std::vector<Cycle> model_completions(const std::vector<VInsn>& prog,
                                     const VpuConfig& cfg, Cycle start,
                                     unsigned gap) {
  std::vector<Cycle> done(prog.size());
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const Cycle dispatched = start + (i + 1) * gap;
    const Cycle exec_start = std::max(dispatched, i == 0 ? start : done[i - 1]);
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

/// VPU `id` of its own line storage, its registers seeded from `seed`.
struct Unit {
  LlcConfig cfg;
  LineStorage storage;
  VectorUnit vu;

  Unit(const LlcConfig& c, std::uint32_t seed, unsigned id = 0)
      : cfg(c), storage(cfg), vu(cfg.vpu, id, storage) {
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
  for (unsigned gap : {0u, 1u, 4u, 40u}) {
    LlcConfig cfg{};
    cfg.vpu.vlen_bytes = 128;
    std::mt19937 rng(200 + gap);
    const std::vector<VInsn> prog = random_program(rng, cfg.vpu, 120);
    const Cycle start = 1000;

    Unit real(cfg, 7), twin(cfg, 7);
    const Cycle end = test::run_insns(real.vu, prog, start, gap);
    for (const VInsn& i : prog) test::run_insn(twin.vu, i);
    const std::vector<Cycle> done =
        model_completions(prog, cfg.vpu, start, gap);

    SCOPED_TRACE(::testing::Message() << "gap " << gap);
    EXPECT_TRUE(real.same_registers(twin));
    expect_same_counts(real.vu.stats(), twin.vu.stats());
    Cycle busy = 0;
    for (const VInsn& i : prog) busy += vinsn_cycles(i, cfg.vpu);
    EXPECT_EQ(real.vu.stats().busy_cycles, busy);
    EXPECT_EQ(end, done.back());

    // Completion time of every instruction: a prefix of the program
    // completes when its last instruction does. One warm unit runs every
    // prefix.
    Unit timing(cfg, 7);
    for (std::size_t k = 1; k <= prog.size(); ++k) {
      ASSERT_EQ(test::run_insns(timing.vu, {prog.data(), k}, start, gap),
                done[k - 1])
          << "instruction " << k - 1;
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
      EXPECT_ANY_THROW(test::run_insns(real.vu, p, 0, 4)) << "k " << k;
      for (std::size_t i = 0; i < k; ++i) test::run_insn(twin.vu, p[i]);
      EXPECT_TRUE(real.same_registers(twin)) << "k " << k;
      expect_same_counts(real.vu.stats(), twin.vu.stats());
      EXPECT_EQ(real.vu.stats().busy_cycles, 5u);
    }
  }
}

// ---------------------------------------------------------------------
// A prepared program, run and then replayed on the changed registers, against
// one-instruction programs plus the issue model: every register byte, all
// VpuStats fields and the completion time, through each lane pass build.
// ---------------------------------------------------------------------

/// A seeded mixed program in which about half the instructions come as
/// `vslidedown.vx` + `vmacc.es` pairs over few registers, so some pairs fold
/// and others fail one of the fold conditions or have a live slide.
std::vector<VInsn> random_tap_program(std::mt19937& rng, const VpuConfig& cfg,
                                      std::size_t n) {
  std::vector<VInsn> prog;
  while (prog.size() < n) {
    if (rng() % 2 != 0) {
      const std::vector<VInsn> one = random_program(rng, cfg, 1);
      prog.push_back(one[0]);
      continue;
    }
    constexpr ElemType kWidths[] = {ElemType::kWord, ElemType::kHalf,
                                    ElemType::kByte};
    VInsn slide;
    slide.op = VOpc::kSlideDownVX;
    slide.et = kWidths[rng() % 3];
    const unsigned cap = cfg.vlen_bytes / elem_bytes(slide.et);
    slide.vd = static_cast<std::uint8_t>(rng() % 5);
    slide.vs1 = static_cast<std::uint8_t>(rng() % 5);
    slide.vl = rng() % (cap + 1);
    slide.scalar = rng() % (cap + 2);
    VInsn mac = slide;
    mac.op = VOpc::kMaccEs;
    mac.vd = static_cast<std::uint8_t>(rng() % 5);
    mac.vs1 = static_cast<std::uint8_t>(rng() % 5);
    mac.vs2 = rng() % 4 != 0 ? slide.vd : static_cast<std::uint8_t>(rng() % 5);
    mac.scalar = rng() % cap;
    if (rng() % 8 == 0) mac.vl = rng() % (cap + 1);
    prog.push_back(slide);
    prog.push_back(mac);
  }
  return prog;
}

/// The exception a call throws, as "<type>: <what>", or empty.
template <typename F>
std::string thrown_by(F&& f) {
  try {
    f();
  } catch (const AssertionError& e) {
    return std::string("AssertionError: ") + e.what();
  } catch (const Error& e) {
    return std::string("Error: ") + e.what();
  }
  return {};
}

struct LaneBuild {
  const char* name;
  detail::LanePass pass;
  bool needs_avx2;
};

class VpuProgramTest : public ::testing::TestWithParam<LaneBuild> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !detail::host_has_avx2())
      GTEST_SKIP() << "host has no AVX2";
  }

  /// Prepares `prog` once and runs it three times on VPU `vpu` of one
  /// storage, each from a different start; a twin executes it instruction
  /// by instruction as often. Returns the prepared program's step count.
  std::size_t check(const std::vector<VInsn>& prog, const LlcConfig& cfg,
                    unsigned gap, std::uint32_t seed, unsigned vpu = 0) {
    Program program;
    program.prepare(prog, cfg.vpu, gap);
    EXPECT_EQ(program.size(), prog.size());
    Unit real(cfg, seed, vpu), twin(cfg, seed, vpu);

    // The valid prefix, and the error its first invalid instruction raises.
    std::size_t valid = 0;
    std::string error;
    Unit probe(cfg, seed, vpu);
    for (; valid < prog.size(); ++valid) {
      error = thrown_by([&] { test::run_insn(probe.vu, prog[valid]); });
      if (!error.empty()) break;
    }
    const std::vector<VInsn> prefix(prog.begin(), prog.begin() + valid);
    Cycle busy = 0;
    for (const VInsn& i : prefix) busy += vinsn_cycles(i, cfg.vpu);

    for (unsigned run = 0; run < 3; ++run) {
      SCOPED_TRACE(::testing::Message() << "run " << run);
      const Cycle start = 1000 + 7919 * run;
      Cycle end = 0;
      EXPECT_EQ(thrown_by([&] {
                  end = detail::run_with(real.vu, program, start,
                                         GetParam().pass);
                }),
                error);
      for (const VInsn& i : prefix) test::run_insn(twin.vu, i);
      EXPECT_TRUE(real.same_registers(twin));

      sim::VpuStats want = twin.vu.stats();
      want.busy_cycles = error.empty() ? (run + 1) * busy : 0;
      const sim::VpuStats& got = real.vu.stats();
      EXPECT_EQ(got.instructions, want.instructions);
      EXPECT_EQ(got.elements, want.elements);
      EXPECT_EQ(got.macs, want.macs);
      EXPECT_EQ(got.busy_cycles, want.busy_cycles);
      if (error.empty()) {
        const std::vector<Cycle> done =
            model_completions(prog, cfg.vpu, start, gap);
        EXPECT_EQ(end, done.empty() ? start : done.back());
      }
    }
    return program.steps().size();
  }
};

TEST_P(VpuProgramTest, SeededProgramsMatchPerInstructionExecution) {
  for (unsigned gap : {0u, 1u, 4u, 40u}) {
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
      LlcConfig cfg{};
      cfg.vpu.vlen_bytes = 128;
      std::mt19937 rng(seed * 1000 + gap);
      const std::vector<VInsn> prog =
          seed % 2 != 0 ? random_tap_program(rng, cfg.vpu, 150)
                        : random_program(rng, cfg.vpu, 150);
      SCOPED_TRACE(::testing::Message() << "gap " << gap << " seed " << seed);
      check(prog, cfg, gap, seed);
    }
  }
  LlcConfig cfg{};
  check({}, cfg, 4, 1);
}

/// vslidedown.vx v2, v1, 3 then vmacc.es v3, v4[5], v2: a foldable tap
/// (tmp v2, in v1, acc v3, filter v4) at half the register's capacity.
struct Tap {
  VInsn slide, mac;
  std::uint32_t cap;
  explicit Tap(const VpuConfig& cfg, ElemType et = ElemType::kWord) {
    cap = cfg.vlen_bytes / elem_bytes(et);
    slide = VInsn{VOpc::kSlideDownVX, 2, 1, 0, et, cap / 2, 3};
    mac = VInsn{VOpc::kMaccEs, 3, 4, 2, et, cap / 2, 5};
  }
  /// Overwrites tmp's vl elements without reading it.
  VInsn kill(std::uint32_t vl) const {
    return VInsn{VOpc::kMvVX, 2, 6, 6, slide.et, vl, 9};
  }
  VInsn kill() const { return kill(slide.vl); }
};

TEST_P(VpuProgramTest, FoldCasesMatchPerInstructionExecution) {
  LlcConfig cfg{};
  cfg.vpu.vlen_bytes = 128;
  const Tap t(cfg.vpu);
  const VInsn add_from_tmp{VOpc::kAddVV, 5, 2, 1, ElemType::kWord, 4, 0};
  const VInsn other{VOpc::kAddVV, 5, 1, 4, ElemType::kWord, t.cap, 0};
  VInsn invalid = other;
  invalid.vs2 = static_cast<std::uint8_t>(cfg.vpu.num_vregs);

  struct Case {
    const char* name;
    std::vector<VInsn> prog;
    // One step per instruction of the valid prefix, one fewer per
    // dropped slide.
    std::size_t steps;
  };
  std::vector<Case> cases;
  auto with = [&](const char* name, VInsn slide, VInsn mac,
                  std::vector<VInsn> after, bool drops_slide) {
    std::vector<VInsn> prog = {slide, mac};
    prog.insert(prog.end(), after.begin(), after.end());
    const std::size_t valid = static_cast<std::size_t>(
        std::find(prog.begin(), prog.end(), invalid) - prog.begin());
    cases.push_back({name, std::move(prog), drops_slide ? valid - 1 : valid});
  };
  auto slide_with = [&](std::uint8_t vd, std::uint8_t vs1, std::uint32_t k) {
    VInsn s = t.slide;
    s.vd = vd;
    s.vs1 = vs1;
    s.scalar = k;
    return s;
  };
  auto mac_with = [&](std::uint8_t vd, std::uint8_t vs1, std::uint8_t vs2) {
    VInsn m = t.mac;
    m.vd = vd;
    m.vs1 = vs1;
    m.vs2 = vs2;
    return m;
  };

  with("folds", t.slide, t.mac, {t.kill()}, true);
  with("folds past an unrelated instruction", t.slide, t.mac,
       {other, t.kill()}, true);
  with("folds with the filter in the input", t.slide, mac_with(3, 1, 2),
       {t.kill()}, true);
  with("folds with the filter in the accumulator", t.slide, mac_with(3, 3, 2),
       {t.kill()}, true);
  with("folds at the last in-range amount", slide_with(2, 1, t.cap - 1),
       t.mac, {t.kill()}, true);
  {
    VInsn wide = t.kill(t.slide.vl * 4);
    wide.et = ElemType::kByte;
    with("folds under a wider byte overwrite", t.slide, t.mac, {wide}, true);
  }
  with("tmp aliases in", slide_with(1, 1, 3), mac_with(3, 4, 1), {t.kill()},
       false);
  with("tmp aliases acc", t.slide, mac_with(2, 4, 2), {t.kill()}, false);
  with("tmp aliases f", t.slide, mac_with(3, 2, 2), {t.kill()}, false);
  with("in aliases acc", slide_with(2, 3, 3), t.mac, {t.kill()}, false);
  {
    VInsn half = t.mac;
    half.et = ElemType::kHalf;
    with("element types differ", t.slide, half, {t.kill(t.cap)}, false);
    VInsn shorter = t.mac;
    shorter.vl = t.slide.vl - 1;
    with("vl differs", t.slide, shorter, {t.kill()}, false);
  }
  with("amount at capacity", slide_with(2, 1, t.cap), t.mac, {t.kill()},
       false);
  with("amount past capacity", slide_with(2, 1, t.cap + 5), t.mac,
       {t.kill()}, false);
  with("amount zero", slide_with(2, 1, 0), t.mac, {t.kill()}, false);
  with("a later instruction reads tmp", t.slide, t.mac,
       {add_from_tmp, t.kill()}, false);
  with("a later vslideup writes part of tmp", t.slide, t.mac,
       {VInsn{VOpc::kSlideUpVX, 2, 1, 0, ElemType::kWord, t.slide.vl, 1},
        t.kill()},
       false);
  with("a later MAC accumulates into tmp", t.slide, t.mac,
       {VInsn{VOpc::kMaccVX, 2, 0, 1, ElemType::kWord, t.slide.vl, 7},
        t.kill()},
       false);
  with("a shorter overwrite", t.slide, t.mac, {t.kill(t.slide.vl - 1)},
       false);
  with("the final slide stays live", t.slide, t.mac, {}, false);
  with("an invalid instruction ends the prefix with tmp live", t.slide, t.mac,
       {invalid, t.kill()}, false);
  with("a fold before an invalid instruction", t.slide, t.mac,
       {t.kill(), invalid}, true);
  {
    // A row of taps: each slide dies at the next one, the last at the
    // overwrite.
    std::vector<VInsn> row;
    for (std::uint32_t k = 1; k <= 4; ++k) {
      row.push_back(slide_with(2, 1, k));
      VInsn m = t.mac;
      m.scalar = k;
      row.push_back(m);
    }
    row.push_back(t.kill());
    cases.push_back({"a row of taps", row, 5});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(check(c.prog, cfg, 4, 11), c.steps);
  }
}

// ---------------------------------------------------------------------
// MAC runs: consecutive vmacc.es steps into one accumulator, which the lane
// pass sweeps one 64-byte block at a time, against one-instruction programs.
// ---------------------------------------------------------------------

/// The term counts of the MAC runs a prepared program marks, in order.
std::vector<std::uint32_t> mac_runs(const Program& p) {
  std::vector<std::uint32_t> runs;
  const std::span<const detail::Step> steps = p.steps();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].insn.op != VOpc::kMaccEs) continue;
    runs.push_back(steps[i].run);
    i += steps[i].run - 1;
  }
  return runs;
}

std::vector<std::uint32_t> runs_of(const std::vector<VInsn>& prog,
                                   const VpuConfig& cfg) {
  Program p;
  p.prepare(prog, cfg, 4);
  return mac_runs(p);
}

/// `n` vmacc.es terms into v3 at width `et` and length `vl`, filter elements
/// from v4 and inputs from v8..v15. Every other term reads its input
/// through a vslidedown.vx into v2, by an amount that keeps vl in range so
/// that the pair folds, as a conv row's taps do.
std::vector<VInsn> mac_terms(unsigned n, ElemType et, std::uint32_t vl,
                             const VpuConfig& cfg) {
  const std::uint32_t cap = cfg.vlen_bytes / elem_bytes(et);
  const std::uint32_t room = std::min(cap - vl, cap - 1);
  std::vector<VInsn> prog;
  for (unsigned j = 0; j < n; ++j) {
    const auto in = static_cast<std::uint8_t>(8 + j % 8);
    VInsn mac{VOpc::kMaccEs, 3, 4, in, et, vl, j % cap};
    if (j % 2 == 1 && room != 0) {
      prog.push_back(
          VInsn{VOpc::kSlideDownVX, 2, in, 0, et, vl, 1 + j % room});
      mac.vs2 = 2;
    }
    prog.push_back(mac);
  }
  return prog;
}

constexpr ElemType kWidths[] = {ElemType::kWord, ElemType::kHalf,
                                ElemType::kByte};

TEST_P(VpuProgramTest, MacRunsMatchPerInstructionExecution) {
  LlcConfig cfg{};
  cfg.vpu.vlen_bytes = 256;
  std::uint32_t seed = 0;
  for (ElemType et : kWidths) {
    const std::uint32_t cap = cfg.vpu.vlen_bytes / elem_bytes(et);
    const std::uint32_t block = 64 / elem_bytes(et);  // elements per block
    for (std::uint32_t vl : {0u, 1u, block - 1, 2 * block - 1, 2 * block,
                             2 * block + 1, cap}) {
      // 31..33 straddle the sweep's 32-term chunk; 147 = 3 * 7 * 7 is a k=7
      // conv-layer row.
      for (unsigned n : {1u, 2u, 31u, 32u, 33u, 147u}) {
        SCOPED_TRACE(::testing::Message() << "et " << static_cast<int>(et)
                                          << " vl " << vl << " terms " << n);
        const std::vector<VInsn> prog = mac_terms(n, et, vl, cfg.vpu);
        EXPECT_EQ(runs_of(prog, cfg.vpu), std::vector<std::uint32_t>{n});
        check(prog, cfg, 4, ++seed);
      }
    }
  }
}

TEST_P(VpuProgramTest, MacRunsReadFoldedSourcesAtTheLastElements) {
  LlcConfig cfg{};
  cfg.vpu.vlen_bytes = 256;
  for (ElemType et : kWidths) {
    const std::uint32_t cap = cfg.vpu.vlen_bytes / elem_bytes(et);
    for (std::uint32_t k : {cap - 1, cap - 2, cap - 3}) {
      SCOPED_TRACE(::testing::Message()
                   << "et " << static_cast<int>(et) << " k " << k);
      const std::uint32_t vl = cap - k;
      const std::vector<VInsn> prog = {
          VInsn{VOpc::kMaccEs, 3, 4, 9, et, vl, 1},
          VInsn{VOpc::kSlideDownVX, 2, 8, 0, et, vl, k},
          VInsn{VOpc::kMaccEs, 3, 4, 2, et, vl, cap - 1},
          VInsn{VOpc::kSlideDownVX, 2, 10, 0, et, vl, k},
          VInsn{VOpc::kMaccEs, 3, 5, 2, et, vl, 0}};
      EXPECT_EQ(runs_of(prog, cfg.vpu), std::vector<std::uint32_t>{3});
      check(prog, cfg, 4, k);
    }
  }
}

TEST_P(VpuProgramTest, MacRunBreakersMatchPerInstructionExecution) {
  LlcConfig cfg{};
  cfg.vpu.vlen_bytes = 256;
  const VInsn t{VOpc::kMaccEs, 3, 4, 8, ElemType::kHalf, 100, 5};
  auto with = [&](auto change) {
    VInsn i = t;
    change(i);
    return i;
  };
  const VInsn t2 = with([](VInsn& i) { i.vs2 = 9; i.scalar = 6; });
  struct Case {
    const char* name;
    std::vector<VInsn> prog;
    std::vector<std::uint32_t> runs;
  };
  const std::vector<Case> cases = {
      {"one run", {t, t2, t}, {3}},
      {"vs1 is vd mid-run",
       {t, t2, with([](VInsn& i) { i.vs1 = 3; }), t}, {2, 1, 1}},
      {"vs2 is vd mid-run",
       {t, t2, with([](VInsn& i) { i.vs2 = 3; }), t}, {2, 1, 1}},
      {"the first term reads vd", {with([](VInsn& i) { i.vs1 = 3; }), t, t2},
       {1, 2}},
      {"the element type changes",
       {t, t2, with([](VInsn& i) { i.et = ElemType::kByte; }), t},
       {2, 1, 1}},
      {"vl changes", {t, t2, with([](VInsn& i) { i.vl = 99; }), t},
       {2, 1, 1}},
      {"the accumulator changes",
       {t, t2, with([](VInsn& i) { i.vd = 6; }), t}, {2, 1, 1}},
      {"a non-MAC between terms",
       {t, t2, VInsn{VOpc::kAddVV, 6, 8, 9, ElemType::kHalf, 100, 0}, t, t2},
       {2, 2}},
      {"a vmacc.vx into the accumulator between terms",
       {t, with([](VInsn& i) { i.op = VOpc::kMaccVX; }), t2}, {1, 1}},
      {"a slide that does not fold between terms",
       {t, VInsn{VOpc::kSlideDownVX, 2, 8, 0, ElemType::kHalf, 100, 1},
        with([](VInsn& i) { i.vs1 = 2; }), t2},
       {1, 2}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(runs_of(c.prog, cfg.vpu), c.runs);
    check(c.prog, cfg, 4, 21);
  }
}

TEST_P(VpuProgramTest, MacRunsReadTheLastRegisterOfTheLastVpu) {
  // The sweep reads whole 64-byte blocks: a source read from its last
  // element reaches past the register, which for the last register of the
  // last VPU is past the storage's lines (an over-read fails under ASan
  // without LineStorage::kReadPad).
  LlcConfig cfg{};
  const auto last = static_cast<std::uint8_t>(cfg.vpu.num_vregs - 1);
  for (ElemType et : kWidths) {
    SCOPED_TRACE(::testing::Message() << "et " << static_cast<int>(et));
    const std::uint32_t cap = cfg.vpu.vlen_bytes / elem_bytes(et);
    const std::vector<VInsn> prog = {
        VInsn{VOpc::kMaccEs, 29, 28, last, et, cap - 1, 3},
        VInsn{VOpc::kSlideDownVX, 27, last, 0, et, cap - 1, 1},
        VInsn{VOpc::kMaccEs, 29, 28, 27, et, cap - 1, 4},
        VInsn{VOpc::kSlideDownVX, 27, last, 0, et, 1, cap - 1},
        VInsn{VOpc::kMaccEs, 25, 28, 27, et, 1, 5},
        VInsn{VOpc::kMaccEs, 25, 28, 26, et, 1, cap - 1},
        VInsn{VOpc::kMaccEs, last, 28, 26, et, cap - 1, 2}};
    EXPECT_EQ(runs_of(prog, cfg.vpu), (std::vector<std::uint32_t>{2, 2, 1}));
    check(prog, cfg, 4, 5, cfg.num_vpus - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LaneBuilds, VpuProgramTest,
    ::testing::Values(LaneBuild{"Portable", detail::lane_pass_portable, false},
                      LaneBuild{"Avx2", detail::lane_pass_avx2, true}),
    [](const ::testing::TestParamInfo<LaneBuild>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace arcane::vpu
