// Host ISS semantics: RV32IM instruction behaviour, halting, timing basics.
#include <gtest/gtest.h>

#include "arcane/system.hpp"
#include "isa/assembler.hpp"
#include "isa/encode.hpp"

namespace arcane {
namespace {

using isa::Assembler;
using isa::Reg;

cpu::HostCpu::RunResult run_program(System& sys, Assembler& a) {
  sys.load_program(a.finish());
  return sys.run_unchecked();
}

/// Runs a fragment that leaves its result in a0 and calls ecall.
std::uint32_t run_for_a0(Assembler& a) {
  System sys(SystemConfig::paper(4));
  sys.load_program(a.finish());
  auto res = sys.run_unchecked();
  EXPECT_EQ(res.reason, cpu::HaltReason::kEcall);
  return res.exit_code;
}

TEST(CpuTest, AddiAndExit) {
  Assembler a;
  a.li(Reg::kA0, 41);
  a.addi(Reg::kA0, Reg::kA0, 1);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 42u);
}

TEST(CpuTest, LuiAddiLargeConstants) {
  for (std::int32_t v : {0x12345678, -1, -2048, 2047, 0x7FFFFFFF,
                         static_cast<std::int32_t>(0x80000000), 0x800, -2049}) {
    Assembler a;
    a.li(Reg::kA0, v);
    a.ecall();
    EXPECT_EQ(run_for_a0(a), static_cast<std::uint32_t>(v)) << v;
  }
}

TEST(CpuTest, ArithmeticOps) {
  struct Case {
    void (Assembler::*op)(Reg, Reg, Reg);
    std::int32_t a, b, want;
  };
  const Case cases[] = {
      {&Assembler::add, 5, 7, 12},
      {&Assembler::sub, 5, 7, -2},
      {&Assembler::xor_, 0b1100, 0b1010, 0b0110},
      {&Assembler::or_, 0b1100, 0b1010, 0b1110},
      {&Assembler::and_, 0b1100, 0b1010, 0b1000},
      {&Assembler::sll, 1, 5, 32},
      {&Assembler::srl, -8, 1, 0x7FFFFFFC},
      {&Assembler::sra, -8, 1, -4},
      {&Assembler::slt, -1, 1, 1},
      {&Assembler::sltu, -1, 1, 0},
      {&Assembler::mul, -3, 7, -21},
      {&Assembler::div, -7, 2, -3},
      {&Assembler::rem, -7, 2, -1},
      {&Assembler::divu, -7, 2, 0x7FFFFFFC},
      {&Assembler::remu, 7, 3, 1},
  };
  for (const auto& c : cases) {
    Assembler a;
    a.li(Reg::kA1, c.a);
    a.li(Reg::kA2, c.b);
    (a.*c.op)(Reg::kA0, Reg::kA1, Reg::kA2);
    a.ecall();
    EXPECT_EQ(run_for_a0(a), static_cast<std::uint32_t>(c.want));
  }
}

TEST(CpuTest, MulhVariants) {
  Assembler a;
  a.li(Reg::kA1, -2);
  a.li(Reg::kA2, 3);
  a.mulh(Reg::kA0, Reg::kA1, Reg::kA2);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 0xFFFFFFFFu);  // (-6) >> 32

  Assembler b;
  b.li(Reg::kA1, -1);
  b.li(Reg::kA2, -1);
  b.mulhu(Reg::kA0, Reg::kA1, Reg::kA2);
  b.ecall();
  EXPECT_EQ(run_for_a0(b), 0xFFFFFFFEu);

  Assembler c;
  c.li(Reg::kA1, -1);
  c.li(Reg::kA2, 2);
  c.mulhsu(Reg::kA0, Reg::kA1, Reg::kA2);
  c.ecall();
  EXPECT_EQ(run_for_a0(c), 0xFFFFFFFFu);
}

TEST(CpuTest, DivisionSpecialCases) {
  Assembler a;
  a.li(Reg::kA1, 17);
  a.li(Reg::kA2, 0);
  a.div(Reg::kA0, Reg::kA1, Reg::kA2);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 0xFFFFFFFFu);  // div by zero => -1

  Assembler b;
  b.li(Reg::kA1, static_cast<std::int32_t>(0x80000000));
  b.li(Reg::kA2, -1);
  b.div(Reg::kA0, Reg::kA1, Reg::kA2);
  b.ecall();
  EXPECT_EQ(run_for_a0(b), 0x80000000u);  // signed overflow case

  Assembler c;
  c.li(Reg::kA1, 17);
  c.li(Reg::kA2, 0);
  c.rem(Reg::kA0, Reg::kA1, Reg::kA2);
  c.ecall();
  EXPECT_EQ(run_for_a0(c), 17u);  // rem by zero => dividend
}

TEST(CpuTest, BranchesAndLoop) {
  Assembler a;
  a.li(Reg::kA0, 0);
  a.li(Reg::kA1, 10);
  auto loop = a.here();
  a.add(Reg::kA0, Reg::kA0, Reg::kA1);
  a.addi(Reg::kA1, Reg::kA1, -1);
  a.bnez(Reg::kA1, loop);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 55u);
}

TEST(CpuTest, BranchConditions) {
  struct Case {
    void (Assembler::*br)(Reg, Reg, Assembler::Label);
    std::int32_t x, y;
    bool taken;
  };
  const Case cases[] = {
      {&Assembler::beq, 3, 3, true},   {&Assembler::beq, 3, 4, false},
      {&Assembler::bne, 3, 4, true},   {&Assembler::bne, 3, 3, false},
      {&Assembler::blt, -1, 0, true},  {&Assembler::blt, 0, -1, false},
      {&Assembler::bge, 0, -1, true},  {&Assembler::bge, -1, 0, false},
      {&Assembler::bltu, 1, -1, true}, {&Assembler::bltu, -1, 1, false},
      {&Assembler::bgeu, -1, 1, true}, {&Assembler::bgeu, 1, -1, false},
  };
  for (const auto& c : cases) {
    Assembler a;
    a.li(Reg::kA1, c.x);
    a.li(Reg::kA2, c.y);
    auto t = a.label();
    (a.*c.br)(Reg::kA1, Reg::kA2, t);
    a.li(Reg::kA0, 0);
    a.ecall();
    a.bind(t);
    a.li(Reg::kA0, 1);
    a.ecall();
    EXPECT_EQ(run_for_a0(a), c.taken ? 1u : 0u);
  }
}

TEST(CpuTest, JalLinksAndJalrReturns) {
  Assembler a;
  auto func = a.label();
  a.li(Reg::kA0, 1);
  a.call(func);
  a.addi(Reg::kA0, Reg::kA0, 100);
  a.ecall();
  a.bind(func);
  a.addi(Reg::kA0, Reg::kA0, 10);
  a.ret();
  EXPECT_EQ(run_for_a0(a), 111u);
}

TEST(CpuTest, LoadStoreAllWidths) {
  System sys(SystemConfig::paper(4));
  const Addr base = sys.data_base() + 0x100;
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(base));
  a.li(Reg::kT1, -2);
  a.sw(Reg::kT1, Reg::kT0, 0);
  a.li(Reg::kT1, 0x1234);
  a.sh(Reg::kT1, Reg::kT0, 4);
  a.li(Reg::kT1, 0x80);
  a.sb(Reg::kT1, Reg::kT0, 6);
  a.lw(Reg::kA0, Reg::kT0, 0);
  a.lhu(Reg::kA1, Reg::kT0, 4);
  a.lb(Reg::kA2, Reg::kT0, 6);  // sign-extends 0x80
  a.add(Reg::kA0, Reg::kA0, Reg::kA1);
  a.add(Reg::kA0, Reg::kA0, Reg::kA2);
  a.ecall();
  auto res = run_program(sys, a);
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, static_cast<std::uint32_t>(-2 + 0x1234 - 128));
}

TEST(CpuTest, MisalignedLoadCrossingWordBoundary) {
  System sys(SystemConfig::paper(4));
  const Addr base = sys.data_base() + 0x200;
  const std::uint8_t bytes[8] = {0x11, 0x22, 0x33, 0x44, 0x55, 0, 0, 0};
  sys.write_bytes(base, bytes);
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(base));
  a.lw(Reg::kA0, Reg::kT0, 1);  // crosses the 32-bit boundary
  a.ecall();
  auto res = run_program(sys, a);
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, 0x55443322u);
}

TEST(CpuTest, IllegalInstructionHalts) {
  System sys(SystemConfig::paper(4));
  sys.load_program({0xFFFFFFFFu});
  EXPECT_EQ(sys.run_unchecked().reason,
            cpu::HaltReason::kIllegalInstruction);
  sys.load_program({0xFFFFFFFFu});
  EXPECT_THROW(sys.run(), Error);
}

TEST(CpuTest, XcvpulpIllegalOnPlainCv32e40x) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = HostCpuKind::kCv32e40x;
  System sys(cfg);
  Assembler a;
  a.pv_add_b(Reg::kA0, Reg::kA1, Reg::kA2);
  a.ecall();
  sys.load_program(a.finish());
  EXPECT_EQ(sys.run_unchecked().reason,
            cpu::HaltReason::kIllegalInstruction);
}

TEST(CpuTest, BusFaultOnUnmappedAccess) {
  System sys(SystemConfig::paper(4));
  Assembler a;
  a.li(Reg::kT0, 0x7000'0000);
  a.lw(Reg::kA0, Reg::kT0, 0);
  a.ecall();
  sys.load_program(a.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kBusFault);
}

TEST(CpuTest, JumpToTopOfAddressSpaceIsABusFault) {
  // pc = 0xFFFFFFFE: pc + 2 wraps to 0, which must not pass the fetch check.
  System sys(SystemConfig::paper(4));
  Assembler a;
  a.addi(Reg::kT0, Reg::kZero, -2);
  a.jalr(Reg::kZero, Reg::kT0, 0);
  a.ecall();
  sys.load_program(a.finish());
  const auto refills = sys.llc().stats().refills;
  const auto res = sys.run_unchecked();
  EXPECT_EQ(res.reason, cpu::HaltReason::kBusFault);
  EXPECT_EQ(res.pc, 0xFFFF'FFFEu);
  EXPECT_EQ(sys.llc().stats().refills, refills);
}

TEST(CpuTest, FetchPastEndOfInstructionMemoryIsABusFault) {
  // The last halfword of imem holds the low half of addi a0, a0, 5: the
  // 32-bit op cannot be fetched whole, so it faults at its own pc without
  // retiring (rather than running with its upper half read as zero).
  System sys(SystemConfig::paper(4));
  const Addr end = sys.config().mem.imem_base + sys.config().mem.imem_bytes;
  const std::uint32_t addi = isa::enc::addi(10, 10, 5);
  sys.load_program({0x0001u | ((addi & 0xFFFFu) << 16)}, end - 4);  // c.nop
  sys.load_program({isa::enc::jal(0, static_cast<std::int32_t>(end - 2))});
  const auto res = sys.run_unchecked();
  EXPECT_EQ(res.reason, cpu::HaltReason::kBusFault);
  EXPECT_EQ(res.pc, end - 2);
  EXPECT_EQ(res.instructions, 1u);
  EXPECT_EQ(sys.host().reg(10), 0u);
}

TEST(CpuTest, LoadAtTopOfAddressSpaceIsABusFault) {
  // A byte at 0xFFFFFFFF: addr + 1 wraps to 0, which must not pass the
  // data-region check or reach the LLC.
  System sys(SystemConfig::paper(4));
  Assembler a;
  a.addi(Reg::kT0, Reg::kZero, -1);
  a.lb(Reg::kA0, Reg::kT0, 0);
  a.ecall();
  sys.load_program(a.finish());
  const auto refills = sys.llc().stats().refills;
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kBusFault);
  EXPECT_EQ(sys.llc().stats().refills, refills);
  EXPECT_EQ(sys.llc().stats().reads, 0u);
}

TEST(CpuTest, McycleAndMinstretCsrs) {
  Assembler a;
  a.nop();
  a.nop();
  a.csrr(Reg::kA0, isa::kCsrMinstret);
  a.ecall();
  EXPECT_EQ(run_for_a0(a), 3u);

  Assembler b;
  b.csrr(Reg::kA1, isa::kCsrMcycle);
  b.nop();
  b.nop();
  b.csrr(Reg::kA2, isa::kCsrMcycle);
  b.sub(Reg::kA0, Reg::kA2, Reg::kA1);
  b.ecall();
  EXPECT_GE(run_for_a0(b), 2u);
}

TEST(CpuTest, EbreakHalts) {
  System sys(SystemConfig::paper(4));
  Assembler a;
  a.ebreak();
  sys.load_program(a.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kEbreak);
}

TEST(CpuTest, TimingAluIsOneCyclePerInstruction) {
  System sys(SystemConfig::paper(4));
  Assembler a;
  for (int i = 0; i < 100; ++i) a.addi(Reg::kA0, Reg::kA0, 1);
  a.ecall();
  auto res = run_program(sys, a);
  EXPECT_EQ(res.cycles, 101u);  // 100 alu + ecall
}

TEST(CpuTest, TakenBranchCostsConfiguredPenalty) {
  SystemConfig cfg = SystemConfig::paper(4);
  System sys(cfg);
  Assembler a;
  a.li(Reg::kA1, 100);
  auto loop = a.here();
  a.addi(Reg::kA1, Reg::kA1, -1);
  a.bnez(Reg::kA1, loop);
  a.ecall();
  auto res = run_program(sys, a);
  EXPECT_EQ(res.cycles, 1u + 100u + 99u * cfg.cpu.branch_taken +
                            cfg.cpu.branch_not_taken + 1u);
}

TEST(CpuTest, CacheHitAndMissCounted) {
  System sys(SystemConfig::paper(4));
  const Addr base = sys.data_base();
  Assembler a;
  a.li(Reg::kT0, static_cast<std::int32_t>(base));
  a.lw(Reg::kA0, Reg::kT0, 0);  // miss: refill from external memory
  a.lw(Reg::kA1, Reg::kT0, 4);  // hit: single cycle
  a.ecall();
  auto res = run_program(sys, a);
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(sys.llc().stats().misses, 1u);
  EXPECT_EQ(sys.llc().stats().hits, 1u);
}

TEST(CpuTest, DeterministicCycleCounts) {
  auto once = [] {
    System sys(SystemConfig::paper(4));
    Assembler a;
    a.li(Reg::kT0, static_cast<std::int32_t>(sys.data_base()));
    a.li(Reg::kA1, 2000);
    auto loop = a.here();
    a.sw(Reg::kA1, Reg::kT0, 0);
    a.lw(Reg::kA2, Reg::kT0, 0);
    a.addi(Reg::kT0, Reg::kT0, 36);
    a.addi(Reg::kA1, Reg::kA1, -1);
    a.bnez(Reg::kA1, loop);
    a.ecall();
    sys.load_program(a.finish());
    return sys.run_unchecked().cycles;
  };
  EXPECT_EQ(once(), once());
}

}  // namespace
}  // namespace arcane
