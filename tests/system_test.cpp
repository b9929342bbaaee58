// System-level plumbing: bridge handshake, MMIO map, address routing,
// configuration validation, the host and VPU metrics of a run,
// compressed-instruction execution.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "isa/encode.hpp"
#include "workloads/golden.hpp"

namespace arcane {
namespace {

using isa::Reg;

TEST(ConfigTest, PaperPresetsValidate) {
  for (unsigned lanes : {2u, 4u, 8u}) {
    const auto cfg = SystemConfig::paper(lanes);
    EXPECT_EQ(cfg.llc.vpu.lanes, lanes);
    EXPECT_EQ(cfg.llc.capacity_bytes(), 128u << 10);
    EXPECT_EQ(cfg.llc.num_lines(), 128u);
    EXPECT_EQ(cfg.llc.line_bytes(), 1024u);
  }
}

TEST(ConfigTest, InvalidConfigsRejected) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.llc.vpu.lanes = 3;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = SystemConfig::paper(4);
  cfg.llc.vpu.vlen_bytes = 100;  // not a power of two
  EXPECT_THROW(cfg.validate(), Error);
  cfg = SystemConfig::paper(4);
  cfg.num_matrix_regs = 1;
  EXPECT_THROW(cfg.validate(), Error);
  cfg = SystemConfig::paper(4);
  cfg.mem.ext_bytes_per_cycle = 0;
  EXPECT_THROW(cfg.validate(), Error);
}

TEST(ConfigTest, ElemsPerCycleSubwordSimd) {
  VpuConfig v;
  v.lanes = 8;
  EXPECT_EQ(v.elems_per_cycle(4), 8u);
  EXPECT_EQ(v.elems_per_cycle(2), 16u);
  EXPECT_EQ(v.elems_per_cycle(1), 32u);
}

TEST(BridgeTest, MmioRegistersReadable) {
  System sys(SystemConfig::paper(4));
  const Addr mmio = sys.config().mem.mmio_base;
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegMagic), 0x41524341u);
  // Through the bus as well:
  XProgram prog;
  auto& a = prog.a();
  a.li(Reg::kT0, static_cast<std::int32_t>(mmio));
  a.lw(Reg::kA0, Reg::kT0, bridge::kRegOffloads);
  a.ecall();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().exit_code, 0u);
}

TEST(BridgeTest, OffloadCountsAndRejects) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{4, 4, 4}, ElemType::kWord);
  prog.xmk(29, ElemType::kWord, {});  // unknown kernel -> reject
  prog.halt();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
  EXPECT_EQ(sys.bridge().offloads(), 2u);
  EXPECT_EQ(sys.bridge().rejects(), 1u);
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegRejects), 1u);
  EXPECT_EQ(sys.bridge().mmio_read(bridge::kRegXmrCount), 1u);
}

TEST(BridgeTest, InvalidElementSizeRejected) {
  System sys(SystemConfig::paper(4));
  // funct3 = 3 is not a valid element size for xmnmc.
  sys.load_program({isa::enc::xmnmc(0, /*esize=*/3, 10, 11, 12),
                    isa::enc::ecall()});
  EXPECT_EQ(sys.run_unchecked().reason, cpu::HaltReason::kIllegalInstruction);
  EXPECT_EQ(sys.bridge().rejects(), 1u);
}

TEST(BridgeTest, OffloadBlocksHostUntilDecode) {
  // The host's offload instruction retires only after the eCPU's software
  // decode acknowledges it (paper §III-B) — hundreds of cycles.
  System sys(SystemConfig::paper(4));
  XProgram prog;
  prog.xmr(0, sys.data_base(), MatShape{4, 4, 4}, ElemType::kWord);
  prog.halt();
  sys.load_program(prog.finish());
  const auto res = sys.run();
  const auto& crt = sys.config().crt;
  EXPECT_GE(res.cycles, crt.irq_entry + crt.decode_lookup + crt.xmr_preamble);
}

TEST(BridgeTest, MmioWritesIgnoredButAccepted) {
  System sys(SystemConfig::paper(4));
  XProgram prog;
  auto& a = prog.a();
  a.li(Reg::kT0, static_cast<std::int32_t>(sys.config().mem.mmio_base));
  a.li(Reg::kT1, 0xDEAD);
  a.sw(Reg::kT1, Reg::kT0, 0);
  a.lw(Reg::kA0, Reg::kT0, 0);  // still reads the magic
  a.ecall();
  sys.load_program(prog.finish());
  EXPECT_EQ(sys.run_unchecked().exit_code, 0x41524341u);
}

TEST(SystemTest, BackdoorReadWriteCoherent) {
  System sys(SystemConfig::paper(4));
  const Addr addr = sys.data_base() + 12340;
  sys.write_scalar<std::uint32_t>(addr, 0xABCD1234);
  EXPECT_EQ(sys.read_scalar<std::uint32_t>(addr), 0xABCD1234u);
  // Dirty the address through the host path, then backdoor-read.
  XProgram prog;
  auto& a = prog.a();
  a.li(Reg::kT0, static_cast<std::int32_t>(addr));
  a.li(Reg::kT1, 77);
  a.sw(Reg::kT1, Reg::kT0, 0);
  a.ecall();
  sys.load_program(prog.finish());
  sys.run_unchecked();
  EXPECT_EQ(sys.read_scalar<std::uint32_t>(addr), 77u);
}

TEST(SystemTest, StackTopInsideDataRegion) {
  System sys(SystemConfig::paper(4));
  EXPECT_GT(sys.stack_top(), sys.data_base());
  EXPECT_LT(sys.stack_top(), sys.data_base() + sys.data_size());
  EXPECT_EQ(sys.stack_top() % 16, 0u);
}

// The registry holds every CpuStats field as cpu.* and every VpuStats field
// of each VPU as vpu<i>.*, each equal to its struct field after a run.
TEST(SystemTest, MetricsHoldEveryCpuAndVpuField) {
  System sys(SystemConfig::paper(4));
  workloads::Rng rng(1);
  auto X = workloads::Matrix<std::int32_t>::random(8, 8, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base() + 0x1000, X);
  XProgram prog;
  prog.xmr(0, sys.data_base() + 0x1000, X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  sys.load_program(prog.finish());
  const auto res = sys.run();

  std::map<std::string, std::uint64_t> snap;
  for (const auto& [name, v] : sys.metrics().snapshot()) snap[name] = v;
  auto entries_under = [&snap](const std::string& prefix) {
    unsigned n = 0;
    for (const auto& [name, v] : snap) n += name.starts_with(prefix) ? 1 : 0;
    return n;
  };

  const sim::CpuStats& c = sys.host().stats();
  const std::pair<const char*, std::uint64_t> cpu[] = {
      {"cpu.instructions", c.instructions},
      {"cpu.compressed_instructions", c.compressed_instructions},
      {"cpu.loads", c.loads},
      {"cpu.stores", c.stores},
      {"cpu.branches", c.branches},
      {"cpu.taken_branches", c.taken_branches},
      {"cpu.mul_div", c.mul_div},
      {"cpu.simd_ops", c.simd_ops},
      {"cpu.hw_loop_iterations", c.hw_loop_iterations},
      {"cpu.offloads", c.offloads},
      {"cpu.cycles", c.cycles},
      {"cpu.stall_cycles", c.stall_cycles},
  };
  EXPECT_EQ(entries_under("cpu."), std::size(cpu));
  for (const auto& [name, want] : cpu) {
    ASSERT_TRUE(snap.contains(name)) << name;
    EXPECT_EQ(snap[name], want) << name;
  }
  EXPECT_EQ(snap["cpu.cycles"], res.cycles);
  EXPECT_EQ(snap["cpu.instructions"], res.instructions);
  EXPECT_EQ(snap["cpu.offloads"], 3u);
  EXPECT_EQ(snap["crt.kernels_executed"], 1u);

  ASSERT_GT(sys.vpus().size(), 1u);
  std::uint64_t instructions = 0, elements = 0, macs = 0;
  for (unsigned v = 0; v < sys.vpus().size(); ++v) {
    const std::string p = "vpu" + std::to_string(v) + ".";
    const sim::VpuStats& s = sys.vpus()[v].stats();
    const std::pair<std::string, std::uint64_t> vpu[] = {
        {p + "instructions", s.instructions},
        {p + "elements", s.elements},
        {p + "macs", s.macs},
        {p + "busy_cycles", s.busy_cycles},
    };
    EXPECT_EQ(entries_under(p), std::size(vpu)) << p;
    for (const auto& [name, want] : vpu) {
      ASSERT_TRUE(snap.contains(name)) << name;
      EXPECT_EQ(snap[name], want) << name;
    }
    instructions += s.instructions;
    elements += s.elements;
    macs += s.macs;
  }
  EXPECT_FALSE(snap.contains("vpu" + std::to_string(sys.vpus().size()) +
                             ".instructions"));
  EXPECT_GT(instructions, 0u);
  EXPECT_GT(elements, 0u);
  EXPECT_EQ(macs, 0u);  // ReLU performs no multiply-accumulates
}

TEST(SystemTest, CompressedInstructionsExecute) {
  // Hand-packed RVC pairs: c.li a0, 5 ; c.addi a0, 1 ; twice, then ecall.
  System sys(SystemConfig::paper(4));
  constexpr std::uint16_t kCLi_a0_5 = 0x4515;
  constexpr std::uint16_t kCAddi_a0_1 = 0x0505;
  const std::uint32_t pair1 =
      kCLi_a0_5 | (static_cast<std::uint32_t>(kCAddi_a0_1) << 16);
  const std::uint32_t pair2 =
      kCAddi_a0_1 | (static_cast<std::uint32_t>(kCAddi_a0_1) << 16);
  sys.load_program({pair1, pair2, isa::enc::ecall()});
  const auto res = sys.run_unchecked();
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, 8u);  // 5 + 1 + 1 + 1
  EXPECT_EQ(sys.host().stats().compressed_instructions, 4u);
}

TEST(SystemTest, MixedCompressedAnd32BitExecution) {
  // 16-bit c.li at pc 0, then a 32-bit addi straddling alignment.
  System sys(SystemConfig::paper(4));
  constexpr std::uint16_t kCLi_a0_5 = 0x4515;
  const std::uint32_t addi = isa::enc::addi(10, 10, 100);
  const std::uint32_t ecall = isa::enc::ecall();
  // Layout: [c.li | addi.lo16] [addi.hi16 | ecall.lo16] [ecall.hi16 | 0]
  sys.load_program({
      static_cast<std::uint32_t>(kCLi_a0_5) | (addi << 16),
      (addi >> 16) | (ecall << 16),
      (ecall >> 16),
  });
  const auto res = sys.run_unchecked();
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, 105u);
}

TEST(SystemTest, LoadProgramTooBigThrows) {
  System sys(SystemConfig::paper(4));
  std::vector<std::uint32_t> huge(40000, 0x13);  // > 128 KiB
  EXPECT_THROW(sys.load_program(huge), Error);
}

TEST(SystemTest, DrainSettlesAsyncKernels) {
  // Program exits WITHOUT reading the destination: the kernel is still in
  // flight at ecall; drain() (called by run) must settle it.
  System sys(SystemConfig::paper(4));
  workloads::Rng rng(2);
  auto X = workloads::Matrix<std::int32_t>::random(16, 16, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base() + 0x1000, X);
  XProgram prog;
  prog.xmr(0, sys.data_base() + 0x1000, X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  prog.halt();  // no sync_read
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_EQ(sys.runtime().phases().kernels_executed, 1u);
  EXPECT_FALSE(sys.scheduler().kernels_busy());
  auto got = workloads::load_matrix<std::int32_t>(sys, sys.data_base() + 0x8000,
                                                  16, 16);
  EXPECT_EQ(workloads::count_mismatches(
                got, workloads::golden_leaky_relu(X, 0u)),
            0u);
}


/// Runs a small GeMM program on `sys`, checks its result and returns the
/// host's run result.
cpu::HostCpu::RunResult run_small_gemm_result(System& sys) {
  workloads::Rng rng(7);
  auto A = workloads::Matrix<std::int32_t>::random(4, 5, rng, -100, 100);
  auto B = workloads::Matrix<std::int32_t>::random(5, 6, rng, -100, 100);
  auto C = workloads::Matrix<std::int32_t>::random(4, 6, rng, -100, 100);
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
  const auto res = sys.run();
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(sys, d, 4, 6),
                workloads::golden_gemm(A, B, C, 3, -2)),
            0u);
  return res;
}

/// The host cycle run_small_gemm_result's program halted at.
Cycle run_small_gemm(System& sys) { return run_small_gemm_result(sys).cycles; }

// A program loaded after the event queue has run ahead starts at the
// queue's time: its offloads schedule from there, and it takes exactly as
// many cycles as on a fresh System.
TEST(SystemTest, ProgramLoadedAfterEventsStartsAtQueueTime) {
  System fresh(SystemConfig::paper(4));
  const Cycle cycles = run_small_gemm(fresh);

  System sys(SystemConfig::paper(4));
  sys.events().schedule(100000, [] {});
  sys.events().run_all();
  EXPECT_EQ(run_small_gemm(sys), 100000 + cycles);
}

// A program loaded after the queue ran ahead reports its start, so its own
// length, cycles - start, excludes the idle time before it.
TEST(SystemTest, ProgramLoadedAfterEventsReportsItsOwnCycles) {
  System fresh(SystemConfig::paper(4));
  const auto fresh_res = run_small_gemm_result(fresh);

  System sys(SystemConfig::paper(4));
  sys.events().schedule(100000, [] {});
  sys.events().run_all();
  const auto res = run_small_gemm_result(sys);
  EXPECT_EQ(fresh_res.start, 0u);
  EXPECT_EQ(res.start, 100000u);
  EXPECT_EQ(res.cycles, 100000 + fresh_res.cycles);
  EXPECT_EQ(res.instructions, fresh_res.instructions);
}
}  // namespace
}  // namespace arcane
