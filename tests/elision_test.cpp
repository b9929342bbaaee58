// Full write-back elision (paper §IV-B2): the elided result is forwarded to
// its consumer and lazily materialized, which must preserve memory
// consistency under every consumption/abandonment path.
#include <gtest/gtest.h>

#include <utility>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using isa::Reg;
using workloads::Matrix;
using workloads::Rng;

struct ChainSetup {
  Rng rng{7};
  Matrix<std::int32_t> X = Matrix<std::int32_t>::random(14, 16, rng, -9, 9);
  Matrix<std::int32_t> F = Matrix<std::int32_t>::random(3, 3, rng, -3, 3);
};

SystemConfig full_elision_cfg() {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.full_writeback_elision = true;
  return cfg;
}

TEST(ElisionTest, FullElisionSkipsProducerWriteback) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  EXPECT_EQ(sys.runtime().phases().full_elisions, 1u);
  EXPECT_GT(sys.runtime().phases().writebacks_elided, 0u);
  auto got = workloads::load_matrix<std::int32_t>(sys, out, 12, 14);
  auto want = workloads::golden_leaky_relu(workloads::golden_conv2d(s.X, s.F), 0u);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

TEST(ElisionTest, ElidedIntermediateMaterializedOnHostRead) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  // The host reads the *intermediate*: the elided write-back must be
  // materialized lazily and return the correct data.
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(mid));
  a.lw(Reg::kA0, Reg::kT3, 0);
  a.ecall();
  sys.load_program(prog.finish());
  const auto res = sys.run_unchecked();
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  const auto conv = workloads::golden_conv2d(s.X, s.F);
  EXPECT_EQ(static_cast<std::int32_t>(res.exit_code), conv.at(0, 0));
  // Whole intermediate correct in memory after materialization.
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm, conv), 0u);
}

TEST(ElisionTest, ElidedIntermediateMaterializedOnBackdoorRead) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  // load_matrix goes through the coherent backdoor: must materialize.
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm,
                                        workloads::golden_conv2d(s.X, s.F)),
            0u);
}

TEST(ElisionTest, NoElisionWhenNoConsumerQueued) {
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);  // nothing consumes mid
  prog.sync_read(mid);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_EQ(sys.runtime().phases().full_elisions, 0u);
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(midm,
                                        workloads::golden_conv2d(s.X, s.F)),
            0u);
}

TEST(ElisionTest, SupersededElidedDestMaterializedBeforeOverwrite) {
  // k1: mid = conv(X, F) [elided, consumed by k2]; then k3 writes mid
  // again. The final state of mid must be k3's result.
  ChainSetup s;
  System sys(full_elision_cfg());
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);        // k1 -> mid (elidable)
  prog.leaky_relu(3, 2, 0, ElemType::kWord);    // k2 consumes mid
  prog.leaky_relu(2, 3, 2, ElemType::kWord);    // k3 overwrites mid
  prog.sync_read(mid);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  const auto relu = workloads::golden_leaky_relu(
      workloads::golden_conv2d(s.X, s.F), 0u);
  auto midm = workloads::load_matrix<std::int32_t>(sys, mid, 12, 14);
  EXPECT_EQ(workloads::count_mismatches(
                midm, workloads::golden_leaky_relu(relu, 2u)),
            0u);
}

/// A conv2d -> leaky_relu chain the host program issues before it halts,
/// its events then run one at a time until the producer retires with its
/// write-back elided: the consumer's chain step is still pending and the
/// intermediate lives only in the producer's VPU registers.
struct ElidedChain {
  ChainSetup s;
  System sys{full_elision_cfg()};
  Addr mid = sys.data_base() + 0x20000;
  Addr out = sys.data_base() + 0x30000;
  Matrix<std::int32_t> conv = workloads::golden_conv2d(s.X, s.F);

  void run_to_elision() {
    const Addr x = sys.data_base() + 0x1000;
    const Addr f = sys.data_base() + 0x10000;
    workloads::store_matrix(sys, x, s.X);
    workloads::store_matrix(sys, f, s.F);
    XProgram prog;
    prog.xmr(0, x, s.X.shape(), ElemType::kWord);
    prog.xmr(1, f, s.F.shape(), ElemType::kWord);
    prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
    prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
    prog.conv2d(2, 0, 1, ElemType::kWord);
    prog.leaky_relu(3, 2, 0, ElemType::kWord);
    prog.halt();
    sys.load_program(prog.finish());
    ASSERT_EQ(sys.host().run_on(sys, ~0ull).reason, cpu::HaltReason::kEcall);
    const sim::CrtPhaseStats& ph = sys.runtime().phases();
    while (ph.full_elisions == 0) {
      ASSERT_FALSE(sys.events().empty());
      sys.events().run_one();
    }
    ASSERT_EQ(ph.kernels_executed, 1u);  // the consumer has not finished
    ASSERT_EQ(ph.writebacks_elided, 0u);  // nor taken the resident rows
  }

  Addr element(unsigned r, unsigned c) const { return mid + 4 * (r * 14 + c); }
};

// A host store into the elided intermediate before its consumer has read
// it: the resident copy is materialized and dropped, so the consumer reads
// the intermediate from memory, not from the producer's VPU registers. The
// consumer was offloaded before the store, so the store waits on its source
// range (WAR) and the consumer sees the producer's result; the store then
// lands in memory.
TEST(ElisionTest, HostStoreIntoElidedIntermediateDropsTheResident) {
  ElidedChain c;
  c.run_to_elision();
  if (HasFatalFailure()) return;
  const Cycle src_stalls = c.sys.llc().stats().stalls.at_source;
  const std::int32_t v = 12345;
  c.sys.write(c.element(5, 7), 4, &v, c.sys.events().now());
  EXPECT_GT(c.sys.llc().stats().stalls.at_source, src_stalls);
  c.sys.drain();

  Matrix<std::int32_t> want_mid = c.conv;
  want_mid.at(5, 7) = v;
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(c.sys, c.mid, 12, 14),
                want_mid),
            0u);
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(c.sys, c.out, 12, 14),
                workloads::golden_leaky_relu(c.conv, 0u)),
            0u);
  EXPECT_EQ(c.sys.runtime().phases().kernels_executed, 2u);
  EXPECT_EQ(c.sys.runtime().phases().writebacks_elided, 0u);
}

// A host load from the elided intermediate before its consumer runs: the
// resident is materialized, so the load reads the producer's result without
// waiting on its write-back, and the consumer still takes the resident rows.
TEST(ElisionTest, HostLoadFromElidedIntermediateMaterializesIt) {
  ElidedChain c;
  c.run_to_elision();
  if (HasFatalFailure()) return;
  const Cycle dest_stalls = c.sys.llc().stats().stalls.at_dest;
  const std::pair<unsigned, unsigned> cells[] = {{0, 0}, {5, 7}, {11, 13}};
  for (const auto& [r, col] : cells) {
    std::int32_t got = 0;
    c.sys.read(c.element(r, col), 4, &got, c.sys.events().now());
    EXPECT_EQ(got, c.conv.at(r, col)) << r << "," << col;
  }
  EXPECT_EQ(c.sys.llc().stats().stalls.at_dest, dest_stalls);
  c.sys.drain();

  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(c.sys, c.mid, 12, 14),
                c.conv),
            0u);
  EXPECT_EQ(workloads::count_mismatches(
                workloads::load_matrix<std::int32_t>(c.sys, c.out, 12, 14),
                workloads::golden_leaky_relu(c.conv, 0u)),
            0u);
  EXPECT_GT(c.sys.runtime().phases().writebacks_elided, 0u);
}

TEST(ElisionTest, ForwardingDisabledStillCorrect) {
  // Default config (full elision off): the producer writes back, so there
  // is no resident to forward and the consumer reloads through the LLC.
  ChainSetup s;
  System sys(SystemConfig::paper(4));
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, s.X);
  workloads::store_matrix(sys, f, s.F);
  XProgram prog;
  prog.xmr(0, x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, f, s.F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();
  EXPECT_EQ(sys.runtime().phases().writebacks_elided, 0u);
  auto got = workloads::load_matrix<std::int32_t>(sys, out, 12, 14);
  auto want = workloads::golden_leaky_relu(workloads::golden_conv2d(s.X, s.F), 0u);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
}

}  // namespace
}  // namespace arcane
