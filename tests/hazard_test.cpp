// Hazard management (paper §III-A2/A3): WAR, RAW and WAW interleavings of
// host traffic with in-flight kernels must serialize correctly through the
// Address Table, and the stall accounting must attribute the waits.
#include <gtest/gtest.h>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using isa::Reg;
using workloads::Matrix;
using workloads::Rng;

struct HazardFixture {
  Rng rng{42};
  System sys{SystemConfig::paper(4)};
  Matrix<std::int32_t> X = Matrix<std::int32_t>::random(24, 24, rng, -50, 50);
  Addr x = sys.data_base() + 0x1000;
  Addr d = sys.data_base() + 0x100000;

  HazardFixture() { workloads::store_matrix(sys, x, X); }
};

TEST(HazardTest, WarStoreToSourceBlocksUntilKernelDone) {
  HazardFixture s;
  XProgram prog;
  prog.xmr(0, s.x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, s.d, s.X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  // Host store to the *source* right after the offload: WAR hazard. The AT
  // must delay it past the kernel's use of the operand.
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(s.x));
  a.li(Reg::kT4, 9999);
  a.sw(Reg::kT4, Reg::kT3, 0);
  prog.sync_read(s.d);
  prog.halt();
  s.sys.load_program(prog.finish());
  s.sys.run();

  // Result computed from the ORIGINAL source data.
  auto got = workloads::load_matrix<std::int32_t>(s.sys, s.d, s.X.rows(),
                                                  s.X.cols());
  EXPECT_EQ(workloads::count_mismatches(got,
                                        workloads::golden_leaky_relu(s.X, 0u)),
            0u);
  // The store landed afterwards.
  EXPECT_EQ(s.sys.read_scalar<std::int32_t>(s.x), 9999);
  EXPECT_GT(s.sys.llc().stats().stalls.at_source, 0u);
}

TEST(HazardTest, RawReadOfDestinationBlocksUntilWriteback) {
  HazardFixture s;
  XProgram prog;
  prog.xmr(0, s.x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, s.d, s.X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 2, ElemType::kWord);
  prog.sync_read(s.d);  // RAW: read result immediately
  prog.halt();
  s.sys.load_program(prog.finish());
  auto res = s.sys.run();
  EXPECT_GT(s.sys.llc().stats().stalls.at_dest, 0u);
  // The host observed the final value (sync_read returned post-writeback).
  auto got = workloads::load_matrix<std::int32_t>(s.sys, s.d, s.X.rows(),
                                                  s.X.cols());
  EXPECT_EQ(workloads::count_mismatches(got,
                                        workloads::golden_leaky_relu(s.X, 2u)),
            0u);
  // And the kernel had finished by then (tenant 0 is the host tenant the
  // first offload created).
  ASSERT_EQ(s.sys.scheduler().num_tenants(), 1u);
  EXPECT_EQ(s.sys.scheduler().tenant_stats(0).jobs_completed, 1u);
  EXPECT_LE(s.sys.scheduler().tenant_stats(0).last_completion, res.cycles);
}

TEST(HazardTest, WawStoreToDestinationOrdersAfterWriteback) {
  HazardFixture s;
  XProgram prog;
  prog.xmr(0, s.x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, s.d, s.X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  // WAW: host store to the destination while the kernel is in flight.
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(s.d));
  a.li(Reg::kT4, -777);
  a.sw(Reg::kT4, Reg::kT3, 0);
  prog.halt();
  s.sys.load_program(prog.finish());
  s.sys.run();

  auto want = workloads::golden_leaky_relu(s.X, 0u);
  auto got = workloads::load_matrix<std::int32_t>(s.sys, s.d, s.X.rows(),
                                                  s.X.cols());
  // Element [0][0] carries the host's later store; the rest is the kernel's.
  EXPECT_EQ(got.at(0, 0), -777);
  got.at(0, 0) = want.at(0, 0);
  EXPECT_EQ(workloads::count_mismatches(got, want), 0u);
  EXPECT_GT(s.sys.llc().stats().stalls.at_dest, 0u);
}

TEST(HazardTest, UnrelatedTrafficProceedsDuringKernel) {
  HazardFixture s;
  const Addr scratch = s.sys.data_base() + 0x400000;
  XProgram prog;
  prog.xmr(0, s.x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, s.d, s.X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  // A burst of unrelated host accesses: must not block on the AT.
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(scratch));
  a.li(Reg::kT5, 64);
  auto loop = a.here();
  a.sw(Reg::kT5, Reg::kT3, 0);
  a.lw(Reg::kT6, Reg::kT3, 0);
  a.addi(Reg::kT3, Reg::kT3, 4);
  a.addi(Reg::kT5, Reg::kT5, -1);
  a.bnez(Reg::kT5, loop);
  prog.sync_read(s.d);
  prog.halt();
  s.sys.load_program(prog.finish());
  s.sys.run();
  EXPECT_EQ(s.sys.llc().stats().stalls.at_source, 0u);
  auto got = workloads::load_matrix<std::int32_t>(s.sys, s.d, s.X.rows(),
                                                  s.X.cols());
  EXPECT_EQ(workloads::count_mismatches(got,
                                        workloads::golden_leaky_relu(s.X, 0u)),
            0u);
}

TEST(HazardTest, ReadOfSourceIsNotBlocked) {
  HazardFixture s;
  XProgram prog;
  prog.xmr(0, s.x, s.X.shape(), ElemType::kWord);
  prog.xmr(1, s.d, s.X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  // Reading the source while the kernel runs is legal (no hazard).
  auto& a = prog.a();
  a.li(Reg::kT3, static_cast<std::int32_t>(s.x));
  a.lw(Reg::kA0, Reg::kT3, 0);
  a.ecall();  // exit code = the loaded source element
  s.sys.load_program(prog.finish());
  auto res = s.sys.run_unchecked();
  ASSERT_EQ(res.reason, cpu::HaltReason::kEcall);
  EXPECT_EQ(res.exit_code, static_cast<std::uint32_t>(s.X.at(0, 0)));
  EXPECT_EQ(s.sys.llc().stats().stalls.at_source, 0u);
}

TEST(HazardTest, DeadlockOnForeverBlockedAddressDetected) {
  // Accessing a destination whose kernel never existed cannot hang: a
  // blocked host with an empty event queue raises a diagnosable error.
  HazardFixture s;
  auto& at = s.sys.llc().at();
  at.register_range(s.d, s.d + 64, /*is_dest=*/true);
  std::uint32_t v;
  EXPECT_THROW(s.sys.llc().host_access(s.d, 4, false, &v, 0), Error);
}

TEST(HazardTest, AtCapacityExhaustionThrows) {
  HazardFixture s;
  auto& at = s.sys.llc().at();
  for (int i = 0; i < 64; ++i) {
    at.register_range(1000 + 8 * i, 1008 + 8 * i, false);
  }
  EXPECT_THROW(at.register_range(1, 2, false), Error);
}

TEST(HazardTest, AtOverlapQueries) {
  llc::AddressTable at(8);
  const unsigned e = at.register_range(100, 200, /*is_dest=*/false);
  EXPECT_NE(at.blocking(150, 4, /*is_write=*/true), nullptr);   // WAR
  EXPECT_EQ(at.blocking(150, 4, /*is_write=*/false), nullptr);  // read ok
  EXPECT_EQ(at.blocking(200, 4, true), nullptr);                // end excl.
  EXPECT_NE(at.blocking(96, 8, true), nullptr);                 // straddles
  at.release(e);
  EXPECT_EQ(at.blocking(150, 4, true), nullptr);
  const unsigned d = at.register_range(100, 200, /*is_dest=*/true);
  EXPECT_NE(at.blocking(150, 4, false), nullptr);  // RAW
  at.release(d);
}

}  // namespace
}  // namespace arcane
