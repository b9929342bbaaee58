// Small helpers several test suites share: reference paths the simulator
// itself no longer takes.
#ifndef ARCANE_TESTS_TEST_SUPPORT_HPP_
#define ARCANE_TESTS_TEST_SUPPORT_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"
#include "crt/executor.hpp"
#include "llc/llc.hpp"
#include "vpu/vector_unit.hpp"
#include "vpu/vinsn.hpp"

namespace arcane::test {

/// Prepare `prog` (one or more instructions) for `vu` and run it from
/// `start`, dispatched one instruction every `dispatch_gap` cycles; returns
/// its completion time. An invalid instruction throws, with every earlier
/// one executed and counted.
inline Cycle run_insns(vpu::VectorUnit& vu, std::span<const vpu::VInsn> prog,
                       Cycle start = 0, unsigned dispatch_gap = 0) {
  vpu::Program p;
  p.prepare(prog, vu.config(), dispatch_gap);
  return vu.run(p, start);
}

inline Cycle run_insn(vpu::VectorUnit& vu, const vpu::VInsn& insn) {
  return run_insns(vu, {&insn, 1});
}

/// The full scan: free every line kernel `uid` owns, wherever it is. Every
/// line backs one register of one VPU, so this walks all registers of all
/// VPUs; the simulator walks only the ones a kernel claims.
inline void release_kernel_lines_everywhere(llc::Llc& llc,
                                            const LlcConfig& cfg,
                                            std::uint64_t uid) {
  ARCANE_ASSERT(llc.num_lines() == cfg.num_vpus * cfg.vpu.num_vregs,
                "a line that backs no VPU register");
  llc.release_kernel_lines(uid, (1u << cfg.num_vpus) - 1, cfg.vpu.num_vregs);
}

/// Executor owner with no cross-kernel policy: it frees each finished
/// kernel's lines with the full scan and records the completion.
class PlainClient final : public crt::KernelExecutor::Client {
 public:
  PlainClient(llc::Llc& llc, const LlcConfig& cfg) : llc_(&llc), cfg_(cfg) {}
  bool forward_load(const crt::KernelExecutor&, const crt::DmaXfer&,
                    std::vector<std::uint8_t>&) override {
    return false;
  }
  void before_claim(unsigned) override {}
  void materialize_deferred(Addr, Addr) override {}
  bool allow_writeback_elision(const crt::KernelExecutor&, Addr,
                               Addr) override {
    return false;
  }
  void on_kernel_finish(crt::KernelExecutor&, const crt::FinishedKernel& fin,
                        Cycle t) override {
    release_kernel_lines_everywhere(*llc_, cfg_, fin.op.uid);
    ++finished;
    finish = t;
  }

  unsigned finished = 0;
  Cycle finish = 0;  // when the last kernel finished

 private:
  llc::Llc* llc_;
  LlcConfig cfg_;
};

}  // namespace arcane::test

#endif  // ARCANE_TESTS_TEST_SUPPORT_HPP_
