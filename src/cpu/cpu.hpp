// Host CPU instruction-set simulator with a CV32E40X-style timing model.
//
// Two personalities (paper §V):
//  * CV32E40X  (RV32IMC + Zicsr): scalar baseline and ARCANE host.
//  * CV32E40PX (adds the XCVPULP subset): hardware loops, post-increment
//    memory accesses, scalar DSP and packed-SIMD dot products.
//
// The core is in-order and single-issue; data accesses go through a DataPort
// (the LLC), instruction fetches hit a single-cycle instruction memory, and
// unknown custom-2 instructions are offloaded to a Coprocessor over a
// CV-X-IF-like interface — exactly the integration contract of the paper's
// bridge (§III-B).
#ifndef ARCANE_CPU_CPU_HPP_
#define ARCANE_CPU_CPU_HPP_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "isa/decode.hpp"
#include "isa/rv32.hpp"
#include "mem/imem.hpp"
#include "sim/stats.hpp"

namespace arcane::cpu {

/// Data-side memory port (implemented by the system: LLC + MMIO routing).
class DataPort {
 public:
  virtual ~DataPort() = default;
  /// Perform the access starting at `now`; returns its completion time.
  virtual Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) = 0;
  virtual Cycle write(Addr addr, unsigned bytes, const void* in,
                      Cycle now) = 0;
};

/// CV-X-IF-like coprocessor attachment point.
class Coprocessor {
 public:
  virtual ~Coprocessor() = default;
  struct IssueResult {
    bool accepted = false;
    Cycle complete_at = 0;  // when the offloaded instruction retires
  };
  virtual IssueResult offload(const isa::DecodedInst& inst, std::uint32_t rs1,
                              std::uint32_t rs2, std::uint32_t rs3,
                              Cycle now) = 0;
};

enum class HaltReason : std::uint8_t {
  kNone = 0,
  kEcall,            // clean exit; exit code in a0
  kEbreak,
  kIllegalInstruction,
  kMisalignedAccess,
  kBusFault,
  kMaxInstructions,  // run() budget exhausted
};

const char* halt_reason_name(HaltReason r);

class HostCpu {
 public:
  HostCpu(const SystemConfig& cfg, mem::InstructionMemory& imem,
          DataPort& port, Coprocessor* copro = nullptr);

  /// Reset architectural state and start executing at `pc` with stack `sp`,
  /// with the local clock at cycle `start`.
  void reset(Addr pc, Addr sp, Cycle start = 0);

  struct RunResult {
    HaltReason reason = HaltReason::kNone;
    Cycle cycles = 0;           // time() at halt
    std::uint64_t instructions = 0;
    std::uint32_t exit_code = 0;  // a0 at ecall
    Addr pc = 0;                // faulting / final pc
    Cycle start = 0;            // time() at reset: ran cycles - start
  };
  RunResult run(std::uint64_t max_instructions = ~0ull);
  /// run() over a concrete port type (cpu/run_loop.hpp): with a `final`
  /// port such as arcane::System, its read/write calls bind directly and
  /// inline. run() itself is run_on over the DataPort interface.
  template <typename Port>
  RunResult run_on(Port& port, std::uint64_t max_instructions);

  std::uint32_t reg(unsigned idx) const { return regs_[idx & 31u]; }
  Addr pc() const { return pc_; }
  Cycle time() const { return time_; }

  const sim::CpuStats& stats() const { return stats_; }
  /// Drop the decoded-instruction cache (after loading a new program).
  /// O(1): bumps the generation stamp instead of rewriting both backing
  /// vectors — hot in multi-job scheduler runs that construct and reload
  /// many CPUs.
  void invalidate_decode_cache();

 private:
  bool xcvpulp() const { return cfg_.host_cpu == HostCpuKind::kCv32e40px; }

  SystemConfig cfg_;
  CpuTiming timing_;
  mem::InstructionMemory* imem_;
  DataPort* port_;
  Coprocessor* copro_;

  std::array<std::uint32_t, 32> regs_{};
  Addr pc_ = 0;
  Cycle time_ = 0;
  Cycle start_ = 0;  // time_ at reset

  // XCVPULP hardware-loop state (two nesting levels).
  struct HwLoop {
    Addr start = 0, end = 0;
    std::uint32_t count = 0;
  };
  std::array<HwLoop, 2> hwloop_{};

  // Decoded-instruction cache, indexed by halfword. An entry is valid only
  // when its generation stamp matches gen_; invalidation bumps gen_ so the
  // arrays are never rewritten (capacity reused across program loads).
  // Entries start uninitialized; decode_block() constructs them.
  //
  // Each entry also records the straight-line block that starts at it:
  // the instructions up to and including the next branch, jump, CSR,
  // cv.setup, xmnmc, ecall or ebreak, stopping before an illegal op or a
  // fetch past the end of imem. Every instruction of a valid entry's block
  // is itself a valid entry, so run_on() checks bounds, generation and
  // budget once per block.
  struct Slot {
    isa::DecodedInst inst;
    std::uint16_t block;      // instructions in the block from here (>= 1)
    std::uint16_t block_rvc;  // how many of them are compressed
  };
  struct RawDelete {
    void operator()(Slot* p) const { ::operator delete(p); }
  };
  /// Decodes the block starting at halfword `slot` (not yet valid) and
  /// every entry in it. Returns why the slot cannot execute (an illegal op,
  /// or a 32-bit op whose upper half lies past the end of imem), else kNone.
  HaltReason decode_block(std::size_t slot);
  /// Hardware-loop back-edge for a fall-through to `next` (the inner loop
  /// has priority; zero-overhead). Returns the pc to continue at.
  Addr close_hw_loop(Addr next);

  std::unique_ptr<Slot[], RawDelete> decode_cache_;
  std::vector<std::uint32_t> decode_gen_;
  std::uint32_t gen_ = 1;
  sim::CpuStats stats_;
};

}  // namespace arcane::cpu

#endif  // ARCANE_CPU_CPU_HPP_
