// One NM-Carus vector processing unit: functional execution of the vector
// ISA over the shared line storage plus the dispatch/issue timing model.
#ifndef ARCANE_VPU_VECTOR_UNIT_HPP_
#define ARCANE_VPU_VECTOR_UNIT_HPP_

#include <span>
#include <vector>

#include "common/config.hpp"
#include "sim/stats.hpp"
#include "vpu/line_storage.hpp"
#include "vpu/vinsn.hpp"

namespace arcane::vpu {

class VectorUnit;

namespace detail {

/// The two builds of the functional lane pass: execute `prog` in order on
/// `vu`'s registers and count each instruction in its stats. The simulator
/// picks one build per process (host_has_avx2(), once at static init);
/// tests call each directly to check both against the reference model.
void lane_pass_portable(VectorUnit& vu, std::span<const VInsn> prog);
/// Requires host_has_avx2(); the portable build on non-x86 hosts.
void lane_pass_avx2(VectorUnit& vu, std::span<const VInsn> prog);

/// CPUID leaf 7 reports AVX2 and the OS saves YMM state (OSXSAVE, XGETBV).
/// Always false on non-x86 or non-GNU builds.
bool host_has_avx2();

}  // namespace detail

class VectorUnit {
 public:
  VectorUnit(const VpuConfig& cfg, unsigned id, LineStorage& storage)
      : cfg_(cfg), id_(id), storage_(&storage) {}

  unsigned id() const { return id_; }
  const VpuConfig& config() const { return cfg_; }

  std::span<std::uint8_t> vreg(unsigned idx) { return storage_->vreg(id_, idx); }
  std::span<const std::uint8_t> vreg(unsigned idx) const {
    return storage_->vreg(id_, idx);
  }

  /// Functionally execute one instruction (no timing).
  void execute(const VInsn& insn);

  /// Execute a micro-program starting at `start`: the eCPU issues one
  /// instruction every `dispatch_gap` cycles into an `issue_queue`-deep
  /// queue, so dispatch overlaps execution for long vectors but dominates
  /// for short ones. Returns the completion time. Functional effects are
  /// applied immediately (see DESIGN.md on event-atomic kernel phases), in
  /// one pass over the program before the timing loop. An invalid
  /// instruction throws with every earlier one executed and counted.
  Cycle run_program(std::span<const VInsn> prog, Cycle start,
                    unsigned dispatch_gap);

  const sim::VpuStats& stats() const { return stats_; }
  sim::VpuStats& stats() { return stats_; }

 private:
  friend void detail::lane_pass_portable(VectorUnit&, std::span<const VInsn>);
  friend void detail::lane_pass_avx2(VectorUnit&, std::span<const VInsn>);

  /// The lane pass both builds inline.
  inline void functional_pass(std::span<const VInsn> prog);

  VpuConfig cfg_;
  unsigned id_;
  LineStorage* storage_;
  sim::VpuStats stats_;
  // Reused hot-path scratch, each sized once at first use: two VLEN source
  // snapshots (taken only when a source register aliases vd) and the ring
  // of the last `issue_queue` completion times in run_program's
  // issue-queue model. A unit that never runs a program allocates neither.
  std::vector<std::uint8_t> snap1_, snap2_;
  std::vector<Cycle> complete_;
};

}  // namespace arcane::vpu

#endif  // ARCANE_VPU_VECTOR_UNIT_HPP_
