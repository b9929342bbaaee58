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
class Program;

namespace detail {

/// One step of a prepared program: an instruction as the program has it,
/// or a folded `vslidedown.vx tmp, in, k` + `vmacc.es acc, f, tmp` pair,
/// which is the MAC reading `in` from element k on (vs2 = in, vl the
/// elements the slide brought in range, `src_off` = k in bytes).
struct Step {
  VInsn insn;
  std::uint32_t src_off = 0;  // byte offset of the vs2 read
  // On the first `vmacc.es` of a MAC run: its terms, this step and the
  // run - 1 `vmacc.es` steps after it, which the lane pass sweeps at once.
  std::uint32_t run = 1;
};

/// The two builds of the functional lane pass: run prepared, validated
/// steps in order on `vu`'s registers. The simulator picks one build per
/// process (host_has_avx2(), once at static init); tests pick each through
/// run_with to check both.
void lane_pass_portable(VectorUnit& vu, std::span<const Step> steps);
/// Requires host_has_avx2(); the portable build on non-x86 hosts.
void lane_pass_avx2(VectorUnit& vu, std::span<const Step> steps);

using LanePass = void (*)(VectorUnit&, std::span<const Step>);

/// VectorUnit::run with the given lane pass build.
Cycle run_with(VectorUnit& vu, const Program& prog, Cycle start,
               LanePass pass);

/// CPUID leaf 7 reports AVX2 and the OS saves YMM state (OSXSAVE, XGETBV).
/// Always false on non-x86 or non-GNU builds.
bool host_has_avx2();

}  // namespace detail

/// A micro-program prepared for any number of runs on units of one
/// VpuConfig: each instruction validated once, the issue-model duration
/// and the stats delta computed once, each slide that only feeds the
/// next `vmacc.es` folded into it, and each maximal run of consecutive
/// `vmacc.es` steps into one accumulator (same vd, element type and vl; in
/// a run of more than one term no source is vd) marked for one sweep.
/// Running it has the effect of running the original instructions: the
/// same register bytes, the same VpuStats and the same completion time.
/// prepare() reuses the capacity of an earlier program, so a warm Program
/// allocates nothing.
class Program {
 public:
  /// Prepare `prog`, dispatched one instruction every `dispatch_gap`
  /// cycles. An invalid instruction does not throw here: running the
  /// program executes and counts the instructions before it, then throws.
  void prepare(std::span<const VInsn> prog, const VpuConfig& cfg,
               unsigned dispatch_gap);
  /// Make room for programs of up to `insns` instructions, so preparing
  /// one allocates nothing.
  void reserve(std::size_t insns) { steps_.reserve(insns); }

  /// Instructions of the original program.
  std::size_t size() const { return size_; }
  std::span<const detail::Step> steps() const { return steps_; }

 private:
  friend Cycle detail::run_with(VectorUnit&, const Program&, Cycle,
                                detail::LanePass);

  std::vector<detail::Step> steps_;
  // What a run adds to the unit's stats (busy cycles only when the whole
  // program is valid), and its completion time minus its start time.
  sim::VpuStats delta_;
  Cycle duration_ = 0;
  std::size_t size_ = 0;
  VpuConfig cfg_;
  bool valid_ = true;
  VInsn bad_;  // the first invalid instruction, when !valid_
};

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

  /// Run a prepared micro-program starting at `start`: the eCPU issues
  /// instruction i at start + (i+1) * gap, for the program's dispatch gap,
  /// and the unit executes in order, so instruction i completes at
  /// c(i) = max(start + (i+1) * gap, c(i-1)) + latency(i): dispatch
  /// overlaps execution for long vectors but dominates for short ones.
  /// Returns the
  /// completion time. Functional effects are applied immediately (see
  /// DESIGN.md on event-atomic kernel phases), in one pass over the
  /// program. An invalid instruction throws with every earlier one
  /// executed and counted.
  Cycle run(const Program& prog, Cycle start);

  const sim::VpuStats& stats() const { return stats_; }
  sim::VpuStats& stats() { return stats_; }

 private:
  friend void detail::lane_pass_portable(VectorUnit&,
                                         std::span<const detail::Step>);
  friend void detail::lane_pass_avx2(VectorUnit&,
                                     std::span<const detail::Step>);

  /// The lane pass both builds inline, over sub-vectors of VB bytes.
  template <unsigned VB>
  inline void functional_pass(std::span<const detail::Step> steps);

  VpuConfig cfg_;
  unsigned id_;
  LineStorage* storage_;
  sim::VpuStats stats_;
  // Reused hot-path scratch, each sized once at first use: two VLEN source
  // snapshots, taken only when a source register aliases vd. A unit that
  // never runs a program allocates neither.
  std::vector<std::uint8_t> snap1_, snap2_;
};

}  // namespace arcane::vpu

#endif  // ARCANE_VPU_VECTOR_UNIT_HPP_
