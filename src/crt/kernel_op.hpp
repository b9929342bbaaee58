// C-RT kernel-operation types: the decoded form of an offloaded xmnmc
// instruction, and the execution Plan a kernel planner produces.
//
// A Plan is a set of *chains* (one per VPU in multi-instance mode, §V-C),
// each a sequence of *tiles*. A tile bundles the 2D-DMA loads that bring
// operand rows into vector registers, the vector micro-program that computes
// on them, and the 2D-DMA stores that write results back to memory through
// the cache. The kernel's Planner builds tiles lazily, one at a time into a
// Tile the executor reuses, so walking a kernel neither holds every tile in
// memory nor allocates per tile. Each tile's micro-program is named by a
// ProgramKey and emitted only when the executor has not prepared it yet.
#ifndef ARCANE_CRT_KERNEL_OP_HPP_
#define ARCANE_CRT_KERNEL_OP_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "isa/xmnmc.hpp"
#include "vpu/program_cache.hpp"
#include "vpu/vinsn.hpp"

namespace arcane::crt {

/// A matrix operand snapshot taken at decode time. Snapshotting implements
/// the hazard checker's logical-matrix *renaming* (paper §IV-B1): a later
/// xmr may rebind the logical register without disturbing in-flight kernels.
struct Operand {
  Addr addr = 0;
  MatShape shape{};
  bool valid = false;

  /// Bytes the operand spans in memory (0 when unused).
  std::uint32_t footprint(ElemType et) const {
    return valid ? mat_footprint_bytes(shape, et) : 0;
  }
};

/// One 2D-DMA transfer between memory and a VPU register file: row r of the
/// memory region maps to vector register (first_vreg + r), at byte offset
/// `vreg_offset` within the register.
struct DmaXfer {
  Addr mem_addr = 0;              // base of row 0 in memory
  std::uint32_t rows = 0;
  std::uint32_t row_bytes = 0;    // payload bytes per row
  std::uint32_t mem_stride = 0;   // row pitch in memory (bytes)
  std::uint8_t first_vreg = 0;
  std::uint8_t vreg_step = 1;     // vreg distance between consecutive rows
  std::uint32_t vreg_offset = 0;  // byte offset inside each register
  std::uint32_t vreg_offset_step = 0;  // offset advance per row (packing)
};

/// The 2D-DMA transfers of one tile; its micro-program is named by the
/// ProgramKey its planner returns and emitted only when the executor does
/// not hold it prepared.
struct Tile {
  std::vector<DmaXfer> loads;
  std::vector<DmaXfer> stores;

  /// Empty both lists, keeping their capacity for the next tile.
  void clear() {
    loads.clear();
    stores.clear();
  }
};

class Planner;
struct KernelOp;

/// A planned kernel: flat and heap-free, so planning, copying and retiring
/// one allocates nothing. Chain c runs tile_count[c] tiles; the planner
/// builds each from the plan's parameter block when the executor reaches
/// it.
struct Plan {
  /// Bytes of the planner's parameter block.
  static constexpr std::size_t kParamBytes = 96;

  const Planner* planner = nullptr;
  unsigned chain_count = 0;
  std::array<unsigned, kMaxVpus> tile_count{};
  /// Vector registers [0, vregs_claimed) of each chain's VPU are claimed
  /// busy for the chain's life.
  unsigned vregs_claimed = 0;
  Addr dest_lo = 0, dest_hi = 0;  // destination range for the AT
  const char* error = nullptr;    // set => decoder rejects the offload

  bool ok() const { return error == nullptr; }
  static Plan fail(const char* why) {
    Plan p;
    p.error = why;
    return p;
  }

  /// Store the planner's parameters (any trivially copyable struct that
  /// fits) and read them back.
  template <typename P>
  void set_params(const P& p) {
    static_assert(std::is_trivially_copyable_v<P>);
    static_assert(sizeof(P) <= kParamBytes && alignof(P) <= 8);
    ::new (static_cast<void*>(params_.data())) P(p);
  }
  template <typename P>
  const P& params() const {
    return *std::launder(reinterpret_cast<const P*>(params_.data()));
  }

 private:
  alignas(8) std::array<std::byte, kParamBytes> params_{};
};

/// The kernel code the C-RT runs for one func5 (paper §IV-B): it validates
/// and plans an op, then builds each tile's transfers and, on request, its
/// micro-program. All three are pure functions of their arguments: a retry
/// reuses its plan, an elided write-back rebuilds a tile, and any tile may
/// be built again.
class Planner {
 public:
  virtual ~Planner() = default;

  /// The plan of `op` (planner = this, chain_count >= 1), or
  /// Plan::fail(reason) when its operand shapes are rejected.
  virtual Plan plan(const KernelOp& op, const SystemConfig& cfg) const = 0;

  /// Append the loads and stores of tile `i` of chain `chain` to `out`
  /// (which arrives empty) and return the shape its micro-program depends
  /// on. The executor adds the kernel's func5 and element type to form the
  /// ProgramKey; tiles of equal keys must emit equal programs.
  virtual vpu::ProgramKey::Shape tile(const Plan& plan, unsigned chain,
                                      unsigned i, Tile& out) const = 0;

  /// Append the micro-program of tile `i` of chain `chain` to `prog`.
  virtual void program(const Plan& plan, unsigned chain, unsigned i,
                       std::vector<vpu::VInsn>& prog) const = 0;
};

/// A fully decoded, renamed and planned kernel operation, as held in the
/// statically allocated kernel queue.
struct KernelOp {
  std::uint64_t uid = 0;
  std::uint8_t func5 = 0;
  ElemType et = ElemType::kWord;
  isa::xmnmc::XmkFields f{};
  Operand md, ms1, ms2, ms3;

  /// AT ids of the source ranges registered at decode: at most one per
  /// source operand (ms1..ms3), so a fixed array holds them.
  std::array<unsigned, 3> src_at{};
  std::uint8_t src_at_count = 0;
  int dest_at_entry = -1;

  std::span<const unsigned> src_at_entries() const {
    return {src_at.data(), src_at_count};
  }
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_KERNEL_OP_HPP_
