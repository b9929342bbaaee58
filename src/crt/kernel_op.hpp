// C-RT kernel-operation types: the decoded form of an offloaded xmnmc
// instruction, and the execution Plan a kernel planner produces.
//
// A Plan is a set of *chains* (one per VPU in multi-instance mode, §V-C),
// each a sequence of *tiles*. A tile bundles the 2D-DMA loads that bring
// operand rows into vector registers, the vector micro-program that computes
// on them, and the 2D-DMA stores that write results back to memory through
// the cache. Tiles are generated lazily (make_tile), one at a time into a
// Tile the executor reuses, so walking a kernel neither holds every tile in
// memory nor allocates per tile. A tile whose program repeats an earlier
// tile's names that tile (Tile::repeats) instead of emitting it again.
#ifndef ARCANE_CRT_KERNEL_OP_HPP_
#define ARCANE_CRT_KERNEL_OP_HPP_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/xmnmc.hpp"
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

struct Tile {
  /// `repeats` of a tile whose program no later tile of the chain repeats.
  static constexpr unsigned kOnce = ~0u;

  std::vector<DmaXfer> loads;
  std::vector<vpu::VInsn> prog;
  std::vector<DmaXfer> stores;
  /// The tile of the same chain whose micro-program tile i runs, so an
  /// executor prepares each distinct program once (vpu::Program) and
  /// replays it. Tile i sets one of:
  ///  * kOnce: `prog` holds the program and no later tile repeats it;
  ///  * i: `prog` holds the program and later tiles may repeat it;
  ///  * r < i: `prog` stays empty and the tile runs tile r's program. Tile
  ///    r must have set repeats = r and emitted exactly the program tile i
  ///    would emit; only the loads and stores differ.
  unsigned repeats = kOnce;

  /// Empty every list and reset `repeats`, keeping the capacity for the
  /// next tile.
  void clear() {
    loads.clear();
    prog.clear();
    stores.clear();
    repeats = kOnce;
  }
};

/// A sequence of tiles executing on one VPU.
struct Chain {
  unsigned tile_count = 0;
  /// make_tile(i, out) writes tile i into `out`. The contract: the planner
  /// must clear `out` (Tile::clear) and then refill it. `out` is a Tile the
  /// executor owns per chain slot and reuses across tiles and kernels, so it
  /// arrives holding an earlier tile, possibly of another kernel, and its
  /// capacity is what keeps tile stepping allocation-free. Tile i must be a
  /// pure function of i and the plan: a retry or an elided write-back
  /// rebuilds it.
  std::function<void(unsigned, Tile&)> make_tile;
  /// Vector registers [0, vregs_claimed) are claimed busy for the chain's
  /// life.
  unsigned vregs_claimed = 0;
};

struct Plan {
  std::vector<Chain> chains;
  Addr dest_lo = 0, dest_hi = 0;  // destination range for the AT
  std::string error;              // non-empty => decoder rejects the offload

  bool ok() const { return error.empty(); }
  static Plan fail(std::string why) {
    Plan p;
    p.error = std::move(why);
    return p;
  }
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
