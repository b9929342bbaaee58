// Prepared VPU micro-programs kept by the instruction lists they were
// prepared from, so a program issued again is replayed without preparing it.
#ifndef ARCANE_VPU_PROGRAM_CACHE_HPP_
#define ARCANE_VPU_PROGRAM_CACHE_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "vpu/vector_unit.hpp"
#include "vpu/vinsn.hpp"

namespace arcane::vpu {

/// A bounded set of prepared programs. The key is the instruction list,
/// compared member by member as VInsn::operator== does (never the padding
/// bytes), plus the VpuConfig and the dispatch gap it was prepared for; a lookup
/// that finds an equal key replays that program, which runs exactly like a
/// fresh prepare of the list (an invalid one replays its error too).
///
/// Pinned entries stay until unpin_all(). The rest are a cache of at most
/// kCapacity entries with least-recently-used eviction; the set grows past
/// kCapacity only while every entry is pinned. An eviction prepares into
/// the victim's buffers, and every entry keeps room for the longest list
/// seen so far, so a warm cache allocates nothing.
class ProgramCache {
 public:
  /// Entries kept when not all of them are pinned.
  static constexpr std::size_t kCapacity = 16;

  /// Index of the entry holding `src` prepared for units of `cfg`,
  /// dispatched one instruction every `dispatch_gap` cycles: an equal
  /// entry, else `src` prepared now into a new or recycled entry, which
  /// adds one to `prepared`. With `pin` the entry is pinned. A pinned
  /// entry keeps its program; another may be recycled by the next miss.
  std::size_t acquire(std::span<const VInsn> src, const VpuConfig& cfg,
                      unsigned dispatch_gap, bool pin,
                      std::uint64_t& prepared);
  const Program& program(std::size_t entry) const {
    return entries_[entry].prog;
  }
  void unpin_all();

 private:
  struct Entry {
    std::vector<VInsn> src;
    VpuConfig cfg;
    unsigned gap = 0;
    Program prog;
    std::uint64_t last_use = 0;
    bool pinned = false;
  };
  std::size_t victim();

  std::vector<Entry> entries_;
  std::uint64_t uses_ = 0;
  std::size_t pinned_ = 0;
  std::size_t room_ = 0;  // instructions every entry has room for
};

}  // namespace arcane::vpu

#endif  // ARCANE_VPU_PROGRAM_CACHE_HPP_
