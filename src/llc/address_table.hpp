// Address Table (AT) — paper §III-A3.
//
// Tracks the memory ranges of kernel source and destination operands while
// kernels are pending, so the controller can stall exactly the host
// accesses that would violate ordering:
//   * WAR: host stores to a *source* range stall until operand allocation
//     into the VPU completes.
//   * RAW/WAW: any host access to a *destination* range stalls until the
//     kernel write-back completes.
// Entries carry a `free_at` time once the release instant is known; until
// then the host drains simulator events to make progress (see DESIGN.md).
#ifndef ARCANE_LLC_ADDRESS_TABLE_HPP_
#define ARCANE_LLC_ADDRESS_TABLE_HPP_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace arcane::llc {

inline constexpr Cycle kUnknownTime = std::numeric_limits<Cycle>::max();

struct AtEntry {
  Addr lo = 0, hi = 0;  // [lo, hi)
  bool is_dest = false;
  bool active = false;
  Cycle free_at = kUnknownTime;
  std::uint64_t kernel_uid = 0;
};

class AddressTable {
 public:
  explicit AddressTable(unsigned capacity = 64) : entries_(capacity) {}

  /// Register a range; returns the entry id. Throws when the (statically
  /// sized, paper §IV-B) table is full.
  unsigned register_range(Addr lo, Addr hi, bool is_dest,
                          std::uint64_t kernel_uid) {
    ARCANE_CHECK(lo < hi, "empty AT range");
    for (unsigned i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].active) {
        entries_[i] = AtEntry{lo, hi, is_dest, true, kUnknownTime, kernel_uid};
        ++active_count_;
        return i;
      }
    }
    throw Error("address table full");
  }

  void set_free_time(unsigned idx, Cycle when) {
    ARCANE_ASSERT(idx < entries_.size() && entries_[idx].active,
                  "set_free_time on inactive AT entry " << idx);
    entries_[idx].free_at = when;
  }

  void release(unsigned idx) {
    ARCANE_ASSERT(idx < entries_.size() && entries_[idx].active,
                  "release of inactive AT entry " << idx);
    entries_[idx].active = false;
    --active_count_;
  }

  bool any_active() const { return active_count_ > 0; }
  const AtEntry& entry(unsigned idx) const { return entries_[idx]; }

  /// Entry blocking a host access, or nullptr. Reads of sources are legal;
  /// everything overlapping an active destination blocks.
  const AtEntry* blocking(Addr addr, unsigned len, bool is_write) const {
    if (active_count_ == 0) return nullptr;
    const Addr end = addr + len;
    for (const AtEntry& e : entries_) {
      if (!e.active) continue;
      if (addr < e.hi && e.lo < end) {
        if (e.is_dest || is_write) return &e;
      }
    }
    return nullptr;
  }

  /// True when any active entry overlaps [addr, addr+len).
  bool overlaps(Addr addr, unsigned len) const {
    if (active_count_ == 0) return false;
    const Addr end = addr + len;
    for (const AtEntry& e : entries_) {
      if (e.active && addr < e.hi && e.lo < end) return true;
    }
    return false;
  }

 private:
  std::vector<AtEntry> entries_;
  unsigned active_count_ = 0;
};

}  // namespace arcane::llc

#endif  // ARCANE_LLC_ADDRESS_TABLE_HPP_
