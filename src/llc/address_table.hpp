// Address Table (AT) — paper §III-A3.
//
// Tracks the memory ranges of kernel source and destination operands while
// kernels are pending, so the controller can stall exactly the host
// accesses that would violate ordering:
//   * WAR: host stores to a *source* range stall until operand allocation
//     into the VPU completes.
//   * RAW/WAW: any host access to a *destination* range stalls until the
//     kernel write-back completes.
// A blocked host access executes pending kernel events until the entry is
// released (Llc::resolve_stalls).
#ifndef ARCANE_LLC_ADDRESS_TABLE_HPP_
#define ARCANE_LLC_ADDRESS_TABLE_HPP_

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace arcane::llc {

struct AtEntry {
  Addr lo = 0, hi = 0;  // [lo, hi)
  bool is_dest = false;
  bool active = false;
};

class AddressTable {
 public:
  explicit AddressTable(unsigned capacity = 64) : entries_(capacity) {}

  /// Register a range; returns the entry id. Throws when the (statically
  /// sized, paper §IV-B) table is full.
  unsigned register_range(Addr lo, Addr hi, bool is_dest) {
    ARCANE_CHECK(lo < hi, "empty AT range");
    for (unsigned i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].active) {
        entries_[i] = AtEntry{lo, hi, is_dest, true};
        ++active_count_;
        return i;
      }
    }
    throw Error("address table full");
  }

  void release(unsigned idx) {
    ARCANE_ASSERT(idx < entries_.size() && entries_[idx].active,
                  "release of inactive AT entry " << idx);
    entries_[idx].active = false;
    --active_count_;
  }

  bool any_active() const { return active_count_ > 0; }

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

 private:
  std::vector<AtEntry> entries_;
  unsigned active_count_ = 0;
};

}  // namespace arcane::llc

#endif  // ARCANE_LLC_ADDRESS_TABLE_HPP_
