#include "vpu/program_cache.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace arcane::vpu {
namespace {

// VInsn's members as three padding-free byte ranges: op..vs2, et, and
// vl..scalar. Bytes 5-7 are padding and are never read.
static_assert(offsetof(VInsn, vd) == 1 && offsetof(VInsn, vs1) == 2 &&
              offsetof(VInsn, vs2) == 3 && offsetof(VInsn, et) == 4 &&
              offsetof(VInsn, vl) == 8 && offsetof(VInsn, scalar) == 12 &&
              sizeof(VInsn) == 16);

// Member-wise equality of two instruction lists of one length, compared
// one padding-free range at a time.
bool same_insns(const VInsn* a, const VInsn* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto* x = reinterpret_cast<const unsigned char*>(a + i);
    const auto* y = reinterpret_cast<const unsigned char*>(b + i);
    std::uint32_t x0, y0;
    std::uint64_t x1, y1;
    std::memcpy(&x0, x, 4);
    std::memcpy(&y0, y, 4);
    std::memcpy(&x1, x + 8, 8);
    std::memcpy(&y1, y + 8, 8);
    if (((x0 ^ y0) | (x1 ^ y1) | static_cast<unsigned>(x[4] ^ y[4])) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t ProgramCache::acquire(std::span<const VInsn> src,
                                  const VpuConfig& cfg, unsigned dispatch_gap,
                                  bool pin, std::uint64_t& prepared) {
  std::size_t idx = 0;
  while (idx < entries_.size()) {
    const Entry& e = entries_[idx];
    if (e.src.size() == src.size() && e.gap == dispatch_gap &&
        e.cfg == cfg && same_insns(src.data(), e.src.data(), src.size())) {
      break;
    }
    ++idx;
  }
  if (idx == entries_.size()) {
    if (src.size() > room_) {
      room_ = src.size();
      for (Entry& e : entries_) {
        e.src.reserve(room_);
        e.prog.reserve(room_);
      }
    }
    idx = victim();
    if (idx == entries_.size()) {
      if (entries_.empty()) entries_.reserve(kCapacity);
      entries_.emplace_back();
      entries_.back().src.reserve(room_);
      entries_.back().prog.reserve(room_);
    }
    Entry& e = entries_[idx];
    e.src.assign(src.begin(), src.end());
    e.cfg = cfg;
    e.gap = dispatch_gap;
    e.prog.prepare(src, cfg, dispatch_gap);
    ++prepared;
  }
  Entry& e = entries_[idx];
  e.last_use = ++uses_;
  if (pin && !e.pinned) {
    e.pinned = true;
    ++pinned_;
  }
  return idx;
}

void ProgramCache::unpin_all() {
  for (Entry& e : entries_) e.pinned = false;
  pinned_ = 0;
}

// The least recently used unpinned entry once the cache is full, else
// entries_.size(): a new entry.
std::size_t ProgramCache::victim() {
  if (entries_.size() < kCapacity || pinned_ == entries_.size()) {
    return entries_.size();
  }
  std::size_t best = entries_.size();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!e.pinned &&
        (best == entries_.size() || e.last_use < entries_[best].last_use)) {
      best = i;
    }
  }
  return best;
}

}  // namespace arcane::vpu
