// Host instruction memory: 4 banks x 32 KiB in the paper's platform (§V-A),
// modeled as a flat single-cycle store (the CV32E40X prefetcher hides bank
// access latency for sequential code).
#ifndef ARCANE_MEM_IMEM_HPP_
#define ARCANE_MEM_IMEM_HPP_

#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/types.hpp"

namespace arcane::mem {

class InstructionMemory {
 public:
  InstructionMemory(Addr base, std::uint32_t size_bytes)
      : base_(base), data_(size_bytes, 0) {}

  Addr base() const { return base_; }
  std::uint32_t size() const { return static_cast<std::uint32_t>(data_.size()); }

  void load(Addr addr, const std::vector<std::uint32_t>& words) {
    ARCANE_CHECK(addr % 4 == 0, "program base must be word aligned");
    ARCANE_CHECK(addr >= base_ && addr + words.size() * 4 <= base_ + size(),
                 "program does not fit in instruction memory");
    std::memcpy(data_.data() + (addr - base_), words.data(),
                words.size() * 4);
  }

  bool contains(Addr addr, std::uint32_t len) const {
    return range_within(addr, len, base_, size());
  }

  /// Fetch 32 bits at a 16-bit aligned pc (RVC allows halfword alignment).
  std::uint32_t fetch(Addr pc) const {
    ARCANE_CHECK(pc % 2 == 0 && contains(pc, 2),
                 "instruction fetch fault at 0x" << std::hex << pc);
    std::uint32_t w = 0;
    const std::uint32_t avail = (base_ + size()) - pc;
    std::memcpy(&w, data_.data() + (pc - base_), avail >= 4 ? 4 : 2);
    return w;
  }

 private:
  Addr base_;
  std::vector<std::uint8_t> data_;
};

}  // namespace arcane::mem

#endif  // ARCANE_MEM_IMEM_HPP_
