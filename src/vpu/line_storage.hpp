// Shared storage backing both the LLC data array and the VPU vector
// register files — in ARCANE they are the *same* SRAM macros: the cache is
// organised as (num_vpus x num_vregs) lines of VLEN bytes, and line
// (vpu*num_vregs + vreg) is VPU `vpu`'s vector register `vreg` (§III-A1).
#ifndef ARCANE_VPU_LINE_STORAGE_HPP_
#define ARCANE_VPU_LINE_STORAGE_HPP_

#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"

namespace arcane::vpu {

class LineStorage {
 public:
  /// Zero bytes past the last line that the VPU lane pass may read but never
  /// writes: a `vmacc.es` sweep loads whole 64-byte blocks, so the last
  /// block of a register can reach up to 63 bytes past the register's end.
  static constexpr std::size_t kReadPad = 64;

  explicit LineStorage(const LlcConfig& cfg)
      : num_lines_(cfg.num_lines()),
        line_bytes_(cfg.line_bytes()),
        vregs_per_vpu_(cfg.vpu.num_vregs),
        data_(static_cast<std::size_t>(num_lines_) * line_bytes_ + kReadPad,
              0) {}

  unsigned num_lines() const { return num_lines_; }
  unsigned line_bytes() const { return line_bytes_; }

  std::span<std::uint8_t> line(unsigned idx) {
    check_line(idx);
    return {data_.data() + static_cast<std::size_t>(idx) * line_bytes_,
            line_bytes_};
  }
  std::span<const std::uint8_t> line(unsigned idx) const {
    check_line(idx);
    return {data_.data() + static_cast<std::size_t>(idx) * line_bytes_,
            line_bytes_};
  }

  unsigned line_of(unsigned vpu, unsigned vreg) const {
    if (vreg >= vregs_per_vpu_) [[unlikely]] reject_vreg(vreg);
    return vpu * vregs_per_vpu_ + vreg;
  }

  std::span<std::uint8_t> vreg(unsigned vpu, unsigned vreg_idx) {
    return line(line_of(vpu, vreg_idx));
  }
  std::span<const std::uint8_t> vreg(unsigned vpu, unsigned vreg_idx) const {
    return line(line_of(vpu, vreg_idx));
  }

 private:
  // The assertion messages are built out of line, so line() stays small
  // enough to inline into the LLC host port's hit path, and line_of()
  // leaves no message-building cleanup in its callers (the VPU lane pass
  // among them).
  void check_line(unsigned idx) const {
    if (idx >= num_lines_) [[unlikely]] reject_line(idx);
  }
  [[gnu::noinline]] void reject_line(unsigned idx) const {
    ARCANE_ASSERT(idx < num_lines_, "line index " << idx << " out of range");
  }
  [[gnu::noinline]] void reject_vreg(unsigned vreg) const {
    ARCANE_ASSERT(vreg < vregs_per_vpu_, "vreg " << vreg << " out of range");
  }

  unsigned num_lines_;
  unsigned line_bytes_;
  unsigned vregs_per_vpu_;
  std::vector<std::uint8_t> data_;
};

}  // namespace arcane::vpu

#endif  // ARCANE_VPU_LINE_STORAGE_HPP_
