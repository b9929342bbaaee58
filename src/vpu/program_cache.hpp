// Prepared VPU micro-programs kept by the names their planners give them, so
// a program issued again is replayed without emitting or preparing it.
#ifndef ARCANE_VPU_PROGRAM_CACHE_HPP_
#define ARCANE_VPU_PROGRAM_CACHE_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "vpu/vector_unit.hpp"
#include "vpu/vinsn.hpp"

namespace arcane::vpu {

/// The name of a micro-program: the func5 of the kernel whose planner emits
/// it, its element type, and the shape words the planner says the program
/// depends on (ring slot, row count, vl, filter size, ...; unused words are
/// 0). Two tiles with equal keys must emit equal instruction lists.
struct ProgramKey {
  static constexpr std::size_t kShapeWords = 7;
  using Shape = std::array<std::uint32_t, kShapeWords>;

  std::uint8_t kernel = 0;
  ElemType et = ElemType::kWord;
  Shape shape{};

  bool operator==(const ProgramKey&) const = default;
};

/// A bounded set of prepared programs, looked up by ProgramKey plus the
/// VpuConfig and the dispatch gap they were prepared for. A miss asks the
/// caller to emit the instruction list and prepares it; a hit replays the
/// entry, which runs exactly like a fresh prepare of the list (an invalid
/// one replays its error too).
///
/// At most kCapacity entries, evicted least recently used first. Each
/// entry keeps room for the longest list seen so far, so an eviction
/// prepares into the victim's buffers and a warm cache allocates nothing.
///
/// With checking on (tests), a hit emits the list as well and asserts that
/// it equals the one the entry was prepared from: a key that leaves out a
/// field its program depends on fails there instead of replaying the wrong
/// program.
class ProgramCache {
 public:
  /// Entries kept. It holds every ring rotation of a conv chain on the
  /// paper's 32-register VPUs, plus the short last tile.
  static constexpr std::size_t kCapacity = 32;

  /// The program named `key`, prepared for units of `cfg` dispatched one
  /// instruction every `dispatch_gap` cycles. On a miss `emit(list)`
  /// appends the instructions to an empty `list`, they are prepared into a
  /// new or recycled entry and `prepared` grows by one.
  template <typename Emit>
  const Program& acquire(const ProgramKey& key, const VpuConfig& cfg,
                         unsigned dispatch_gap, Emit&& emit,
                         std::uint64_t& prepared) {
    Entry* e = find(key, cfg, dispatch_gap);
    if (e == nullptr || checked_) {
      emitted_.clear();
      emit(emitted_);
    }
    if (e == nullptr) {
      e = &prepare(key, cfg, dispatch_gap);
      ++prepared;
    } else if (checked_) {
      check(*e);
    }
    e->last_use = ++uses_;
    return e->prog;
  }

  /// Turn checking of every hit on or off (tests only).
  void set_checked(bool on) { checked_ = on; }

 private:
  struct Entry {
    ProgramKey key;
    VpuConfig cfg;
    unsigned gap = 0;
    std::vector<VInsn> src;  // the list the program was prepared from
    Program prog;
    std::uint64_t last_use = 0;
  };
  Entry* find(const ProgramKey& key, const VpuConfig& cfg, unsigned gap);
  /// Prepare emitted_ into a new or the least recently used entry.
  Entry& prepare(const ProgramKey& key, const VpuConfig& cfg, unsigned gap);
  void check(const Entry& e) const;

  std::vector<Entry> entries_;
  std::vector<VInsn> emitted_;  // the list a miss (or a checked hit) emits
  std::uint64_t uses_ = 0;
  std::size_t room_ = 0;  // instructions every entry has room for
  bool checked_ = false;
};

}  // namespace arcane::vpu

#endif  // ARCANE_VPU_PROGRAM_CACHE_HPP_
