// The ARCANE smart last-level cache controller (paper §III-A).
//
// Normal mode: fully associative, write-back + write-allocate cache with
// single-cycle hits, DMA-serviced misses and a pluggable replacement
// strategy (replacement.hpp: the paper's counter-based approximate LRU,
// random, and the adaptive CLOCK/LRU-K/ARC family).
// Compute mode: cache lines double as VPU vector registers; lines claimed
// for an in-flight kernel are "busy computing" and are excluded from
// replacement. The controller arbitrates between the host port and the
// Matrix Allocator through a lock register and the Address Table.
//
// Timing protocol: `host_access` is called with the host's local time; it
// first drains simulator events up to that time, then resolves stalls
// (lock, AT hazards, busy lines, refills) by advancing time — executing
// pending events one by one where forward progress depends on them — and
// returns the completion time. Kernel-side mutations (claim/read/write
// range) happen atomically inside allocator/writeback events; this is
// equivalent to the hardware because the allocator holds the controller
// lock for the duration of those windows (see DESIGN.md §5).
#ifndef ARCANE_LLC_LLC_HPP_
#define ARCANE_LLC_LLC_HPP_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "dma/dma.hpp"
#include "llc/address_table.hpp"
#include "llc/line.hpp"
#include "llc/replacement.hpp"
#include "mem/main_memory.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/span.hpp"
#include "vpu/line_storage.hpp"

namespace arcane::llc {

/// Observer of host-port accesses (Llc::host_observer).
class HostAccessObserver {
 public:
  virtual void on_host_access(Addr addr, unsigned len, bool is_write) = 0;

 protected:
  ~HostAccessObserver() = default;
};

class Llc {
 public:
  Llc(const SystemConfig& cfg, sim::EventQueue& events, mem::MainMemory& ext,
      dma::DmaEngine& dma, vpu::LineStorage& storage);

  // ------------------------- host slave port -------------------------
  struct HostResult {
    Cycle complete_at = 0;
    bool hit = false;
  };
  /// Aligned access of 1/2/4 bytes. Reads fill `data`, writes consume it.
  HostResult host_access(Addr addr, unsigned bytes, bool is_write,
                         void* data, Cycle now);
  /// host_port's answer when the access does not take the inline hit.
  static constexpr Cycle kNoInlineHit = ~Cycle{0};
  /// host_access(...).complete_at for the common hit, inlined into the
  /// caller (the ISS loop): the line present, the access 1-4 bytes within
  /// it, no decay due, no host observer, controller unlocked, no AT entry
  /// active and no event pending. Anything else, an access whose base lies
  /// outside the data region included (`lookup` answers -1 there), returns
  /// kNoInlineHit and changes nothing: the caller routes it (System::read
  /// and System::write), into the data region through host_access.
  [[gnu::always_inline]] Cycle host_port(Addr addr, unsigned bytes,
                                         bool is_write, void* data,
                                         Cycle now) {
    const Addr base = line_base(addr);
    const int idx = lookup(base);
    if (!fits_line(addr, bytes) || idx < 0 || decay_countdown_ == 1 ||
        host_observer != nullptr || locked_until_ > now ||
        at_.any_active() || !events_->empty()) {
      return kNoInlineHit;
    }
    --decay_countdown_;
    ++(is_write ? stats_.writes : stats_.reads);
    ++stats_.hits;
    if (ages_ != nullptr) {  // approximate LRU's touch, in place
      ages_[idx] = 255;
    } else {
      policy_->touch(static_cast<unsigned>(idx), base);
    }
    move_datum(static_cast<unsigned>(idx), addr - base, bytes, is_write, data);
    return now + cfg_.llc.hit_latency;
  }

  // --------------------- controller lock (allocator) -----------------
  void lock_until(Cycle t);

  // ------------------------- compute mode ----------------------------
  /// Claim the line backing (vpu, vreg) for kernel `uid`: evicts cached
  /// content (writing back dirty data functionally) and marks it busy.
  /// Returns the eviction transfer cost for the caller's timing.
  dma::TransferCost claim_line(unsigned vpu, unsigned vreg, std::uint64_t uid);
  /// Free the lines kernel `uid` owns (post write-back), walking only
  /// where a kernel claims them: registers [0, vregs) of each VPU in the
  /// bit mask `vpus`.
  void release_kernel_lines(std::uint64_t uid, std::uint32_t vpus,
                            unsigned vregs);
  bool line_is_busy(unsigned vpu, unsigned vreg) const;
  unsigned dirty_lines_in_vpu(unsigned vpu) const {
    return lines_in_vpu(vpu, LineState::kDirty);
  }
  unsigned busy_lines_in_vpu(unsigned vpu) const {
    return lines_in_vpu(vpu, LineState::kBusy);
  }

  // ------------------ allocator 2D-DMA data path ---------------------
  /// Read [addr, addr+out.size()) through the cache: hits are forwarded
  /// from lines, misses stream from external memory (no allocation).
  dma::TransferCost read_range(Addr addr, std::span<std::uint8_t> out);
  /// Write a kernel result range into the cache with fetch-on-write
  /// semantics (paper §III-A4); falls back to an external write when no
  /// victim line is available.
  dma::TransferCost write_range(Addr addr, std::span<const std::uint8_t> in);

  AddressTable& at() { return at_; }
  const AddressTable& at() const { return at_; }

  // --------------------------- maintenance ---------------------------
  /// Coherent (cache-merged) access for tests, loaders and goldens.
  void backdoor_read(Addr addr, void* out, std::uint32_t len);
  void backdoor_write(Addr addr, const void* in, std::uint32_t len);
  /// Write back all dirty lines (functional; used by tests).
  void flush_all();
  /// Drop every line (after flush) — returns the cache to reset state.
  void invalidate_all();

  const sim::CacheStats& stats() const { return stats_; }
  sim::CacheStats& stats() { return stats_; }
  unsigned num_lines() const { return static_cast<unsigned>(lines_.size()); }
  const Line& line(unsigned idx) const { return lines_[idx]; }
  /// Approximate-LRU age of line `idx` (0 under the adaptive strategies).
  std::uint8_t line_age(unsigned idx) const { return policy_->age(idx); }

  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }

  /// Sees host accesses before and after hazard resolution: the scheduler,
  /// while it keeps kernel results resident in VPU registers (null
  /// otherwise, so the idle port pays one pointer test).
  HostAccessObserver* host_observer = nullptr;

 private:
  Addr line_base(Addr addr) const { return addr & ~(line_bytes_ - 1); }
  /// A host access is 1-4 bytes within one line.
  bool fits_line(Addr addr, unsigned bytes) const {
    return bytes - 1 <= 3 && (addr & (line_bytes_ - 1)) + bytes <= line_bytes_;
  }
  /// host_access's check of fits_line; the assertion messages are built
  /// out of line (reject_host_access).
  void check_host_access(Addr addr, unsigned bytes) const {
    if (!fits_line(addr, bytes)) [[unlikely]] reject_host_access(addr, bytes);
  }
  [[gnu::noinline]] void reject_host_access(Addr addr, unsigned bytes) const;
  /// Moves a host datum between `data` and resident line `idx` at `off`
  /// (a write dirties the line). Fixed-width copies for 1/2/4 bytes, a
  /// general one only for the 3-byte head of a split misaligned word.
  [[gnu::always_inline]] void move_datum(unsigned idx, Addr off,
                                         unsigned bytes, bool is_write,
                                         void* data) {
    std::uint8_t* datum = storage_->line(idx).data() + off;
    void* dst = is_write ? static_cast<void*>(datum) : data;
    const void* src = is_write ? data : datum;
    switch (bytes) {
      case 1: std::memcpy(dst, src, 1); break;
      case 2: std::memcpy(dst, src, 2); break;
      case 4: std::memcpy(dst, src, 4); break;
      default: std::memcpy(dst, src, bytes); break;
    }
    if (is_write) lines_[idx].state = LineState::kDirty;
  }
  unsigned lines_in_vpu(unsigned vpu, LineState state) const;
  /// Line holding block `base`, or -1 (also outside the data region).
  int lookup(Addr base) const {
    const Addr off = base - data_base_;
    return off < data_bytes_ ? index_[off >> line_shift_] : -1;
  }
  /// Tag-index entry of block `base`, bounds-checked (not on the hit path).
  std::int16_t& index_slot(Addr base) {
    const Addr off = base - data_base_;
    ARCANE_ASSERT(off < data_bytes_,
                  "line 0x" << std::hex << base << " outside the data region");
    return index_[off >> line_shift_];
  }
  /// Pick a victim for the incoming line base among non-busy lines:
  /// recycles any Invalid line first, then delegates the replacement
  /// decision to the configured strategy; -1 when every line is busy.
  int find_victim(Addr incoming);
  /// Evict line idx (functional write-back when dirty); returns ext bytes.
  std::uint32_t evict(unsigned idx);
  /// Handle a miss at `base` at time `t`: returns refill completion time.
  Cycle refill(Addr base, Cycle t, Cycle& dma_wait);
  /// Advance `t` past the lock window / AT hazards / busy-line starvation,
  /// draining events as needed.
  Cycle resolve_stalls(Addr addr, unsigned bytes, bool is_write, Cycle t);

  SystemConfig cfg_;
  sim::EventQueue* events_;
  mem::MainMemory* ext_;
  dma::DmaEngine* dma_;
  vpu::LineStorage* storage_;

  std::uint32_t line_bytes_;
  unsigned line_shift_;
  Addr data_base_;
  std::uint32_t data_bytes_;
  std::vector<Line> lines_;
  /// Tag index: per line-sized block of the data region, the Clean/Dirty
  /// line holding it or -1 (at most 16 VPUs x 64 vregs = 1024 lines).
  std::vector<std::int16_t> index_;
  /// Host accesses left until the next ReplacementStrategy::decay().
  unsigned decay_countdown_;
  /// Replacement bookkeeping (victim ranking, recency/ghost state) lives in
  /// the strategy; the controller only reports touch/fill/evict events.
  std::unique_ptr<ReplacementStrategy> policy_;
  std::uint8_t* ages_;  // policy_->stamps(), for host_port's hit
  AddressTable at_;
  Cycle locked_until_ = 0;
  telemetry::SpanTracer* spans_ = nullptr;
  sim::CacheStats stats_;
};

}  // namespace arcane::llc

#endif  // ARCANE_LLC_LLC_HPP_
