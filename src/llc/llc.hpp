// The ARCANE smart last-level cache controller (paper §III-A).
//
// Normal mode: fully associative, write-back + write-allocate cache with
// single-cycle hits, DMA-serviced misses and a pluggable replacement
// strategy (replacement.hpp: the paper's counter-based approximate LRU,
// true LRU, random, and the adaptive CLOCK/LRU-K/ARC family).
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

#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
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
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "vpu/line_storage.hpp"

namespace arcane::llc {

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

  // --------------------- controller lock (allocator) -----------------
  void lock_until(Cycle t);
  Cycle locked_until() const { return locked_until_; }

  // ------------------------- compute mode ----------------------------
  /// Claim the line backing (vpu, vreg) for kernel `uid`: evicts cached
  /// content (writing back dirty data functionally) and marks it busy.
  /// Returns the eviction transfer cost for the caller's timing.
  dma::TransferCost claim_line(unsigned vpu, unsigned vreg, std::uint64_t uid);
  /// Free every line owned by kernel `uid` (post write-back).
  void release_kernel_lines(std::uint64_t uid);
  bool line_is_busy(unsigned vpu, unsigned vreg) const;
  unsigned dirty_lines_in_vpu(unsigned vpu) const;
  unsigned busy_lines_in_vpu(unsigned vpu) const;

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

  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }
  /// Bind this controller's CacheStats fields as `llc.*` registry views.
  void register_metrics(telemetry::Registry& reg);

  /// Invoked on every host access *before* hazard resolution (used by the
  /// C-RT to invalidate or lazily materialize forwarded/resident kernel
  /// results kept in VPU registers).
  std::function<void(Addr, unsigned, bool is_write)> on_host_access;

 private:
  Addr line_base(Addr addr) const { return addr & ~(line_bytes_ - 1); }
  int lookup(Addr base) const;
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
  std::vector<Line> lines_;
  std::unordered_map<Addr, unsigned> tag_to_line_;
  /// 1-entry MRU lookup cache. Self-validating: the hit predicate (tag
  /// matches AND the line is Clean/Dirty) is exactly the invariant under
  /// which tag_to_line_ holds the entry, so eviction/claiming needs no
  /// explicit invalidation here. Streaming kernels hit it on nearly every
  /// sequential host access, skipping the hash probe.
  mutable unsigned mru_idx_ = 0;
  /// Replacement bookkeeping (victim ranking, recency/ghost state) lives in
  /// the strategy; the controller only reports touch/fill/evict events.
  std::unique_ptr<ReplacementStrategy> policy_;
  AddressTable at_;
  Cycle locked_until_ = 0;
  telemetry::SpanTracer* spans_ = nullptr;
  sim::CacheStats stats_;
};

}  // namespace arcane::llc

#endif  // ARCANE_LLC_LLC_HPP_
