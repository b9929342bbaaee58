// The platform's 2D DMA engine (X-HEEP style, paper §III-A4).
//
// A single engine is shared by cache refills/writebacks and the Matrix
// Allocator; requests serialize on a busy-until horizon. Data movement
// itself is performed by the LLC controller (through-cache semantics); this
// class owns the *timing* model and utilization accounting.
#ifndef ARCANE_DMA_DMA_HPP_
#define ARCANE_DMA_DMA_HPP_

#include <algorithm>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/backend.hpp"
#include "sim/stats.hpp"
#include "telemetry/span.hpp"

namespace arcane::dma {

/// Byte attribution of one transfer, produced by the LLC data-path helpers.
struct TransferCost {
  std::uint64_t ext_bytes = 0;    // moved over the external memory bus
  std::uint64_t cache_bytes = 0;  // forwarded from / into cache lines
  std::uint32_t ext_bursts = 0;   // distinct external row bursts
  std::uint32_t int_segments = 0; // distinct on-chip row segments

  TransferCost& operator+=(const TransferCost& o) {
    ext_bytes += o.ext_bytes;
    cache_bytes += o.cache_bytes;
    ext_bursts += o.ext_bursts;
    int_segments += o.int_segments;
    return *this;
  }
};

class DmaEngine {
 public:
  explicit DmaEngine(const MemConfig& cfg) : cfg_(cfg) {}

  /// Price external bursts with the system's memory backend instead of the
  /// raw PSRAM config fields (System wires this up; without a backend the
  /// legacy PSRAM formula applies, which is timing-identical).
  void set_backend(mem::MemBackend* backend) { backend_ = backend; }

  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }

  /// Cycles one descriptor takes to move the given bytes: setup, external
  /// bursts (per-burst access overhead per row, then ext bus width) and
  /// on-chip segments (wide port into the VPU banks). Descriptors only
  /// carry burst counts, not addresses, so the backend's address-blind
  /// per-burst overhead is used here.
  Cycle descriptor_cycles(const TransferCost& c) const {
    const Cycle per_burst =
        backend_ != nullptr ? backend_->burst_overhead() : cfg_.ext_fixed_latency;
    Cycle cycles = cfg_.dma_setup_cycles;
    cycles += static_cast<Cycle>(c.ext_bursts) * per_burst +
              ceil_div<std::uint64_t>(c.ext_bytes, cfg_.ext_bytes_per_cycle);
    cycles += static_cast<Cycle>(c.int_segments) * cfg_.int_segment_cycles +
              ceil_div<std::uint64_t>(c.cache_bytes, cfg_.int_bytes_per_cycle);
    return cycles;
  }

  /// The external-backend share of descriptor_cycles(c): burst overheads
  /// plus external bus beats, excluding descriptor setup and the on-chip
  /// segments. The cycle-accounting layer uses this to split an allocation
  /// transfer into its backend-refill and on-chip components
  /// (sim::StallBucket::kMemRefill vs kAlloc).
  Cycle external_cycles(const TransferCost& c) const {
    const Cycle per_burst =
        backend_ != nullptr ? backend_->burst_overhead() : cfg_.ext_fixed_latency;
    return static_cast<Cycle>(c.ext_bursts) * per_burst +
           ceil_div<std::uint64_t>(c.ext_bytes, cfg_.ext_bytes_per_cycle);
  }

  /// Reserve the engine no earlier than `earliest` for `duration` cycles.
  /// Returns the actual start time (requests serialize FIFO).
  Cycle reserve(Cycle earliest, Cycle duration) {
    const Cycle start = std::max(earliest, free_at_);
    free_at_ = start + duration;
    stats_.busy_cycles += duration;
    if (spans_ != nullptr && duration != 0) {
      spans_->span(telemetry::kTrackDma, "dma.xfer", start, start + duration);
    }
    return start;
  }

  void note_descriptor(const TransferCost& c, bool to_vpu) {
    ++stats_.descriptors;
    if (backend_ != nullptr && c.ext_bytes > 0) {
      backend_->note_external_transfer(c.ext_bursts, c.ext_bytes);
    }
    if (to_vpu) {
      stats_.bytes_from_external += c.ext_bytes;
      stats_.bytes_from_cache += c.cache_bytes;
    } else {
      stats_.bytes_to_external += c.ext_bytes;
      stats_.bytes_to_cache += c.cache_bytes;
    }
  }

  Cycle free_at() const { return free_at_; }
  const sim::DmaStats& stats() const { return stats_; }

 private:
  MemConfig cfg_;
  mem::MemBackend* backend_ = nullptr;
  telemetry::SpanTracer* spans_ = nullptr;
  Cycle free_at_ = 0;
  sim::DmaStats stats_;
};

}  // namespace arcane::dma

#endif  // ARCANE_DMA_DMA_HPP_
