// Pluggable timing models for the external memory behind the LLC.
//
// The functional backing store (mem::MainMemory) is backend-agnostic; a
// MemBackend only answers "how many cycles does this burst cost?". Three
// models are provided, selectable from MemConfig::backend:
//
//   * IdealSramBackend — fixed 1-cycle beats at the external bus width,
//     no per-burst penalty. An upper bound: what the kernels would gain
//     from a perfect external memory.
//   * BurstPsramBackend — the paper's X-HEEP flash/PSRAM model: a fixed
//     first-beat latency per burst, then streaming beats.
//   * DramTimingBackend — per-bank open-row tracking (row hit vs
//     precharge+activate miss), bank interleaving, and a deterministic
//     refresh tax accumulated over busy cycles.
//
// Both external-timing choke points query the backend: the LLC's
// refill/write-back bursts (address-aware, stateful) and the DMA engine's
// descriptor model (address-blind per-burst overhead — by the time a 2D
// descriptor is costed only burst counts survive, so DRAM answers with its
// conservative row-miss latency there).
#ifndef ARCANE_MEM_BACKEND_HPP_
#define ARCANE_MEM_BACKEND_HPP_

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace arcane::mem {

/// Burst-level accounting, reported per backend by benches and tests.
struct BackendStats {
  std::uint64_t bursts = 0;
  std::uint64_t bytes = 0;
  std::uint64_t row_hits = 0;        // DRAM only
  std::uint64_t row_misses = 0;      // DRAM only
  std::uint64_t refresh_stalls = 0;  // DRAM only
};

/// Deterministic external-memory degradation hook (src/fault/): while a
/// view is installed, every cost this backend quotes is scaled by
/// `multiplier_now()` (>= 1, time-varying over declared windows). The
/// default — no view — quotes nominal costs, so fault-free runs stay
/// bit-identical; when installed the scaling is applied at the quote
/// surfaces all consumers share (LLC refills, DMA descriptors, baseline
/// runners), so ARCANE and the CPU baselines pay degradation identically.
class DegradeView {
 public:
  virtual ~DegradeView() = default;
  /// Latency multiplier at the current simulated cycle (1 = nominal).
  virtual unsigned multiplier_now() const = 0;
};

class MemBackend {
 public:
  virtual ~MemBackend() = default;

  virtual MemBackendKind kind() const = 0;
  const char* name() const { return backend_name(kind()); }

  /// Cycles to transfer one burst of `bytes` starting at `addr`. Stateful
  /// for backends with history (DRAM open rows, refresh accumulation).
  virtual Cycle burst_cycles(Addr addr, std::uint32_t bytes) = 0;

  /// Address-blind per-burst overhead (cycles before streaming starts),
  /// used by the DMA descriptor model where only burst counts survive.
  virtual Cycle burst_overhead() const = 0;

  /// Install (or clear) the fault subsystem's degradation hook.
  void set_degrade(const DegradeView* view) { degrade_ = view; }

  const BackendStats& stats() const { return stats_; }

  /// Account external bursts priced off-band by the DMA descriptor model
  /// (which only carries burst counts, not addresses).
  void note_external_transfer(std::uint32_t bursts, std::uint64_t bytes) {
    stats_.bursts += bursts;
    stats_.bytes += bytes;
  }

  /// Drop timing history (open rows, refresh accumulation) and stats.
  virtual void reset() { stats_ = BackendStats{}; }

 protected:
  explicit MemBackend(const MemConfig& cfg)
      : bytes_per_cycle_(cfg.ext_bytes_per_cycle) {}

  void note_burst(std::uint32_t bytes) {
    ++stats_.bursts;
    stats_.bytes += bytes;
  }

  /// Apply the degradation multiplier to a nominal cost quote. Concrete
  /// backends compute nominal cycles with raw_stream() and wrap their
  /// final quote in scaled() exactly once (no double scaling).
  Cycle scaled(Cycle nominal) const {
    return degrade_ == nullptr ? nominal
                               : nominal * degrade_->multiplier_now();
  }
  Cycle raw_stream(std::uint64_t bytes) const {
    return ceil_div<std::uint64_t>(bytes, bytes_per_cycle_);
  }

  std::uint32_t bytes_per_cycle_;
  BackendStats stats_;
  const DegradeView* degrade_ = nullptr;
};

/// Fixed 1-cycle beats at the bus width; no first-beat penalty.
class IdealSramBackend final : public MemBackend {
 public:
  explicit IdealSramBackend(const MemConfig& cfg) : MemBackend(cfg) {}

  MemBackendKind kind() const override { return MemBackendKind::kIdealSram; }

  Cycle burst_cycles(Addr /*addr*/, std::uint32_t bytes) override {
    note_burst(bytes);
    return scaled(raw_stream(bytes));
  }

  Cycle burst_overhead() const override { return 0; }
};

/// The paper's external PSRAM: fixed first-beat latency, then streaming.
class BurstPsramBackend final : public MemBackend {
 public:
  explicit BurstPsramBackend(const MemConfig& cfg)
      : MemBackend(cfg), fixed_latency_(cfg.ext_fixed_latency) {}

  MemBackendKind kind() const override { return MemBackendKind::kBurstPsram; }

  Cycle burst_cycles(Addr /*addr*/, std::uint32_t bytes) override {
    note_burst(bytes);
    return scaled(fixed_latency_ + raw_stream(bytes));
  }

  Cycle burst_overhead() const override { return scaled(fixed_latency_); }

 private:
  Cycle fixed_latency_;
};

/// Row-buffer DRAM: each bank keeps one row open; a burst is split at row
/// boundaries and every row segment pays the hit (CAS) or miss
/// (precharge + activate + CAS) latency before streaming. A refresh stall
/// is charged deterministically once enough busy cycles accumulate.
class DramTimingBackend final : public MemBackend {
 public:
  explicit DramTimingBackend(const MemConfig& cfg)
      : MemBackend(cfg), cfg_(cfg), open_row_(cfg.dram_banks, kNoRow) {}

  MemBackendKind kind() const override { return MemBackendKind::kDramTiming; }

  Cycle burst_cycles(Addr addr, std::uint32_t bytes) override {
    note_burst(bytes);
    Cycle total = 0;
    Addr a = addr;
    std::uint32_t remaining = bytes;
    while (remaining > 0) {
      const std::uint32_t room =
          cfg_.dram_row_bytes - (a % cfg_.dram_row_bytes);
      const std::uint32_t chunk = remaining < room ? remaining : room;
      const std::uint64_t global_row = a / cfg_.dram_row_bytes;
      const unsigned bank = global_row % cfg_.dram_banks;
      const std::uint64_t row = global_row / cfg_.dram_banks;
      if (open_row_[bank] == row) {
        total += cfg_.dram_row_hit_cycles;
        ++stats_.row_hits;
      } else {
        total += cfg_.dram_row_miss_cycles;
        open_row_[bank] = row;
        ++stats_.row_misses;
      }
      total += raw_stream(chunk);
      a += chunk;
      remaining -= chunk;
    }
    // Refresh tax: every dram_refresh_interval busy cycles, the controller
    // steals dram_refresh_cycles for a refresh (deterministic, no RNG).
    // Busy time accrues at nominal cost — degradation stretches the quoted
    // latency, not the device's internal refresh clock.
    busy_accum_ += total;
    while (busy_accum_ >= cfg_.dram_refresh_interval) {
      busy_accum_ -= cfg_.dram_refresh_interval;
      total += cfg_.dram_refresh_cycles;
      ++stats_.refresh_stalls;
    }
    return scaled(total);
  }

  Cycle burst_overhead() const override {
    return scaled(cfg_.dram_row_miss_cycles);
  }

  void reset() override {
    MemBackend::reset();
    busy_accum_ = 0;
    open_row_.assign(cfg_.dram_banks, kNoRow);
  }

 private:
  static constexpr std::uint64_t kNoRow = ~0ull;

  MemConfig cfg_;
  Cycle busy_accum_ = 0;
  std::vector<std::uint64_t> open_row_;
};

inline std::unique_ptr<MemBackend> make_backend(const MemConfig& cfg) {
  switch (cfg.backend) {
    case MemBackendKind::kIdealSram:
      return std::make_unique<IdealSramBackend>(cfg);
    case MemBackendKind::kBurstPsram:
      return std::make_unique<BurstPsramBackend>(cfg);
    case MemBackendKind::kDramTiming:
      return std::make_unique<DramTimingBackend>(cfg);
  }
  throw Error("unknown external-memory backend kind");
}

/// Parse a CLI/env backend name ("ideal" / "psram" / "dram").
inline std::optional<MemBackendKind> parse_backend(std::string_view name) {
  for (MemBackendKind kind :
       {MemBackendKind::kIdealSram, MemBackendKind::kBurstPsram,
        MemBackendKind::kDramTiming}) {
    if (name == backend_name(kind)) return kind;
  }
  return std::nullopt;
}

}  // namespace arcane::mem

#endif  // ARCANE_MEM_BACKEND_HPP_
