// Sim-time span tracing: bounded, allocation-free-once-enabled recording of
// begin/end intervals and instant markers at simulated-cycle timestamps.
//
// A SpanEvent lives on a *track* — one per VPU instance, one per tenant,
// plus fixed tracks for the eCPU, the DMA engine and the LLC — so a dump
// exported through telemetry::TraceFile (perfetto.hpp) renders as parallel
// swimlanes in ui.perfetto.dev.
//
// Contract with the simulator: recording only *reads* simulated state.
// Every hook sits behind an `enabled()` check that compiles to one load
// and branch, so a disabled tracer is free and an enabled one cannot
// perturb simulated timing (gated by sim_golden_test and the blessed bench
// baselines). When the bounded buffer fills, *new* events are dropped and
// counted — never resized, never shifted — keeping the cost model flat.
#ifndef ARCANE_TELEMETRY_SPAN_HPP_
#define ARCANE_TELEMETRY_SPAN_HPP_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace arcane::telemetry {

// ------------------------------ tracks -------------------------------
// Stable small integers, exported as Perfetto thread ids.
constexpr std::uint32_t kTrackEcpu = 1;
constexpr std::uint32_t kTrackDma = 200;
constexpr std::uint32_t kTrackLlc = 300;
constexpr std::uint32_t kTrackFault = 400;  // fault::Injector (src/fault/)
constexpr std::uint32_t track_vpu(unsigned instance) { return 10 + instance; }
constexpr std::uint32_t track_tenant(unsigned tenant) { return 100 + tenant; }

enum class SpanKind : std::uint8_t {
  kComplete,  // [begin, end) interval
  kInstant,   // point marker at begin (== end)
};

/// One recorded event. `name` must be a string literal (or otherwise
/// outlive the tracer) — spans never own heap strings.
struct SpanEvent {
  Cycle begin = 0;
  Cycle end = 0;
  const char* name = "";
  std::uint32_t track = 0;
  SpanKind kind = SpanKind::kComplete;
  std::int32_t tenant = -1;  // -1 when not tenant-scoped
  std::int64_t job = -1;     // job / kernel uid when known
  std::int64_t arg = -1;     // site-specific detail (addr, tile, reason)
};

class SpanTracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit SpanTracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Reserves the full buffer up front: recording never allocates.
  void enable() {
    enabled_ = true;
    events_.reserve(capacity_);
  }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Record a closed interval [begin, end). Instrumentation sites in this
  /// simulator know both endpoints at record time (reservations return
  /// their completion horizon), so no span is ever left open.
  void span(std::uint32_t track, const char* name, Cycle begin, Cycle end,
            std::int32_t tenant = -1, std::int64_t job = -1,
            std::int64_t arg = -1) {
    if (!enabled_) return;
    push({begin, end, name, track, SpanKind::kComplete, tenant, job, arg});
  }

  /// Record a point marker.
  void instant(std::uint32_t track, const char* name, Cycle t,
               std::int32_t tenant = -1, std::int64_t job = -1,
               std::int64_t arg = -1) {
    if (!enabled_) return;
    push({t, t, name, track, SpanKind::kInstant, tenant, job, arg});
  }

  const std::vector<SpanEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events rejected because the bounded buffer was full.
  std::uint64_t dropped() const { return dropped_; }

  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  // Out of line: inlined into a caller that fixed the capacity, GCC 12
  // reports a false -Wstringop-overflow on push_back's (never taken,
  // enable() reserved capacity_) reallocation path.
  [[gnu::noinline]] void push(const SpanEvent& e) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  bool enabled_ = false;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<SpanEvent> events_;
};

}  // namespace arcane::telemetry

#endif  // ARCANE_TELEMETRY_SPAN_HPP_
