// Deterministic host-access traces for the replacement-policy ablation and
// the replacement regression tests (bench/ablation_replacement.cpp,
// tests/replacement_policy_test.cpp).
//
// Each generator returns a sequence of line-aligned byte addresses meant to
// be replayed against the LLC (or a reference model of it) one word per
// access. The shapes mirror the classic adaptive-replacement evaluation
// workloads:
//
//  * sequential_scan   — one-shot sweep, no reuse. LRU pollutes the whole
//                        cache; scan-resistant policies (ARC/LRU-K)
//                        should evict these lines first.
//  * looping           — cyclic loop slightly larger than the cache, the
//                        LRU worst case (hit rate ~0 when loop > capacity).
//  * hot_data_access   — a hot region absorbing most accesses plus a cold
//                        uniform-random remainder (stable skewed mix).
//  * workload_shift    — phases of hot_data_access whose hot region MOVES
//                        between phases; measures how fast a policy
//                        re-converges after the working set changes.
//
// Everything is seeded SplitMix64 — identical traces run-to-run and across
// platforms, so hit counts can be pinned as golden values.
#ifndef ARCANE_WORKLOADS_ACCESS_PATTERNS_HPP_
#define ARCANE_WORKLOADS_ACCESS_PATTERNS_HPP_

#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "workloads/tensors.hpp"

namespace arcane::workloads {

/// One phase of a multi-phase tenant mix. Addresses are expressed in cache
/// lines; generators scale them by line_bytes.
struct AccessPhase {
  std::uint32_t hot_first_line = 0;  ///< first line of the hot region
  std::uint32_t hot_lines = 0;       ///< hot-region size in lines
  /// Percent [0,100] of accesses that land in the hot region; the rest are
  /// uniform-random over the cold region.
  std::uint32_t hot_pct = 0;
  std::uint32_t cold_first_line = 0;  ///< first line of the cold region
  std::uint32_t cold_lines = 1;       ///< cold-region size in lines
  std::uint64_t accesses = 0;         ///< number of accesses in this phase
};

/// Replay a list of phases back-to-back with one shared RNG stream.
/// Hot accesses are uniform within the hot region (re-reference the whole
/// set, like a tenant's resident working set); cold accesses are uniform
/// over a much larger region (effectively one-shot pollution).
inline std::vector<Addr> phase_trace(const std::vector<AccessPhase>& phases,
                                     std::uint32_t line_bytes,
                                     std::uint64_t seed) {
  std::vector<Addr> trace;
  std::uint64_t total = 0;
  for (const AccessPhase& p : phases) total += p.accesses;
  trace.reserve(total);
  Rng rng(seed);
  for (const AccessPhase& p : phases) {
    ARCANE_ASSERT(p.cold_lines >= 1, "phase needs a non-empty cold region");
    for (std::uint64_t i = 0; i < p.accesses; ++i) {
      const bool hot =
          p.hot_lines > 0 &&
          static_cast<std::uint32_t>(rng.uniform(0, 99)) < p.hot_pct;
      std::uint32_t line;
      if (hot) {
        line = p.hot_first_line +
               static_cast<std::uint32_t>(rng.uniform(0, p.hot_lines - 1));
      } else {
        line = p.cold_first_line +
               static_cast<std::uint32_t>(rng.uniform(0, p.cold_lines - 1));
      }
      trace.push_back(static_cast<Addr>(line) * line_bytes);
    }
  }
  return trace;
}

/// One-shot sequential sweep over `scan_lines` distinct lines.
inline std::vector<Addr> sequential_scan(std::uint32_t scan_lines,
                                         std::uint32_t line_bytes,
                                         std::uint32_t first_line = 0) {
  std::vector<Addr> trace;
  trace.reserve(scan_lines);
  for (std::uint32_t i = 0; i < scan_lines; ++i)
    trace.push_back(static_cast<Addr>(first_line + i) * line_bytes);
  return trace;
}

/// Cyclic loop over `loop_lines` lines, `laps` times around.
inline std::vector<Addr> looping(std::uint32_t loop_lines, std::uint32_t laps,
                                 std::uint32_t line_bytes,
                                 std::uint32_t first_line = 0) {
  std::vector<Addr> trace;
  trace.reserve(static_cast<std::size_t>(loop_lines) * laps);
  for (std::uint32_t lap = 0; lap < laps; ++lap)
    for (std::uint32_t i = 0; i < loop_lines; ++i)
      trace.push_back(static_cast<Addr>(first_line + i) * line_bytes);
  return trace;
}

/// Stable skewed mix: `hot_pct`% of accesses over a small hot region, the
/// rest uniform over a large cold region (never large enough to re-reference
/// a cold line soon).
inline std::vector<Addr> hot_data_access(std::uint64_t accesses,
                                         std::uint32_t hot_lines,
                                         std::uint32_t hot_pct,
                                         std::uint32_t cold_lines,
                                         std::uint32_t line_bytes,
                                         std::uint64_t seed) {
  return phase_trace({AccessPhase{/*hot_first_line=*/0, hot_lines, hot_pct,
                                  /*cold_first_line=*/hot_lines, cold_lines,
                                  accesses}},
                     line_bytes, seed);
}

/// Two-phase shift: same mix shape, but the hot region jumps to a disjoint
/// line range halfway through. The returned trace has `accesses` entries per
/// phase; callers that want per-phase hit rates replay [0, accesses) and
/// [accesses, 2*accesses) separately.
inline std::vector<Addr> workload_shift(std::uint64_t accesses_per_phase,
                                        std::uint32_t hot_lines,
                                        std::uint32_t hot_pct,
                                        std::uint32_t cold_lines,
                                        std::uint32_t line_bytes,
                                        std::uint64_t seed) {
  // Both hot regions live below the cold region so the cold pollution pool
  // is shared across phases.
  const std::uint32_t cold_base = 2 * hot_lines;
  return phase_trace(
      {AccessPhase{/*hot_first_line=*/0, hot_lines, hot_pct, cold_base,
                   cold_lines, accesses_per_phase},
       AccessPhase{/*hot_first_line=*/hot_lines, hot_lines, hot_pct,
                   cold_base, cold_lines, accesses_per_phase}},
      line_bytes, seed);
}

}  // namespace arcane::workloads

#endif  // ARCANE_WORKLOADS_ACCESS_PATTERNS_HPP_
