// Pluggable LLC replacement strategies (victim selection + recency
// bookkeeping), extracted from the controller so the adaptive family
// (ARC / CLOCK / LRU-K) plugs in next to the paper's approximate
// LRU without touching the hit/miss datapath.
//
// Contract between Llc and a strategy:
//  * decay()         — every `lru_decay_period`-th host-port access, before
//                      its lookup (the approximate-LRU age decay; others
//                      ignore it). The controller keeps the countdown.
//  * touch(idx, a)   — resident line `idx` holding tag `a` was hit by the
//                      host port. Never called for Busy or Invalid lines.
//  * fill(idx, a)    — line `idx` was just installed with tag `a` (miss
//                      refill or fetch-on-write allocation). Exactly once
//                      per install; no separate touch follows.
//  * evict(idx, a)   — a resident (Clean/Dirty) line leaves the cache for a
//                      reason the strategy did NOT choose (kernel claim).
//                      Victims returned by find_victim are already
//                      accounted for internally and must be ignored here.
//  * find_victim(a)  — choose a non-Busy resident line to make room for the
//                      incoming tag `a`. The controller has already
//                      recycled any Invalid line (pass-1), so every
//                      Clean/Dirty line is a candidate. Returns -1 only
//                      when nothing is evictable (all lines busy
//                      computing); the controller then drains kernel
//                      events and retries.
//  * reset()         — invalidate_all: drop all recency state (random's
//                      generator runs on).
//  * age(idx)        — read-only introspection of the approximate-LRU age
//                      of line `idx` (0 under every other policy).
//  * stamps()        — asked once, at construction: approximate LRU's age
//                      bytes, which the controller's inline hit path sets
//                      to 255 itself instead of calling touch() (its whole
//                      touch). Null under the other strategies, which keep
//                      the virtual touch().
//
// Determinism rules: strategies may consult only their own state and the
// shared line array — no wall clock, no address-dependent hashing with
// unspecified iteration order. Every strategy is allocation-free in steady
// state (per-line arrays and fixed node pools sized at construction).
//
// Allocator DMA paths keep their historical behaviour for every policy:
// read_range never updates recency and write_range updates it only when it
// installs a line — hits through those ports are invisible to the strategy.
#ifndef ARCANE_LLC_REPLACEMENT_HPP_
#define ARCANE_LLC_REPLACEMENT_HPP_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "llc/line.hpp"

namespace arcane::llc {

class ReplacementStrategy {
 public:
  virtual ~ReplacementStrategy() = default;
  virtual void decay() {}
  virtual void touch(unsigned idx, Addr base) = 0;
  virtual void fill(unsigned idx, Addr base) = 0;
  virtual void evict(unsigned /*idx*/, Addr /*base*/) {}
  virtual int find_victim(Addr incoming) = 0;
  virtual void reset() {}
  virtual std::uint8_t age(unsigned /*idx*/) const { return 0; }
  virtual std::uint8_t* stamps() { return nullptr; }
};

/// Builds the strategy selected by `cfg.replacement`. `lines` is the
/// controller's line array; the strategy holds the reference for its whole
/// lifetime (it reads the line states).
std::unique_ptr<ReplacementStrategy> make_replacement_strategy(
    const LlcConfig& cfg, std::vector<Line>& lines);

}  // namespace arcane::llc

#endif  // ARCANE_LLC_REPLACEMENT_HPP_
