// Differential reference-model test for the LLC replacement family.
//
// For every policy, a pure-software textbook model (written against the
// published algorithm, not against src/llc/replacement.cpp) is replayed
// next to the real Llc over seeded-random and adversarial (scan, loop,
// phase-shift) access sequences. Each step must agree on (a) hit or miss
// and (b) the physical line index holding the tag afterwards — i.e. the
// victim choice. A model/implementation divergence pinpoints the first
// differing access.
//
// Also here: scenario regression tests pinning hit-rate orderings and
// golden hit counts (ARC >= LRU after a hot-set shift, LRU-K scan
// resistance, CLOCK ~ approx-LRU on uniform random, ARC and LRU-2 each
// winning one workload by 20+ points), the equivalence of the host port's
// inline hit with the strategy's touch(), and negative tests for the
// policy-name/config validation path.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "arcane/system.hpp"
#include "common/assert.hpp"
#include "dma/dma.hpp"
#include "llc/llc.hpp"
#include "mem/main_memory.hpp"
#include "sim/event_queue.hpp"
#include "vpu/line_storage.hpp"
#include "workloads/access_patterns.hpp"
#include "workloads/tensors.hpp"

namespace arcane::llc {
namespace {

// =====================================================================
// Reference models. Frames mirror the controller's physical lines: a miss
// installs into the lowest-index free frame while any exists (the
// controller's pass-1 invalid scan), then into the policy's victim frame.
// =====================================================================

struct Step {
  bool hit = false;
  int frame = -1;  // frame holding the tag after the access
};

class RefModel {
 public:
  explicit RefModel(unsigned n) : tags_(n, kNone), n_(n) {}
  virtual ~RefModel() = default;
  virtual Step access(Addr x) = 0;

 protected:
  static constexpr Addr kNone = ~Addr{0};

  int lookup(Addr x) const {
    for (unsigned i = 0; i < n_; ++i) {
      if (tags_[i] == x) return static_cast<int>(i);
    }
    return -1;
  }
  int first_free() const {
    for (unsigned i = 0; i < n_; ++i) {
      if (tags_[i] == kNone) return static_cast<int>(i);
    }
    return -1;
  }

  std::vector<Addr> tags_;
  unsigned n_;
};

/// The paper's policy: 8-bit per-frame ages, all ages decay every
/// `decay_period` accesses, victim = lowest age (first on ties).
class RefApproxLru final : public RefModel {
 public:
  RefApproxLru(unsigned n, unsigned decay_period)
      : RefModel(n), ages_(n, 0), decay_period_(decay_period) {}

  Step access(Addr x) override {
    if (++accesses_ % decay_period_ == 0) {
      for (auto& a : ages_) {
        if (a > 0) --a;
      }
    }
    int f = lookup(x);
    const bool hit = f >= 0;
    if (!hit) {
      f = first_free();
      if (f < 0) {
        f = 0;
        for (unsigned i = 1; i < n_; ++i) {
          if (ages_[i] < ages_[f]) f = static_cast<int>(i);
        }
      }
      tags_[f] = x;
    }
    ages_[f] = 255;
    return {hit, f};
  }

 private:
  std::vector<unsigned> ages_;
  unsigned decay_period_;
  std::uint64_t accesses_ = 0;
};

/// Exact LRU: victim = oldest reference.
class RefTrueLru final : public RefModel {
 public:
  explicit RefTrueLru(unsigned n) : RefModel(n), seq_(n, 0) {}

  Step access(Addr x) override {
    int f = lookup(x);
    const bool hit = f >= 0;
    if (!hit) {
      f = first_free();
      if (f < 0) {
        f = 0;
        for (unsigned i = 1; i < n_; ++i) {
          if (seq_[i] < seq_[f]) f = static_cast<int>(i);
        }
      }
      tags_[f] = x;
    }
    seq_[f] = ++now_;
    return {hit, f};
  }

 private:
  std::vector<std::uint64_t> seq_;
  std::uint64_t now_ = 0;
};

/// Deterministic random: one xorshift32 draw per replacement over the
/// candidate frames in index order (the controller's historical stream).
class RefRandom final : public RefModel {
 public:
  explicit RefRandom(unsigned n) : RefModel(n) {}

  Step access(Addr x) override {
    int f = lookup(x);
    const bool hit = f >= 0;
    if (!hit) {
      f = first_free();
      if (f < 0) {
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 17;
        rng_ ^= rng_ << 5;
        f = static_cast<int>(rng_ % n_);
      }
      tags_[f] = x;
    }
    return {hit, f};
  }

 private:
  std::uint32_t rng_ = 0x9E3779B9u;
};

/// Second chance: one reference bit per frame and a clock hand that clears
/// set bits until it lands on a clear one.
class RefClock final : public RefModel {
 public:
  explicit RefClock(unsigned n) : RefModel(n), ref_(n, 0) {}

  Step access(Addr x) override {
    int f = lookup(x);
    const bool hit = f >= 0;
    if (!hit) {
      f = first_free();
      if (f < 0) {
        for (;;) {
          const unsigned i = hand_;
          hand_ = (hand_ + 1) % n_;
          if (ref_[i] != 0) {
            ref_[i] = 0;
            continue;
          }
          f = static_cast<int>(i);
          break;
        }
      }
      tags_[f] = x;
    }
    ref_[f] = 1;
    return {hit, f};
  }

 private:
  std::vector<std::uint8_t> ref_;
  unsigned hand_ = 0;
};

/// LRU-K with K=2 (O'Neil et al.): evict the frame whose 2nd most recent
/// reference is oldest; pages referenced once (prev == 0) are infinitely
/// old. Evicted tags keep their history in a 2c-entry retained-information
/// ring so a prompt re-reference stays "frequent".
class RefLruK final : public RefModel {
 public:
  explicit RefLruK(unsigned n)
      : RefModel(n), last_(n, 0), prev_(n, 0), hist_(2 * n) {}

  Step access(Addr x) override {
    int f = lookup(x);
    const bool hit = f >= 0;
    if (hit) {
      ++now_;
      prev_[f] = last_[f];
      last_[f] = now_;
      return {true, f};
    }
    f = first_free();
    if (f < 0) {
      f = 0;
      for (unsigned i = 1; i < n_; ++i) {
        if (prev_[i] < prev_[f] ||
            (prev_[i] == prev_[f] && last_[i] < last_[f])) {
          f = static_cast<int>(i);
        }
      }
      retain(tags_[f], last_[f]);
    }
    tags_[f] = x;
    ++now_;
    prev_[f] = take_history(x);
    last_[f] = now_;
    return {false, f};
  }

 private:
  struct Hist {
    Addr addr = kNone;
    std::uint64_t last = 0;
  };

  void retain(Addr x, std::uint64_t last) {
    for (Hist& h : hist_) {
      if (h.addr == x) {
        h.last = last;
        return;
      }
    }
    Hist& h = hist_[hist_next_];
    hist_next_ = (hist_next_ + 1) % static_cast<unsigned>(hist_.size());
    h.addr = x;
    h.last = last;
  }
  std::uint64_t take_history(Addr x) {
    for (Hist& h : hist_) {
      if (h.addr == x) {
        h.addr = kNone;
        return h.last;
      }
    }
    return 0;
  }

  std::vector<std::uint64_t> last_;
  std::vector<std::uint64_t> prev_;
  std::vector<Hist> hist_;
  unsigned hist_next_ = 0;
  std::uint64_t now_ = 0;
};

/// ARC per Megiddo & Modha's FAST'03 pseudocode, over std::deque page
/// lists (front = MRU). The frame map turns page evictions into frame
/// choices. The only departure from the paper is the warm-up: while free
/// frames exist the cache never replaces, so cases II-IV only run full.
class RefArc final : public RefModel {
 public:
  explicit RefArc(unsigned n) : RefModel(n) {}

  Step access(Addr x) override {
    if (erase(t1_, x) || erase(t2_, x)) {  // case I
      t2_.push_front(x);
      return {true, lookup(x)};
    }
    int f = first_free();
    if (f >= 0) {  // warm-up
      t1_.push_front(x);
      tags_[f] = x;
      frame_[x] = f;
      return {false, f};
    }
    const double b1 = static_cast<double>(b1_.size());
    const double b2 = static_cast<double>(b2_.size());
    if (erase(b1_, x)) {  // case II: B1 ghost hit
      p_ = std::min(p_ + (b1 >= b2 ? 1.0 : b2 / b1),
                    static_cast<double>(n_));
      f = replace(false);
      t2_.push_front(x);
    } else if (erase(b2_, x)) {  // case III: B2 ghost hit
      p_ = std::max(p_ - (b2 >= b1 ? 1.0 : b1 / b2), 0.0);
      f = replace(true);
      t2_.push_front(x);
    } else {  // case IV: brand-new page
      if (t1_.size() + b1_.size() == n_) {
        if (!b1_.empty()) {
          b1_.pop_back();
          f = replace(false);
        } else {
          // |T1| == c: discard the T1 LRU outright, no ghost.
          const Addr y = t1_.back();
          t1_.pop_back();
          f = frame_.at(y);
          frame_.erase(y);
        }
      } else {
        if (t1_.size() + t2_.size() + b1_.size() + b2_.size() == 2 * n_) {
          b2_.pop_back();
        }
        f = replace(false);
      }
      t1_.push_front(x);
    }
    tags_[f] = x;
    frame_[x] = f;
    return {false, f};
  }

 private:
  static bool erase(std::deque<Addr>& l, Addr x) {
    const auto it = std::find(l.begin(), l.end(), x);
    if (it == l.end()) return false;
    l.erase(it);
    return true;
  }

  int replace(bool in_b2) {
    Addr y;
    if (!t1_.empty() &&
        (static_cast<double>(t1_.size()) > p_ ||
         (in_b2 && static_cast<double>(t1_.size()) == p_))) {
      y = t1_.back();
      t1_.pop_back();
      b1_.push_front(y);
    } else {
      y = t2_.back();
      t2_.pop_back();
      b2_.push_front(y);
    }
    const int f = frame_.at(y);
    frame_.erase(y);
    return f;
  }

  std::deque<Addr> t1_, t2_, b1_, b2_;
  std::map<Addr, int> frame_;
  double p_ = 0.0;
};

std::unique_ptr<RefModel> make_model(ReplacementPolicy pol,
                                     const SystemConfig& cfg) {
  const unsigned n = cfg.llc.num_lines();
  switch (pol) {
    case ReplacementPolicy::kApproxLru:
      return std::make_unique<RefApproxLru>(n, cfg.llc.lru_decay_period);
    case ReplacementPolicy::kTrueLru: return std::make_unique<RefTrueLru>(n);
    case ReplacementPolicy::kRandom: return std::make_unique<RefRandom>(n);
    case ReplacementPolicy::kClock: return std::make_unique<RefClock>(n);
    case ReplacementPolicy::kLruK: return std::make_unique<RefLruK>(n);
    case ReplacementPolicy::kArc: return std::make_unique<RefArc>(n);
  }
  return nullptr;
}

// =====================================================================
// Harness: replay a trace through the real Llc and the model in lockstep.
// =====================================================================

struct Rig {
  explicit Rig(ReplacementPolicy pol,
               unsigned decay_period = LlcConfig{}.lru_decay_period)
      : cfg(SystemConfig::paper(4)) {
    cfg.llc.replacement = pol;
    cfg.llc.lru_decay_period = decay_period;
    ext = std::make_unique<mem::MainMemory>(cfg.mem.data_base,
                                            cfg.mem.data_bytes, cfg.mem);
    storage = std::make_unique<vpu::LineStorage>(cfg.llc);
    dma = std::make_unique<dma::DmaEngine>(cfg.mem);
    llc = std::make_unique<Llc>(cfg, events, *ext, *dma, *storage);
  }

  /// One line-granular read; returns hit flag and the line index now
  /// holding the tag.
  Step read(Addr base) {
    std::uint32_t v = 0;
    const auto res = llc->host_access(base, 4, false, &v, t);
    t = res.complete_at + 1;
    return {res.hit, line_of(base)};
  }

  int line_of(Addr base) const {
    for (unsigned i = 0; i < llc->num_lines(); ++i) {
      const Line& l = llc->line(i);
      if (l.tag == base &&
          (l.state == LineState::kClean || l.state == LineState::kDirty)) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  SystemConfig cfg;
  sim::EventQueue events;
  std::unique_ptr<mem::MainMemory> ext;
  std::unique_ptr<vpu::LineStorage> storage;
  std::unique_ptr<dma::DmaEngine> dma;
  std::unique_ptr<Llc> llc;
  Cycle t = 0;
};

/// One differential configuration: a policy and the approximate-LRU decay
/// period (which the other policies ignore).
struct DiffCase {
  ReplacementPolicy policy;
  unsigned decay_period = LlcConfig{}.lru_decay_period;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << replacement_name(c.policy) << " decay_period=" << c.decay_period;
}

void run_differential(const DiffCase& c, const std::vector<Addr>& trace,
                      const char* trace_name) {
  const ReplacementPolicy pol = c.policy;
  Rig rig(pol, c.decay_period);
  auto model = make_model(pol, rig.cfg);
  const Addr base = rig.cfg.mem.data_base;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Addr line_addr = base + trace[i];
    const Step want = model->access(line_addr);
    const Step got = rig.read(line_addr);
    ASSERT_EQ(got.hit, want.hit)
        << replacement_name(pol) << "/" << trace_name << ": hit/miss "
        << "diverged at access " << i << " (addr 0x" << std::hex << line_addr
        << ")";
    ASSERT_EQ(got.frame, want.frame)
        << replacement_name(pol) << "/" << trace_name << ": victim choice "
        << "diverged at access " << i << " (addr 0x" << std::hex << line_addr
        << ")";
  }
}

class ReplacementDifferentialTest : public ::testing::TestWithParam<DiffCase> {
 protected:
  std::uint64_t policy_seed() const {
    return static_cast<std::uint64_t>(GetParam().policy);
  }
};

TEST_P(ReplacementDifferentialTest, SeededRandomStream) {
  // Uniform random over 4x capacity — plenty of misses and re-references.
  using workloads::AccessPhase;
  const auto trace = workloads::phase_trace(
      {AccessPhase{0, 0, 0, 0, 512, 8000}}, 1024, 0x1000 + policy_seed());
  run_differential(GetParam(), trace, "random");
}

TEST_P(ReplacementDifferentialTest, SequentialScan) {
  // Two back-to-back sweeps over 12x capacity: pure pollution, then the
  // same pollution again (every access a miss for every sane policy).
  auto trace = workloads::sequential_scan(1536, 1024);
  const auto again = workloads::sequential_scan(1536, 1024);
  trace.insert(trace.end(), again.begin(), again.end());
  run_differential(GetParam(), trace, "scan");
}

TEST_P(ReplacementDifferentialTest, LoopPattern) {
  // Cyclic loop at 1.25x capacity — the LRU pathological case, and the
  // CLOCK hand-rotation stress.
  run_differential(GetParam(), workloads::looping(160, 30, 1024), "loop");
}

TEST_P(ReplacementDifferentialTest, WorkloadShift) {
  // Hot set jumps mid-trace; exercises the ARC ghost adaptation hard.
  run_differential(GetParam(),
                   workloads::workload_shift(4000, 96, 70, 1024, 1024,
                                             0x2000 + policy_seed()),
                   "shift");
}

std::string diff_case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  std::string name = replacement_name(info.param.policy);
  std::replace(name.begin(), name.end(), '-', '_');
  if (info.param.decay_period != LlcConfig{}.lru_decay_period) {
    name += "_decay" + std::to_string(info.param.decay_period);
  }
  return name;
}

std::vector<DiffCase> every_policy() {
  std::vector<DiffCase> cases;
  for (ReplacementPolicy pol : kAllReplacementPolicies) cases.push_back({pol});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementDifferentialTest,
                         ::testing::ValuesIn(every_policy()), diff_case_name);

// The controller's decay countdown against RefApproxLru's `%` form at the
// boundary periods (1: decay before every access; 3: odd; 64 is the
// default, covered above).
INSTANTIATE_TEST_SUITE_P(
    ApproxLruDecayPeriods, ReplacementDifferentialTest,
    ::testing::Values(DiffCase{ReplacementPolicy::kApproxLru, 1},
                      DiffCase{ReplacementPolicy::kApproxLru, 3}),
    diff_case_name);

// =====================================================================
// Scenario regressions: hit-rate orderings with pinned golden counts.
// The traces are fully deterministic, so the exact hit counts are stable
// across runs and platforms; a change here means the policy's decision
// stream changed and must be reviewed (and re-blessed) deliberately.
// =====================================================================

std::vector<std::uint64_t> segment_hits(ReplacementPolicy pol,
                                        const std::vector<Addr>& trace,
                                        const std::vector<std::size_t>& cuts) {
  Rig rig(pol);
  const Addr base = rig.cfg.mem.data_base;
  std::vector<std::uint64_t> hits;
  std::size_t begin = 0;
  for (const std::size_t cut : cuts) {
    std::uint64_t h = 0;
    for (std::size_t i = begin; i < cut; ++i) {
      if (rig.read(base + trace[i]).hit) ++h;
    }
    hits.push_back(h);
    begin = cut;
  }
  return hits;
}

TEST(ReplacementScenarioTest, ArcRecoversAfterWorkloadShiftWhereLruThrashes) {
  // 96 hot lines at 70%, 2048-line cold spray, hot set jumps at halftime.
  const auto trace = workloads::workload_shift(6000, 96, 70, 2048, 1024,
                                               /*seed=*/0x5EED);
  const std::vector<std::size_t> cuts = {6000, 12000};
  const auto arc = segment_hits(ReplacementPolicy::kArc, trace, cuts);
  const auto lru = segment_hits(ReplacementPolicy::kTrueLru, trace, cuts);
  // ARC shields the hot set from the cold spray in both phases; true LRU
  // lets the spray evict it continuously.
  EXPECT_GT(arc[0], lru[0]);
  EXPECT_GT(arc[1], lru[1]);
  // Re-convergence: ARC's phase-2 hit count returns to within 5% of its
  // phase-1 count even though the entire hot set moved.
  EXPECT_GT(arc[1] * 100, arc[0] * 95);
  // Golden counts (deterministic trace + policies).
  EXPECT_EQ(arc[0], 4117u);
  EXPECT_EQ(arc[1], 4018u);
  EXPECT_EQ(lru[0], 3163u);
  EXPECT_EQ(lru[1], 3135u);
}

TEST(ReplacementScenarioTest, AdaptivePoliciesAtLeastMatchLruOnLoop) {
  // Loop at 1.25x capacity: LRU's worst case (zero steady-state hits).
  const auto trace = workloads::looping(160, 40, 1024);
  const std::vector<std::size_t> cuts = {trace.size()};
  const auto lru = segment_hits(ReplacementPolicy::kTrueLru, trace, cuts)[0];
  for (ReplacementPolicy pol :
       {ReplacementPolicy::kArc, ReplacementPolicy::kLruK}) {
    EXPECT_GE(segment_hits(pol, trace, cuts)[0], lru)
        << replacement_name(pol);
  }
  EXPECT_EQ(lru, 0u);  // golden: LRU gets nothing once the loop wraps
}

TEST(ReplacementScenarioTest, ClockTracksApproxLruOnUniformRandom) {
  // Uniform random over 2x capacity: no policy has an edge; CLOCK (1 bit
  // per line) must stay within 10% of the paper's 8-bit approximate LRU.
  using workloads::AccessPhase;
  const auto trace = workloads::phase_trace(
      {AccessPhase{0, 0, 0, 0, 256, 12000}}, 1024, /*seed=*/0xC10C);
  const std::vector<std::size_t> cuts = {trace.size()};
  const auto clock =
      segment_hits(ReplacementPolicy::kClock, trace, cuts)[0];
  const auto approx =
      segment_hits(ReplacementPolicy::kApproxLru, trace, cuts)[0];
  EXPECT_NEAR(static_cast<double>(clock), static_cast<double>(approx),
              0.10 * static_cast<double>(approx));
  // Golden counts.
  EXPECT_EQ(clock, 5854u);
  EXPECT_EQ(approx, 5872u);
}

TEST(ReplacementScenarioTest, LruKResistsScansThatFlushTrueLru) {
  // Warm a 64-line hot set (two laps so every line has K=2 history), run a
  // 256-line scan (2x capacity — flushes an LRU cache), then re-touch the
  // hot set. LRU-K keeps it resident: scan lines have only one reference
  // (infinite backward K-distance) so they evict each other, not the hot
  // lines.
  auto trace = workloads::looping(64, 2, 1024);
  const auto scan = workloads::sequential_scan(256, 1024, /*first_line=*/512);
  trace.insert(trace.end(), scan.begin(), scan.end());
  const auto relap = workloads::looping(64, 1, 1024);
  trace.insert(trace.end(), relap.begin(), relap.end());
  const std::vector<std::size_t> cuts = {trace.size() - 64, trace.size()};

  const auto lruk = segment_hits(ReplacementPolicy::kLruK, trace, cuts);
  const auto lru = segment_hits(ReplacementPolicy::kTrueLru, trace, cuts);
  EXPECT_EQ(lruk[1], 64u);  // full retention through the scan
  EXPECT_EQ(lru[1], 0u);    // the scan flushed everything
}

// ARC and LRU-2 each win one workload by far more than noise, so neither
// subsumes the other. The two traces below are test-local on purpose: they
// are built to separate exactly these two policies.

/// Recency window: step i references a new line i and re-references line
/// i - `window` — every line is touched exactly twice, `window` steps apart.
std::vector<Addr> recency_window(std::uint32_t steps, std::uint32_t window,
                                 std::uint32_t line_bytes) {
  std::vector<Addr> trace;
  for (std::uint32_t i = 0; i < steps; ++i) {
    trace.push_back(static_cast<Addr>(i) * line_bytes);
    if (i >= window) {
      trace.push_back(static_cast<Addr>(i - window) * line_bytes);
    }
  }
  return trace;
}

/// Shifting mix: a fixed `freq_lines`-line set takes `pct[p % 2]`% of phase
/// p's accesses (uniform within the set); the rest cycle a `loop_lines`-line
/// loop whose lines move to a fresh range every phase.
std::vector<Addr> shifting_mix(unsigned phases, std::uint32_t per_phase,
                               std::uint32_t freq_lines,
                               std::uint32_t loop_lines,
                               const std::uint32_t (&pct)[2],
                               std::uint32_t line_bytes) {
  workloads::Rng rng(7);
  std::vector<Addr> trace;
  for (unsigned p = 0; p < phases; ++p) {
    const std::uint32_t loop_base = freq_lines + p * loop_lines;
    std::uint32_t next = 0;
    for (std::uint32_t i = 0; i < per_phase; ++i) {
      const bool freq = rng.uniform(0, 99) < pct[p % 2];
      const std::uint32_t line =
          freq ? static_cast<std::uint32_t>(rng.uniform(0, freq_lines - 1))
               : loop_base + next++ % loop_lines;
      trace.push_back(static_cast<Addr>(line) * line_bytes);
    }
  }
  return trace;
}

/// Hit percentage of `hits` over `accesses`.
double pct(std::uint64_t hits, std::size_t accesses) {
  return 100.0 * static_cast<double>(hits) / static_cast<double>(accesses);
}

TEST(ReplacementScenarioTest, ArcKeepsRecencyWindowThatLru2Evicts) {
  // LRU-2 evicts the lines that still await their second reference (one
  // reference = infinite backward 2-distance) and keeps the dead ones;
  // ARC's recency list serves the window like LRU does.
  const auto trace = recency_window(8000, 40, 1024);
  const std::vector<std::size_t> cuts = {trace.size()};
  const auto arc = segment_hits(ReplacementPolicy::kArc, trace, cuts)[0];
  const auto lru2 = segment_hits(ReplacementPolicy::kLruK, trace, cuts)[0];
  EXPECT_GE(pct(arc, trace.size()), pct(lru2, trace.size()) + 20.0);
  // Golden counts (of 15960 accesses; both LRUs hit all 7960 re-references).
  EXPECT_EQ(arc, 7920u);
  EXPECT_EQ(lru2, 88u);
  EXPECT_EQ(segment_hits(ReplacementPolicy::kTrueLru, trace, cuts)[0],
            7960u);
  EXPECT_EQ(segment_hits(ReplacementPolicy::kApproxLru, trace, cuts)[0],
            7960u);
}

TEST(ReplacementScenarioTest, Lru2KeepsFrequencySetThatArcLosesToLoop) {
  // 6 phases x 20,000 accesses; the 60-line frequency set takes 20% of the
  // accesses in the even phases and 80% in the odd ones. In the 20% phases
  // the 110-line loop dominates recency: ARC adapts towards it and
  // thrashes, while LRU-2 keeps the frequency set and the part of the loop
  // that fits.
  constexpr std::size_t kPerPhase = 20000;
  const std::uint32_t share[2] = {20, 80};
  const auto trace = shifting_mix(6, kPerPhase, 60, 110, share, 1024);
  std::vector<std::size_t> cuts;
  for (std::size_t c = kPerPhase; c <= trace.size(); c += kPerPhase) {
    cuts.push_back(c);
  }
  const auto arc = segment_hits(ReplacementPolicy::kArc, trace, cuts);
  const auto lru2 = segment_hits(ReplacementPolicy::kLruK, trace, cuts);
  std::uint64_t arc_low = 0, lru2_low = 0;
  for (std::size_t p = 0; p < cuts.size(); p += 2) {
    arc_low += arc[p];
    lru2_low += lru2[p];
  }
  EXPECT_GE(pct(lru2_low, 3 * kPerPhase), pct(arc_low, 3 * kPerPhase) + 20.0);
  // Golden counts over the three 20% phases (60,000 accesses).
  EXPECT_EQ(arc_low, 12386u);
  EXPECT_EQ(lru2_low, 46507u);
}

// =====================================================================
// The inline host-port hit (Llc::host_port) against touch().
// =====================================================================

TEST(ReplacementTouchTest, InlineHostPortHitMatchesTheStrategyTouch) {
  // System::read/write reach Llc::host_port, whose hit writes a legacy
  // strategy's recency stamps in place; Llc::host_access on a twin System
  // calls the strategy's virtual touch(). A seeded stream of reads and
  // writes, three in four to a hot set that fits the cache, must leave both
  // with the same data, times, hits, lines, ages and lru_seq stamps.
  for (ReplacementPolicy pol : kAllReplacementPolicies) {
    SCOPED_TRACE(replacement_name(pol));
    SystemConfig cfg = SystemConfig::paper(4);
    cfg.llc.replacement = pol;
    System port(cfg), twin(cfg);
    const std::uint32_t lines = port.llc().num_lines();
    const std::uint32_t line_bytes = cfg.llc.line_bytes();
    std::mt19937 rng(17 + static_cast<unsigned>(pol));
    Cycle t_port = 0, t_twin = 0;
    unsigned quiet = 0;  // accesses with no event pending (inline-eligible)
    for (int i = 0; i < 20'000; ++i) {
      const bool hot = rng() % 4 != 0;
      const std::uint32_t span = (hot ? lines / 2 : 3 * lines) * line_bytes;
      const Addr addr = port.data_base() + ((rng() % span) & ~3u);
      const bool write = rng() % 3 == 0;
      std::uint32_t v = rng(), w = v;
      quiet += port.events().empty() ? 1 : 0;
      t_port = write ? port.write(addr, 4, &v, t_port)
                     : port.read(addr, 4, &v, t_port);
      t_twin = twin.llc().host_access(addr, 4, write, &w, t_twin).complete_at;
      ASSERT_EQ(v, w) << "access " << i;
      ASSERT_EQ(t_port, t_twin) << "access " << i;
    }
    EXPECT_GT(quiet, 10'000u);
    const auto& a = port.llc().stats();
    const auto& b = twin.llc().stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_GT(a.hits, 10'000u);
    EXPECT_GT(a.misses, 1'000u);
    for (unsigned i = 0; i < lines; ++i) {
      EXPECT_EQ(port.llc().line(i).tag, twin.llc().line(i).tag) << i;
      EXPECT_EQ(port.llc().line(i).state, twin.llc().line(i).state) << i;
      EXPECT_EQ(port.llc().line_age(i), twin.llc().line_age(i)) << i;
      EXPECT_EQ(port.llc().line(i).lru_seq, twin.llc().line(i).lru_seq) << i;
    }
  }
}

// =====================================================================
// Config validation: unknown policy names/ids must fail loudly.
// =====================================================================

TEST(ReplacementConfigTest, NameParserAcceptsExactlyTheCanonicalNames) {
  for (ReplacementPolicy pol : kAllReplacementPolicies) {
    const auto parsed = replacement_from_name(replacement_name(pol));
    ASSERT_TRUE(parsed.has_value()) << replacement_name(pol);
    EXPECT_EQ(*parsed, pol);
  }
  EXPECT_FALSE(replacement_from_name("bogus").has_value());
  EXPECT_FALSE(replacement_from_name("").has_value());
  EXPECT_FALSE(replacement_from_name("ARC").has_value());  // case-sensitive
  EXPECT_FALSE(replacement_from_name("lru").has_value());  // no aliases here
}

TEST(ReplacementConfigTest, ValidateRejectsUnknownPolicyId) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.llc.replacement = static_cast<ReplacementPolicy>(42);
  EXPECT_THROW(cfg.validate(), arcane::Error);
}

}  // namespace
}  // namespace arcane::llc
