// The five LLC replacement strategies behind the ReplacementStrategy
// interface (see replacement.hpp for the controller contract).
//
// The paper's policy and its floor:
//   * approx-lru  per-line 8-bit ages, periodic decay (the paper's policy)
//   * random      deterministic xorshift32 over the evictable candidates
//
// Adaptive family — deterministic and allocation-free in steady state
// (fixed node pools sized at construction, intrusive lists, linear ghost
// probes bounded by 2c entries):
//   * clock       one reference bit per line + a clock hand (second chance)
//   * lru-k       K=2 backward distance with retained history for evicted
//                 tags (O'Neil et al.); scan-resistant
//   * arc         Megiddo & Modha's Adaptive Replacement Cache: T1/T2
//                 resident lists, B1/B2 ghost lists, self-tuning target p
//
// Busy-line pinning: claimed lines are evicted by the controller before
// they turn Busy, so the adaptive strategies' resident lists only ever
// contain evictable (Clean/Dirty) lines; the approx-lru, random and clock
// scans skip Busy states explicitly.
#include "llc/replacement.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace arcane::llc {

namespace {

bool resident(const Line& l) {
  return l.state == LineState::kClean || l.state == LineState::kDirty;
}

// ------------------------------------------------------------------
// Approximate LRU (the paper's policy) and random
// ------------------------------------------------------------------

/// Per-line 8-bit ages set to 255 on every reference and decayed every
/// `lru_decay_period` accesses; the victim is the first lowest age. The
/// ages live in their own byte array so decay() vectorizes.
class ApproxLruStrategy final : public ReplacementStrategy {
 public:
  explicit ApproxLruStrategy(std::vector<Line>& lines)
      : lines_(lines), ages_(lines.size(), 0) {}

  void decay() override {
    for (std::uint8_t& a : ages_) a = a > 0 ? a - 1 : 0;
  }
  // Llc::host_port's hit writes the same age in place (stamps()).
  void touch(unsigned idx, Addr) override { ages_[idx] = 255; }
  void fill(unsigned idx, Addr) override { ages_[idx] = 255; }
  void evict(unsigned idx, Addr) override { ages_[idx] = 0; }

  int find_victim(Addr) override {
    int best = -1;
    unsigned best_age = 256;
    for (unsigned i = 0; i < lines_.size(); ++i) {
      if (lines_[i].state == LineState::kBusy) continue;
      if (ages_[i] < best_age) {
        best_age = ages_[i];
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  void reset() override { std::fill(ages_.begin(), ages_.end(), 0); }
  std::uint8_t age(unsigned idx) const override { return ages_[idx]; }
  // ages_ is never resized, so its data pointer stays valid.
  std::uint8_t* stamps() override { return ages_.data(); }

 private:
  std::vector<Line>& lines_;
  /// Per-line age; zero for every non-resident line.
  std::vector<std::uint8_t> ages_;
};

/// One xorshift32 draw per replacement picks the k-th non-busy line in
/// index order, k = draw mod the number of non-busy lines.
class RandomStrategy final : public ReplacementStrategy {
 public:
  explicit RandomStrategy(std::vector<Line>& lines) : lines_(lines) {}

  void touch(unsigned, Addr) override {}
  void fill(unsigned, Addr) override {}

  int find_victim(Addr) override {
    unsigned candidates = 0;
    for (const Line& l : lines_) {
      candidates += l.state != LineState::kBusy ? 1 : 0;
    }
    if (candidates == 0) return -1;
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 17;
    rng_ ^= rng_ << 5;
    unsigned k = rng_ % candidates;
    for (unsigned i = 0;; ++i) {
      if (lines_[i].state == LineState::kBusy) continue;
      if (k-- == 0) return static_cast<int>(i);
    }
  }

 private:
  std::vector<Line>& lines_;
  std::uint32_t rng_ = 0x9E3779B9u;
};

// ------------------------------------------------------------------
// CLOCK — second chance over a reference bit per line
// ------------------------------------------------------------------

class ClockStrategy final : public ReplacementStrategy {
 public:
  explicit ClockStrategy(std::vector<Line>& lines)
      : lines_(lines), ref_(lines.size(), 0) {}

  void touch(unsigned idx, Addr) override { ref_[idx] = 1; }
  void fill(unsigned idx, Addr) override { ref_[idx] = 1; }
  void evict(unsigned idx, Addr) override { ref_[idx] = 0; }

  int find_victim(Addr) override {
    // First sweep clears blocking reference bits, the second one must then
    // find a victim; 2n+1 steps bound both even with busy holes.
    const auto n = static_cast<unsigned>(lines_.size());
    for (unsigned step = 0; step < 2 * n + 1; ++step) {
      const unsigned idx = hand_;
      hand_ = (hand_ + 1) % n;
      if (!resident(lines_[idx])) continue;
      if (ref_[idx] != 0) {
        ref_[idx] = 0;
        continue;
      }
      return static_cast<int>(idx);
    }
    return -1;  // nothing resident: every line busy computing
  }

  void reset() override {
    std::fill(ref_.begin(), ref_.end(), 0);
    hand_ = 0;
  }

 private:
  std::vector<Line>& lines_;
  std::vector<std::uint8_t> ref_;
  unsigned hand_ = 0;
};

// ------------------------------------------------------------------
// LRU-K (K = 2) — backward K-distance with retained history
// ------------------------------------------------------------------

class LruKStrategy final : public ReplacementStrategy {
 public:
  explicit LruKStrategy(std::vector<Line>& lines)
      : lines_(lines),
        last_(lines.size(), 0),
        prev_(lines.size(), 0),
        hist_(2 * lines.size()) {}

  void touch(unsigned idx, Addr) override {
    ++now_;
    prev_[idx] = last_[idx];
    last_[idx] = now_;
  }

  void fill(unsigned idx, Addr base) override {
    ++now_;
    prev_[idx] = take_history(base);  // 0 when the tag has no history
    last_[idx] = now_;
  }

  void evict(unsigned idx, Addr base) override {
    // Retained information: remember the evicted tag's reference times so a
    // re-reference keeps its finite K-distance (ring of 2c entries).
    for (HistEntry& h : hist_) {
      if (h.addr == base) {
        h.last = last_[idx];
        return;
      }
    }
    HistEntry& h = hist_[hist_next_];
    hist_next_ = (hist_next_ + 1) % static_cast<unsigned>(hist_.size());
    h.addr = base;
    h.last = last_[idx];
  }

  int find_victim(Addr) override {
    // Evict the line whose K-th most recent reference is oldest; lines with
    // fewer than K references (prev == 0) are infinitely old. Ties break on
    // the most recent reference, then the line index — all deterministic.
    int best = -1;
    for (unsigned i = 0; i < lines_.size(); ++i) {
      if (!resident(lines_[i])) continue;
      if (best < 0 || prev_[i] < prev_[best] ||
          (prev_[i] == prev_[best] && last_[i] < last_[best])) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  void reset() override {
    std::fill(last_.begin(), last_.end(), 0);
    std::fill(prev_.begin(), prev_.end(), 0);
    for (HistEntry& h : hist_) h = HistEntry{};
    hist_next_ = 0;
    now_ = 0;
  }

 private:
  struct HistEntry {
    Addr addr = kNoAddr;
    std::uint64_t last = 0;
  };
  static constexpr Addr kNoAddr = ~Addr{0};

  std::uint64_t take_history(Addr base) {
    for (HistEntry& h : hist_) {
      if (h.addr == base) {
        h.addr = kNoAddr;
        return h.last;
      }
    }
    return 0;
  }

  std::vector<Line>& lines_;
  std::vector<std::uint64_t> last_;
  std::vector<std::uint64_t> prev_;
  std::vector<HistEntry> hist_;
  unsigned hist_next_ = 0;
  std::uint64_t now_ = 0;
};

// ------------------------------------------------------------------
// Intrusive list machinery for ARC
// ------------------------------------------------------------------

constexpr std::uint16_t kNil = 0xFFFF;

enum ListId : std::uint8_t { kT1 = 0, kT2, kB1, kB2, kNumLists, kFree };

/// Four intrusive doubly-linked lists over one fixed node pool — no
/// allocation after construction. Convention: head = MRU, tail = LRU.
class ListSet {
 public:
  struct Node {
    Addr addr = 0;
    std::uint16_t prev = kNil;
    std::uint16_t next = kNil;
    std::uint16_t line = kNil;  // resident line index (T1/T2 only)
    std::uint8_t list = kFree;
  };

  explicit ListSet(unsigned pool_size) : nodes_(pool_size) { reset(); }

  Node& node(std::uint16_t h) { return nodes_[h]; }
  unsigned size(ListId id) const { return lists_[id].size; }

  std::uint16_t alloc() {
    if (free_head_ == kNil) return kNil;
    const std::uint16_t h = free_head_;
    free_head_ = nodes_[h].next;
    nodes_[h] = Node{};
    return h;
  }

  void release(std::uint16_t h) {
    nodes_[h].list = kFree;
    nodes_[h].next = free_head_;
    free_head_ = h;
  }

  void push_front(ListId id, std::uint16_t h) {
    List& l = lists_[id];
    Node& n = nodes_[h];
    n.list = id;
    n.prev = kNil;
    n.next = l.head;
    if (l.head != kNil) nodes_[l.head].prev = h;
    l.head = h;
    if (l.tail == kNil) l.tail = h;
    ++l.size;
  }

  void unlink(std::uint16_t h) {
    Node& n = nodes_[h];
    List& l = lists_[n.list];
    if (n.prev != kNil) nodes_[n.prev].next = n.next;
    if (n.next != kNil) nodes_[n.next].prev = n.prev;
    if (l.head == h) l.head = n.next;
    if (l.tail == h) l.tail = n.prev;
    n.prev = n.next = kNil;
    --l.size;
  }

  std::uint16_t pop_back(ListId id) {
    const std::uint16_t h = lists_[id].tail;
    ARCANE_ASSERT(h != kNil, "pop_back on empty replacement list");
    unlink(h);
    return h;
  }

  /// Linear probe (lists are bounded by the pool, so this is O(2c)).
  std::uint16_t find(ListId id, Addr a) const {
    for (std::uint16_t h = lists_[id].head; h != kNil; h = nodes_[h].next) {
      if (nodes_[h].addr == a) return h;
    }
    return kNil;
  }

  void reset() {
    for (List& l : lists_) l = List{};
    for (unsigned i = 0; i < nodes_.size(); ++i) {
      nodes_[i] = Node{};
      nodes_[i].next =
          i + 1 < nodes_.size() ? static_cast<std::uint16_t>(i + 1) : kNil;
    }
    free_head_ = nodes_.empty() ? kNil : 0;
  }

 private:
  struct List {
    std::uint16_t head = kNil;
    std::uint16_t tail = kNil;
    unsigned size = 0;
  };
  std::vector<Node> nodes_;
  List lists_[kNumLists];
  std::uint16_t free_head_ = kNil;
};

// ------------------------------------------------------------------
// ARC — Megiddo & Modha, "ARC: A Self-Tuning, Low Overhead Replacement
// Cache" (FAST'03): resident lists T1+T2, ghost lists B1+B2 over a 2c node
// pool, the line→node index, and the self-tuning target p. head = MRU,
// tail = LRU for all four lists.
// ------------------------------------------------------------------

class ArcStrategy final : public ReplacementStrategy {
 public:
  explicit ArcStrategy(std::vector<Line>& lines)
      : c_(static_cast<unsigned>(lines.size())),
        pool_(2 * static_cast<unsigned>(lines.size())),
        line_node_(lines.size(), kNil) {}

  void evict(unsigned idx, Addr) override {
    // Non-policy eviction (kernel claim): drop without ghosting. Victims
    // chosen by find_victim were already moved to a ghost list and have a
    // cleared line_node_ slot, so they fall through this no-op.
    const std::uint16_t h = line_node_[idx];
    if (h == kNil) return;
    line_node_[idx] = kNil;
    pool_.unlink(h);
    pool_.release(h);
  }

  void reset() override {
    pool_.reset();
    std::fill(line_node_.begin(), line_node_.end(), kNil);
    p_ = 0.0;
  }

  void touch(unsigned idx, Addr) override {
    // Case I: hit in T1 or T2 moves the page to the MRU end of T2.
    const std::uint16_t h = line_node_[idx];
    pool_.unlink(h);
    pool_.push_front(kT2, h);
  }

  void fill(unsigned idx, Addr base) override {
    bool in_b2 = false;
    std::uint16_t h = find_ghost(base, in_b2);
    ListId target = kT1;  // case IV: first reference goes to the top of T1
    if (h != kNil) {
      // Cases II/III: the ghost revives straight into T2 (the p adaptation
      // already happened in find_victim, where the REPLACE step lives).
      pool_.unlink(h);
      target = kT2;
    } else {
      h = pool_.alloc();
      if (h == kNil) h = shed_ghost();
    }
    ListSet::Node& n = pool_.node(h);
    n.addr = base;
    n.line = static_cast<std::uint16_t>(idx);
    pool_.push_front(target, h);
    line_node_[idx] = h;
  }

  int find_victim(Addr incoming) override {
    // Only reached when no Invalid line exists — the cache-full case
    // analysis of the original pseudocode.
    const auto b1 = pool_.size(kB1);
    const auto b2 = pool_.size(kB2);
    bool in_b2 = false;
    const std::uint16_t g = find_ghost(incoming, in_b2);
    if (g != kNil && !in_b2) {
      // Case II: hit in B1 — recency was undervalued, grow p.
      const double delta =
          b1 >= b2 ? 1.0 : static_cast<double>(b2) / static_cast<double>(b1);
      p_ = std::min(p_ + delta, static_cast<double>(c_));
    } else if (g != kNil) {
      // Case III: hit in B2 — frequency was undervalued, shrink p.
      const double delta =
          b2 >= b1 ? 1.0 : static_cast<double>(b1) / static_cast<double>(b2);
      p_ = std::max(p_ - delta, 0.0);
    } else {
      // Case IV: brand-new page — trim the directory to its 2c bound. The
      // comparisons are >= where the textbook has ==: fills that recycle an
      // Invalid line (freed by a kernel release) bypass this path entirely,
      // so T1 can overshoot the |T1|+|B1| <= c invariant between trims.
      const auto t1 = pool_.size(kT1);
      const auto total = t1 + pool_.size(kT2) + b1 + b2;
      if (t1 + b1 >= c_) {
        if (b1 > 0) {
          pool_.release(pool_.pop_back(kB1));
        } else if (t1 > 0) {
          // |T1| >= c: drop the T1 LRU outright, without ghosting.
          const std::uint16_t h = pool_.pop_back(kT1);
          const int victim = pool_.node(h).line;
          line_node_[victim] = kNil;
          pool_.release(h);
          return victim;
        }
      } else if (total >= 2 * c_) {
        if (b2 > 0) {
          pool_.release(pool_.pop_back(kB2));
        } else if (b1 > 0) {
          pool_.release(pool_.pop_back(kB1));
        }
      }
    }
    return replace(in_b2);
  }

 private:
  /// Ghost lookup across B1 then B2; kNil when absent.
  std::uint16_t find_ghost(Addr a, bool& in_b2) const {
    std::uint16_t h = pool_.find(kB1, a);
    in_b2 = false;
    if (h == kNil && (h = pool_.find(kB2, a)) != kNil) in_b2 = true;
    return h;
  }

  /// Pool-exhaustion safety valve for claim-heavy interleavings the
  /// textbook trims cannot see: shed the coldest ghost to free a node.
  std::uint16_t shed_ghost() {
    const ListId from = pool_.size(kB2) > 0 ? kB2 : kB1;
    ARCANE_ASSERT(pool_.size(from) > 0,
                  "replacement node pool exhausted with no ghosts");
    const std::uint16_t h = pool_.pop_back(from);
    pool_.node(h) = ListSet::Node{};
    return h;
  }

  /// REPLACE(p): evict the T1 LRU into B1 when T1 exceeds its target,
  /// otherwise the T2 LRU into B2. Falls back across empty lists (possible
  /// under busy-line pinning); -1 when both are empty.
  int replace(bool in_b2) {
    const auto t1 = pool_.size(kT1);
    ListId from;
    if (t1 >= 1 && (static_cast<double>(t1) > p_ ||
                    (in_b2 && static_cast<double>(t1) == p_))) {
      from = kT1;
    } else if (pool_.size(kT2) >= 1) {
      from = kT2;
    } else if (t1 >= 1) {
      from = kT1;
    } else {
      return -1;  // every line is busy computing
    }
    // Demote the resident LRU node to the MRU end of its ghost list.
    const std::uint16_t h = pool_.pop_back(from);
    const int victim = pool_.node(h).line;
    line_node_[victim] = kNil;
    pool_.node(h).line = kNil;
    pool_.push_front(from == kT1 ? kB1 : kB2, h);
    return victim;
  }

  unsigned c_;
  ListSet pool_;
  std::vector<std::uint16_t> line_node_;
  double p_ = 0.0;  // target size of T1 (recency side)
};

}  // namespace

std::unique_ptr<ReplacementStrategy> make_replacement_strategy(
    const LlcConfig& cfg, std::vector<Line>& lines) {
  switch (cfg.replacement) {
    case ReplacementPolicy::kApproxLru:
      return std::make_unique<ApproxLruStrategy>(lines);
    case ReplacementPolicy::kRandom:
      return std::make_unique<RandomStrategy>(lines);
    case ReplacementPolicy::kClock:
      return std::make_unique<ClockStrategy>(lines);
    case ReplacementPolicy::kLruK:
      return std::make_unique<LruKStrategy>(lines);
    case ReplacementPolicy::kArc:
      return std::make_unique<ArcStrategy>(lines);
  }
  ARCANE_CHECK(false, "unknown LLC replacement policy id "
                          << static_cast<unsigned>(cfg.replacement));
  return nullptr;
}

}  // namespace arcane::llc
