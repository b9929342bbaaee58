// Property test: a randomized host access stream through the LLC must be
// indistinguishable (data-wise) from a flat reference memory, under every
// replacement policy, including interleaved kernel-style claims/releases.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dma/dma.hpp"
#include "llc/llc.hpp"
#include "mem/main_memory.hpp"
#include "sim/event_queue.hpp"
#include "vpu/line_storage.hpp"
#include "test_support.hpp"
#include "workloads/tensors.hpp"

namespace arcane::llc {
namespace {

class CachePropertyTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(CachePropertyTest, RandomStreamMatchesFlatMemory) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.llc.replacement = GetParam();
  sim::EventQueue events;
  mem::MainMemory ext(cfg.mem.data_base, cfg.mem.data_bytes, cfg.mem);
  vpu::LineStorage storage(cfg.llc);
  dma::DmaEngine dma(cfg.mem);
  Llc llc(cfg, events, ext, dma, storage);

  workloads::Rng rng(11 * (static_cast<std::uint64_t>(GetParam()) + 1));
  std::map<Addr, std::uint32_t> model;  // reference memory (word granular)
  const Addr base = cfg.mem.data_base;
  // Working set ~4x the cache capacity to force plenty of evictions.
  const std::uint32_t span = 4 * cfg.llc.capacity_bytes();

  Cycle t = 0;
  for (int i = 0; i < 20000; ++i) {
    const Addr addr =
        base + static_cast<Addr>(rng.uniform(0, span / 4 - 1)) * 4;
    const bool is_write = rng.uniform(0, 99) < 40;
    if (is_write) {
      const auto v = static_cast<std::uint32_t>(rng.next());
      t = llc.host_access(addr, 4, true, const_cast<std::uint32_t*>(&v), t)
              .complete_at + 1;
      model[addr] = v;
    } else {
      std::uint32_t v = 0;
      t = llc.host_access(addr, 4, false, &v, t).complete_at + 1;
      const auto it = model.find(addr);
      const std::uint32_t want = it == model.end() ? 0u : it->second;
      ASSERT_EQ(v, want) << "addr 0x" << std::hex << addr << " after " << std::dec << i;
    }
  }

  // After a flush, external memory must equal the model exactly.
  llc.flush_all();
  for (const auto& [addr, want] : model) {
    ASSERT_EQ(ext.read_scalar<std::uint32_t>(addr), want);
  }
  EXPECT_GT(llc.stats().evictions, 0u);
}

TEST_P(CachePropertyTest, StreamWithKernelLineClaims) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.llc.replacement = GetParam();
  sim::EventQueue events;
  mem::MainMemory ext(cfg.mem.data_base, cfg.mem.data_bytes, cfg.mem);
  vpu::LineStorage storage(cfg.llc);
  dma::DmaEngine dma(cfg.mem);
  Llc llc(cfg, events, ext, dma, storage);

  workloads::Rng rng(77);
  std::map<Addr, std::uint32_t> model;
  const Addr base = cfg.mem.data_base;
  const std::uint32_t span = 2 * cfg.llc.capacity_bytes();

  Cycle t = 0;
  std::uint64_t uid = 1;
  bool claimed = false;
  for (int i = 0; i < 8000; ++i) {
    if (i % 500 == 250) {
      // Claim half of VPU (uid%4)'s lines as "busy computing".
      const unsigned v = uid % cfg.llc.num_vpus;
      for (unsigned r = 0; r < cfg.llc.vpu.num_vregs / 2; ++r) {
        llc.claim_line(v, r, uid);
      }
      claimed = true;
    }
    if (i % 500 == 499 && claimed) {
      test::release_kernel_lines_everywhere(llc, cfg.llc, uid);
      ++uid;
      claimed = false;
    }
    const Addr addr =
        base + static_cast<Addr>(rng.uniform(0, span / 4 - 1)) * 4;
    if (rng.uniform(0, 1) == 0) {
      const auto v = static_cast<std::uint32_t>(rng.next());
      t = llc.host_access(addr, 4, true, const_cast<std::uint32_t*>(&v), t)
              .complete_at + 1;
      model[addr] = v;
    } else {
      std::uint32_t v = 0;
      t = llc.host_access(addr, 4, false, &v, t).complete_at + 1;
      const auto it = model.find(addr);
      ASSERT_EQ(v, it == model.end() ? 0u : it->second) << i;
    }
  }
  llc.flush_all();
  for (const auto& [addr, want] : model) {
    ASSERT_EQ(ext.read_scalar<std::uint32_t>(addr), want);
  }
}

TEST_P(CachePropertyTest, SmallLinesReachBothEndsOfTheDataRegion) {
  // 64-byte lines: the tag index covers the 8 MiB data region with 131072
  // blocks. The stream hits the first and last block hard and interleaves
  // kernel claims, releases and invalidate_all, checked against a flat
  // reference memory.
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.llc.vpu.vlen_bytes = 64;
  cfg.llc.replacement = GetParam();
  cfg.validate();
  ASSERT_EQ(cfg.mem.data_bytes / cfg.llc.line_bytes(), 131072u);
  sim::EventQueue events;
  mem::MainMemory ext(cfg.mem.data_base, cfg.mem.data_bytes, cfg.mem);
  vpu::LineStorage storage(cfg.llc);
  dma::DmaEngine dma(cfg.mem);
  Llc llc(cfg, events, ext, dma, storage);

  const Addr first = cfg.mem.data_base;
  const Addr last = first + cfg.mem.data_bytes - cfg.llc.line_bytes();
  std::uint32_t v = 0;
  Cycle t = 0;
  for (const Addr a : {first, last}) {
    EXPECT_FALSE(llc.host_access(a, 4, false, &v, t).hit);
    EXPECT_TRUE(llc.host_access(a + 60, 4, false, &v, t).hit);
  }

  workloads::Rng rng(31 * (static_cast<std::uint64_t>(GetParam()) + 1));
  std::map<Addr, std::uint32_t> model;
  std::uint64_t uid = 1;
  bool claimed = false;
  for (int i = 0; i < 6000; ++i) {
    if (i % 600 == 300) {
      const unsigned vpu = uid % cfg.llc.num_vpus;
      for (unsigned r = 0; r < cfg.llc.vpu.num_vregs / 2; ++r) {
        llc.claim_line(vpu, r, uid);
      }
      claimed = true;
    }
    if (i % 600 == 599 && claimed) {
      test::release_kernel_lines_everywhere(llc, cfg.llc, uid++);
      claimed = false;
    }
    if (i % 2000 == 1999) {
      llc.invalidate_all();
      EXPECT_FALSE(llc.host_access(first, 4, false, &v, t).hit) << i;
      EXPECT_FALSE(llc.host_access(last, 4, false, &v, t).hit) << i;
    }
    const Addr word = static_cast<Addr>(rng.uniform(0, 15)) * 4;
    Addr addr;
    switch (rng.uniform(0, 3)) {
      case 0: addr = first + word; break;
      case 1: addr = last + word; break;
      default:
        addr = first + static_cast<Addr>(rng.uniform(
                           0, cfg.mem.data_bytes / 4 - 1)) * 4;
        break;
    }
    if (rng.uniform(0, 1) == 0) {
      v = static_cast<std::uint32_t>(rng.next());
      t = llc.host_access(addr, 4, true, &v, t).complete_at + 1;
      model[addr] = v;
    } else {
      t = llc.host_access(addr, 4, false, &v, t).complete_at + 1;
      const auto it = model.find(addr);
      ASSERT_EQ(v, it == model.end() ? 0u : it->second)
          << "addr 0x" << std::hex << addr << " after " << std::dec << i;
    }
  }
  if (claimed) test::release_kernel_lines_everywhere(llc, cfg.llc, uid);
  llc.flush_all();
  for (const auto& [addr, want] : model) {
    ASSERT_EQ(ext.read_scalar<std::uint32_t>(addr), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CachePropertyTest,
                         ::testing::ValuesIn(kAllReplacementPolicies),
                         [](const auto& info) {
                           std::string n = replacement_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// ---------------------------------------------------------------------
// Structural invariants, checked under every policy.
// ---------------------------------------------------------------------

namespace {

/// The five objects every direct-LLC test needs, built around one policy.
struct CacheRig {
  explicit CacheRig(ReplacementPolicy pol) : cfg(SystemConfig::paper(4)) {
    cfg.llc.replacement = pol;
    ext = std::make_unique<mem::MainMemory>(cfg.mem.data_base,
                                            cfg.mem.data_bytes, cfg.mem);
    storage = std::make_unique<vpu::LineStorage>(cfg.llc);
    dma = std::make_unique<dma::DmaEngine>(cfg.mem);
    llc = std::make_unique<Llc>(cfg, events, *ext, *dma, *storage);
  }

  Cycle step(Addr addr, bool is_write, std::uint32_t* v) {
    t = llc->host_access(addr, 4, is_write, v, t).complete_at + 1;
    return t;
  }

  SystemConfig cfg;
  sim::EventQueue events;
  std::unique_ptr<mem::MainMemory> ext;
  std::unique_ptr<vpu::LineStorage> storage;
  std::unique_ptr<dma::DmaEngine> dma;
  std::unique_ptr<Llc> llc;
  Cycle t = 0;
};

/// FNV-1a over the externally observable cache state (line states, tags,
/// recency bookkeeping and hit/miss counters).
std::uint64_t state_hash(const CacheRig& rig) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ull;
    }
  };
  for (unsigned i = 0; i < rig.llc->num_lines(); ++i) {
    const Line& l = rig.llc->line(i);
    mix(static_cast<std::uint64_t>(l.state));
    mix(l.tag);
    mix(rig.llc->line_age(i));
    mix(l.lru_seq);
  }
  mix(rig.llc->stats().hits);
  mix(rig.llc->stats().misses);
  return h;
}

}  // namespace

class CacheInvariantTest
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(CacheInvariantTest, BusyLinesAreNeverEvicted) {
  CacheRig rig(GetParam());
  const Addr base = rig.cfg.mem.data_base;
  // Pin half of VPU 1 busy, then storm the cache far past capacity.
  const std::uint64_t uid = 7;
  const unsigned vregs = rig.cfg.llc.vpu.num_vregs;
  for (unsigned r = 0; r < vregs / 2; ++r) rig.llc->claim_line(1, r, uid);
  workloads::Rng rng(5 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 4000; ++i) {
    std::uint32_t v = static_cast<std::uint32_t>(rng.next());
    const Addr addr =
        base + static_cast<Addr>(rng.uniform(0, 1023)) * 1024;
    rig.step(addr, rng.uniform(0, 1) == 0, &v);
    if (i % 256 == 0) {
      for (unsigned r = 0; r < vregs / 2; ++r) {
        ASSERT_TRUE(rig.llc->line_is_busy(1, r)) << "access " << i;
      }
    }
  }
  for (unsigned r = 0; r < vregs / 2; ++r) {
    EXPECT_TRUE(rig.llc->line_is_busy(1, r));
  }
  test::release_kernel_lines_everywhere(*rig.llc, rig.cfg.llc, uid);
}

TEST_P(CacheInvariantTest, ResidentTagsFormABijection) {
  CacheRig rig(GetParam());
  const Addr base = rig.cfg.mem.data_base;
  workloads::Rng rng(17 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 6000; ++i) {
    std::uint32_t v = static_cast<std::uint32_t>(rng.next());
    const Addr addr = base + static_cast<Addr>(rng.uniform(0, 511)) * 1024;
    rig.step(addr, rng.uniform(0, 2) == 0, &v);
  }
  // Every resident line holds a distinct tag...
  std::map<Addr, unsigned> tag_of;
  unsigned residents = 0;
  for (unsigned i = 0; i < rig.llc->num_lines(); ++i) {
    const Line& l = rig.llc->line(i);
    if (l.state != LineState::kClean && l.state != LineState::kDirty) {
      continue;
    }
    ++residents;
    const auto [it, inserted] = tag_of.emplace(l.tag, i);
    ASSERT_TRUE(inserted) << "tag 0x" << std::hex << l.tag
                          << " resident in lines " << std::dec << it->second
                          << " and " << i;
  }
  EXPECT_EQ(residents, tag_of.size());
  // ...and accessing any resident tag hits (the lookup map agrees with the
  // line array).
  for (const auto& [tag, idx] : tag_of) {
    std::uint32_t v = 0;
    const auto res = rig.llc->host_access(tag, 4, false, &v, rig.t);
    rig.t = res.complete_at + 1;
    ASSERT_TRUE(res.hit) << "resident tag 0x" << std::hex << tag
                         << " missed (line " << std::dec << idx << ")";
  }
}

TEST_P(CacheInvariantTest, IdenticalRunsProduceIdenticalState) {
  auto run = [&] {
    CacheRig rig(GetParam());
    const Addr base = rig.cfg.mem.data_base;
    workloads::Rng rng(23 + static_cast<std::uint64_t>(GetParam()));
    std::uint64_t uid = 1;
    for (int i = 0; i < 5000; ++i) {
      if (i % 700 == 350) {
        for (unsigned r = 0; r < 8; ++r) {
          rig.llc->claim_line(uid % rig.cfg.llc.num_vpus, r, uid);
        }
      }
      if (i % 700 == 699) {
        test::release_kernel_lines_everywhere(*rig.llc, rig.cfg.llc, uid);
        ++uid;
      }
      std::uint32_t v = static_cast<std::uint32_t>(rng.next());
      const Addr addr =
          base + static_cast<Addr>(rng.uniform(0, 767)) * 1024;
      rig.step(addr, rng.uniform(0, 1) == 0, &v);
    }
    return state_hash(rig);
  };
  EXPECT_EQ(run(), run());  // bit-for-bit reproducible, every policy
}

TEST(CacheEquivalenceTest, AllPoliciesAgreeOnData) {
  // Replacement changes *which* lines are resident, never the values a
  // host observes or what lands in external memory after a flush.
  std::map<Addr, std::uint32_t> written;
  auto final_memory = [&](ReplacementPolicy pol) {
    CacheRig rig(pol);
    const Addr base = rig.cfg.mem.data_base;
    workloads::Rng rng(42);  // same stream for every policy
    written.clear();
    std::vector<std::uint32_t> reads;
    for (int i = 0; i < 6000; ++i) {
      const Addr addr = base + static_cast<Addr>(rng.uniform(0, 1023)) * 4;
      if (rng.uniform(0, 1) == 0) {
        auto v = static_cast<std::uint32_t>(rng.next());
        rig.step(addr, true, &v);
        written[addr] = v;
      } else {
        std::uint32_t v = 0;
        rig.step(addr, false, &v);
        reads.push_back(v);
      }
    }
    rig.llc->flush_all();
    std::vector<std::uint32_t> mem;
    mem.reserve(written.size());
    for (const auto& [addr, _] : written) {
      mem.push_back(rig.ext->read_scalar<std::uint32_t>(addr));
    }
    mem.insert(mem.end(), reads.begin(), reads.end());
    return mem;
  };
  const auto want = final_memory(kAllReplacementPolicies[0]);
  for (std::size_t i = 1;
       i < sizeof(kAllReplacementPolicies) / sizeof(ReplacementPolicy);
       ++i) {
    EXPECT_EQ(final_memory(kAllReplacementPolicies[i]), want)
        << replacement_name(kAllReplacementPolicies[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheInvariantTest,
                         ::testing::ValuesIn(kAllReplacementPolicies),
                         [](const auto& info) {
                           std::string n = replacement_name(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(CachePolicyTest, ApproxLruBeatsRandomOnLoopingWorkload) {
  // A working set slightly larger than capacity, accessed in a loop —
  // recency-friendly; approximate LRU should beat random replacement.
  auto hit_rate = [](ReplacementPolicy pol) {
    SystemConfig cfg = SystemConfig::paper(4);
    cfg.llc.replacement = pol;
    sim::EventQueue events;
    mem::MainMemory ext(cfg.mem.data_base, cfg.mem.data_bytes, cfg.mem);
    vpu::LineStorage storage(cfg.llc);
    dma::DmaEngine dma(cfg.mem);
    Llc llc(cfg, events, ext, dma, storage);
    const Addr base = cfg.mem.data_base;
    const unsigned lines = cfg.llc.num_lines();
    Cycle t = 0;
    std::uint32_t v;
    // Hot region: half the cache, touched often; cold region streams.
    for (int round = 0; round < 40; ++round) {
      for (unsigned i = 0; i < lines / 2; ++i) {
        t = llc.host_access(base + i * 1024, 4, false, &v, t).complete_at + 1;
      }
      for (unsigned i = 0; i < lines / 4; ++i) {
        const Addr cold = base + (lines + (round * lines / 4) + i) * 1024;
        t = llc.host_access(cold, 4, false, &v, t).complete_at + 1;
      }
    }
    return llc.stats().hit_rate();
  };
  EXPECT_GT(hit_rate(ReplacementPolicy::kApproxLru),
            hit_rate(ReplacementPolicy::kRandom));
}

}  // namespace
}  // namespace arcane::llc
