// LLC controller unit tests: hit/miss behaviour, write-back, replacement,
// locking, busy lines, through-cache DMA data paths.
#include <gtest/gtest.h>

#include "dma/dma.hpp"
#include "llc/llc.hpp"
#include "mem/main_memory.hpp"
#include "sim/event_queue.hpp"
#include "vpu/line_storage.hpp"
#include "test_support.hpp"

namespace arcane::llc {
namespace {

struct Fixture {
  SystemConfig cfg = SystemConfig::paper(4);
  sim::EventQueue events;
  mem::MainMemory ext{cfg.mem.data_base, cfg.mem.data_bytes, cfg.mem};
  vpu::LineStorage storage{cfg.llc};
  dma::DmaEngine dma{cfg.mem};
  Llc llc{cfg, events, ext, dma, storage};

  Addr base() const { return cfg.mem.data_base; }

  std::uint32_t read32(Addr a, Cycle t = 0) {
    std::uint32_t v = 0;
    llc.host_access(a, 4, false, &v, t);
    return v;
  }
  Cycle write32(Addr a, std::uint32_t v, Cycle t = 0) {
    return llc.host_access(a, 4, true, &v, t).complete_at;
  }
};

TEST(CacheTest, MissThenHit) {
  Fixture f;
  f.ext.write_scalar<std::uint32_t>(f.base() + 0x40, 77);
  EXPECT_EQ(f.read32(f.base() + 0x40), 77u);
  EXPECT_EQ(f.llc.stats().misses, 1u);
  std::uint32_t v = 0;
  f.llc.host_access(f.base() + 0x44, 4, false, &v, 1000);
  EXPECT_EQ(f.llc.stats().hits, 1u);
}

TEST(CacheTest, HitIsSingleCycle) {
  Fixture f;
  f.read32(f.base());  // refill
  std::uint32_t v;
  const Cycle t0 = 100000;
  auto r = f.llc.host_access(f.base() + 8, 4, false, &v, t0);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.complete_at, t0 + f.cfg.llc.hit_latency);
}

TEST(CacheTest, WriteAllocatesAndDirties) {
  Fixture f;
  f.write32(f.base() + 0x100, 0xAA55);
  EXPECT_EQ(f.llc.stats().misses, 1u);
  // Data visible through the cache, not yet in external memory.
  EXPECT_EQ(f.read32(f.base() + 0x100, 5000), 0xAA55u);
  EXPECT_NE(f.ext.read_scalar<std::uint32_t>(f.base() + 0x100), 0xAA55u);
  f.llc.flush_all();
  EXPECT_EQ(f.ext.read_scalar<std::uint32_t>(f.base() + 0x100), 0xAA55u);
}

TEST(CacheTest, EvictionWritesBackDirtyLine) {
  Fixture f;
  const unsigned lines = f.cfg.llc.num_lines();
  const unsigned lb = f.cfg.llc.line_bytes();
  f.write32(f.base(), 123);  // dirty line 0
  Cycle t = 1000;
  // Touch enough distinct lines to force eviction of the first.
  for (unsigned i = 1; i <= lines; ++i) {
    t = f.write32(f.base() + i * lb, i, t) + 1;
  }
  EXPECT_GE(f.llc.stats().writebacks, 1u);
  EXPECT_EQ(f.ext.read_scalar<std::uint32_t>(f.base()), 123u);
}

TEST(CacheTest, ApproxLruPrefersColdLines) {
  Fixture f;
  const unsigned lines = f.cfg.llc.num_lines();
  const unsigned lb = f.cfg.llc.line_bytes();
  Cycle t = 0;
  // Fill the cache.
  for (unsigned i = 0; i < lines; ++i) t = f.write32(f.base() + i * lb, i, t) + 1;
  // Keep line 0 hot with many accesses while ages decay.
  for (unsigned i = 0; i < 200; ++i) t = f.write32(f.base(), 7, t) + 1;
  // A new line must not evict the hot line 0.
  t = f.write32(f.base() + lines * lb, 9, t) + 1;
  EXPECT_EQ(f.read32(f.base(), t + 10), 7u);
  EXPECT_EQ(f.llc.stats().hits + f.llc.stats().misses,
            f.llc.stats().reads + f.llc.stats().writes);
  // Line 0 still resident => that final read was a hit.
  EXPECT_EQ(f.llc.stats().misses, lines + 1u);
}

TEST(CacheTest, LockStallsHost) {
  Fixture f;
  f.read32(f.base());  // warm line
  f.llc.lock_until(5000);
  std::uint32_t v;
  const auto r = f.llc.host_access(f.base(), 4, false, &v, 1000);
  EXPECT_GE(r.complete_at, 5000u);
  EXPECT_GE(f.llc.stats().stalls.lock, 3990u);
}

TEST(CacheTest, BusyLinesExcludedFromReplacement) {
  Fixture f;
  // Claim every line of every VPU except one line.
  for (unsigned v = 0; v < f.cfg.llc.num_vpus; ++v) {
    for (unsigned r = 0; r < f.cfg.llc.vpu.num_vregs; ++r) {
      if (v == 0 && r == 0) continue;
      f.llc.claim_line(v, r, 42);
    }
  }
  // Two different lines must map onto the single free slot sequentially.
  f.read32(f.base(), 0);
  std::uint32_t x;
  f.llc.host_access(f.base() + 4096, 4, false, &x, 50000);
  EXPECT_EQ(f.llc.stats().evictions, 1u);  // the free line was recycled
  test::release_kernel_lines_everywhere(f.llc, f.cfg.llc, 42);
  EXPECT_EQ(f.llc.busy_lines_in_vpu(1), 0u);
}

TEST(CacheTest, AllLinesBusyDeadlockDetected) {
  Fixture f;
  for (unsigned v = 0; v < f.cfg.llc.num_vpus; ++v) {
    for (unsigned r = 0; r < f.cfg.llc.vpu.num_vregs; ++r) {
      f.llc.claim_line(v, r, 42);
    }
  }
  std::uint32_t x;
  EXPECT_THROW(f.llc.host_access(f.base(), 4, false, &x, 0), Error);
}

TEST(CacheTest, ClaimDirtyLineWritesBack) {
  Fixture f;
  f.write32(f.base(), 555);  // dirty some line
  // Find which line holds it by claiming all lines of each VPU until cost.
  std::uint64_t ext_bytes = 0;
  for (unsigned v = 0; v < f.cfg.llc.num_vpus; ++v) {
    for (unsigned r = 0; r < f.cfg.llc.vpu.num_vregs; ++r) {
      ext_bytes += f.llc.claim_line(v, r, 1).ext_bytes;
    }
  }
  EXPECT_EQ(ext_bytes, f.cfg.llc.line_bytes());
  EXPECT_EQ(f.ext.read_scalar<std::uint32_t>(f.base()), 555u);
}

TEST(CacheTest, ReadRangeForwardsFromDirtyLines) {
  Fixture f;
  f.write32(f.base() + 16, 0xBEEF);  // dirty in cache only
  std::vector<std::uint8_t> buf(32);
  const auto cost = f.llc.read_range(f.base(), buf);
  EXPECT_EQ(cost.cache_bytes, 32u);
  EXPECT_EQ(cost.ext_bytes, 0u);
  std::uint32_t v;
  std::memcpy(&v, buf.data() + 16, 4);
  EXPECT_EQ(v, 0xBEEFu);
}

TEST(CacheTest, ReadRangeStreamsMissesFromExternal) {
  Fixture f;
  f.ext.write_scalar<std::uint32_t>(f.base() + 0x800, 99);
  std::vector<std::uint8_t> buf(4);
  const auto cost = f.llc.read_range(f.base() + 0x800, buf);
  EXPECT_EQ(cost.ext_bytes, 4u);
  EXPECT_EQ(cost.ext_bursts, 1u);
  // No allocation happened.
  EXPECT_EQ(f.llc.stats().refills, 0u);
}

TEST(CacheTest, ReadRangeSpanningCachedAndUncached) {
  Fixture f;
  const unsigned lb = f.cfg.llc.line_bytes();
  f.write32(f.base(), 1);  // line 0 cached
  std::vector<std::uint8_t> buf(2 * lb);
  const auto cost = f.llc.read_range(f.base(), buf);
  EXPECT_EQ(cost.cache_bytes, lb);
  EXPECT_EQ(cost.ext_bytes, lb);
}

TEST(CacheTest, WriteRangeFetchOnWrite) {
  Fixture f;
  // Pre-set bytes around the written region in external memory.
  f.ext.write_scalar<std::uint32_t>(f.base() + 0, 0x11111111);
  std::vector<std::uint8_t> data(16, 0xAB);
  const auto cost = f.llc.write_range(f.base() + 4, data);
  EXPECT_GT(cost.ext_bytes, 0u);  // partial line fetched
  // Neighbouring data preserved, written data visible through the cache.
  std::uint8_t out[20];
  f.llc.backdoor_read(f.base(), out, 20);
  EXPECT_EQ(out[0], 0x11);
  EXPECT_EQ(out[4], 0xAB);
  EXPECT_EQ(out[19], 0xAB);
}

TEST(CacheTest, WriteRangeResultsAreCacheHot) {
  Fixture f;
  std::vector<std::uint8_t> data(f.cfg.llc.line_bytes(), 0x5A);
  f.llc.write_range(f.base() + 4096, data);
  std::uint32_t v;
  auto r = f.llc.host_access(f.base() + 4096, 4, false, &v, 100);
  EXPECT_TRUE(r.hit);  // paper: pending requests served with latest data
  EXPECT_EQ(v, 0x5A5A5A5Au);
}

TEST(CacheTest, BackdoorMergesCacheAndMemory) {
  Fixture f;
  f.ext.write_scalar<std::uint32_t>(f.base() + 8, 111);
  f.write32(f.base() + 4, 222);
  std::uint32_t out[3];
  f.llc.backdoor_read(f.base(), out, 12);
  EXPECT_EQ(out[1], 222u);
  EXPECT_EQ(out[2], 111u);
}

TEST(CacheTest, InvalidateAllFlushesFirst) {
  Fixture f;
  f.write32(f.base() + 64, 999);
  f.llc.invalidate_all();
  EXPECT_EQ(f.ext.read_scalar<std::uint32_t>(f.base() + 64), 999u);
  // Next access misses again.
  const auto before = f.llc.stats().misses;
  f.read32(f.base() + 64, 100000);
  EXPECT_EQ(f.llc.stats().misses, before + 1);
}

TEST(CacheTest, DirtyLineCountsPerVpu) {
  Fixture f;
  // Dirty a handful of lines; they land in pass-1 invalid slots (VPU 0
  // first), so VPU 0 accumulates dirty lines.
  Cycle t = 0;
  for (unsigned i = 0; i < 4; ++i) {
    t = f.write32(f.base() + i * f.cfg.llc.line_bytes(), i, t) + 1;
  }
  unsigned total = 0;
  for (unsigned v = 0; v < f.cfg.llc.num_vpus; ++v) {
    total += f.llc.dirty_lines_in_vpu(v);
  }
  EXPECT_EQ(total, 4u);
}

TEST(CacheTest, ReplacementPolicyRandomIsDeterministic) {
  auto run = [] {
    Fixture f;
    f.cfg.llc.replacement = ReplacementPolicy::kRandom;
    Llc llc(f.cfg, f.events, f.ext, f.dma, f.storage);
    Cycle t = 0;
    std::uint32_t v = 1;
    for (unsigned i = 0; i < 300; ++i) {
      t = llc.host_access(f.base() + (i % 200) * 1024, 4, true, &v, t)
              .complete_at + 1;
    }
    return llc.stats().writebacks;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace arcane::llc
