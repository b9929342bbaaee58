// Telemetry layer: histogram bucket math, exact Series percentiles,
// registry determinism, and the Perfetto exporter's structural validity.
// The flight recorder is a view of the scheduler's outcome log, covered in
// sched_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using telemetry::Histogram;
using telemetry::Registry;
using telemetry::Series;
using telemetry::SpanTracer;
using telemetry::TraceFile;

TEST(TelemetryTest, HistogramBucketBoundaries) {
  // Bucket 0 holds exactly 0; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), Histogram::kBuckets - 1);
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const std::uint64_t lo = std::uint64_t{1} << (i - 1);
    const std::uint64_t hi = Histogram::bucket_upper(i);
    EXPECT_EQ(Histogram::bucket_of(lo), i);
    EXPECT_EQ(Histogram::bucket_of(hi), i);
    EXPECT_EQ(hi, (std::uint64_t{1} << i) - 1);
  }
}

TEST(TelemetryTest, HistogramPercentileMatchesSortedReference) {
  // The histogram quotes the upper bound of the bucket containing the
  // requested rank, clamped to the true max. Verify against the exact
  // order statistic from a sorted copy.
  std::vector<std::uint64_t> values;
  std::uint64_t seed = 99;
  for (int i = 0; i < 500; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    values.push_back((seed >> 33) % 10000);
  }
  Histogram h;
  for (auto v : values) h.record(v);
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  EXPECT_EQ(h.count(), values.size());
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::min(std::max<std::size_t>(rank, 1), values.size());
    const std::uint64_t exact = sorted[rank - 1];
    const std::uint64_t expected = std::min(
        Histogram::bucket_upper(Histogram::bucket_of(exact)), h.max());
    EXPECT_EQ(h.percentile(q), expected) << "q=" << q;
    EXPECT_GE(h.percentile(q), exact);          // never under-reports
    if (exact > 0) {
      EXPECT_LT(h.percentile(q), 2 * exact + 1);  // within 2x
    }
  }
}

TEST(TelemetryTest, SeriesPercentileMatchesBenchRule) {
  // Series::percentile must replicate benchjson::percentile exactly:
  // ascending sort, then sorted[size_t(q * (n - 1))].
  std::vector<std::uint64_t> values = {17, 3, 99, 3, 42, 7, 58, 1, 23, 88, 5};
  Series s;
  for (auto v : values) s.record(v);
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    EXPECT_EQ(s.percentile(q), sorted[idx]) << "q=" << q;
  }
  EXPECT_EQ(Series().percentile(0.5), 0u);  // empty -> 0, like the benches
}

TEST(TelemetryTest, SeriesTruncatesAtCapacity) {
  Series s(4);
  for (std::uint64_t v = 0; v < 10; ++v) s.record(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_EQ(s.truncated(), 6u);
  EXPECT_EQ(s.samples().back(), 3u);  // keeps the earliest samples
}

TEST(TelemetryTest, RegistryValueAndSnapshotOrder) {
  Registry reg;
  reg.counter("b.count").add(7);
  reg.gauge("c.level").set(3);
  std::uint64_t external = 41;
  reg.bind("a.bound", [&external] { return external; });
  ++external;

  EXPECT_EQ(reg.value("a.bound"), 42u);  // read-through, not a copy
  EXPECT_EQ(reg.value("b.count"), 7u);
  EXPECT_EQ(reg.value("no.such.metric"), 0u);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].first, "a.bound");  // name-sorted, deterministic
  EXPECT_EQ(snap[1].first, "b.count");
  EXPECT_EQ(snap[2].first, "c.level");
}

XProgram small_kernel_program(System& sys) {
  workloads::Rng rng(3);
  auto X = workloads::Matrix<std::int32_t>::random(8, 8, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base() + 0x1000, X);
  XProgram prog;
  prog.xmr(0, sys.data_base() + 0x1000, X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  return prog;
}

TEST(TelemetryTest, RegistryViewsMatchComponentStats) {
  System sys(SystemConfig::paper(4));
  auto prog = small_kernel_program(sys);
  sys.load_program(prog.finish());
  sys.run();

  EXPECT_EQ(sys.metrics().value("llc.misses"), sys.llc().stats().misses);
  EXPECT_EQ(sys.metrics().value("llc.refills"), sys.llc().stats().refills);
  EXPECT_EQ(sys.metrics().value("dma.descriptors"),
            sys.dma().stats().descriptors);
  EXPECT_EQ(sys.metrics().value("crt.kernels_executed"),
            sys.runtime().phases().kernels_executed);
  EXPECT_EQ(sys.metrics().value("mem.bursts"),
            sys.mem_backend().stats().bursts);
  EXPECT_GT(sys.metrics().value("llc.refills"), 0u);
  EXPECT_GT(sys.metrics().value("crt.kernels_executed"), 0u);
}

TEST(TelemetryTest, RegistryDumpIsDeterministic) {
  auto dump = [] {
    System sys(SystemConfig::paper(4));
    auto prog = small_kernel_program(sys);
    sys.load_program(prog.finish());
    sys.run();
    std::ostringstream os;
    sys.metrics().write_json(os);
    return os.str();
  };
  const std::string a = dump();
  const std::string b = dump();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical runs -> byte-identical metric dumps
}

// Minimal structural JSON check: quotes respected, braces/brackets balance,
// and the document is a single object. Not a full parser, but enough to
// catch unescaped strings, trailing commas at the container level, and
// truncated output.
void expect_balanced_json(std::string text) {
  while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
    text.pop_back();
  }
  ASSERT_FALSE(text.empty());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']': --depth; break;
      default: break;
    }
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.back(), '}');
}

TEST(TelemetryTest, PerfettoExportRoundTrip) {
  SpanTracer spans;
  spans.enable();
  spans.instant(telemetry::kTrackEcpu, "offload.xmr", 10);
  spans.span(telemetry::track_vpu(0), "compute", 20, 90, -1, 7, 64);
  spans.span(telemetry::track_tenant(2), "job \"quoted\"", 5, 200, 2, 9);
  spans.instant(telemetry::kTrackLlc, "llc.refill", 33, -1, -1, 0x1000);

  TraceFile trace;
  const int pid = trace.add_process("unit-test run", spans);
  EXPECT_GE(pid, 1);
  std::ostringstream os;
  trace.write(os);
  const std::string text = os.str();

  expect_balanced_json(text);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);  // complete spans
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);  // instants
  EXPECT_NE(text.find("compute"), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);  // escaping
  EXPECT_NE(text.find("VPU 0"), std::string::npos);   // track naming
  EXPECT_NE(text.find("tenant 2"), std::string::npos);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TelemetryTest, RegistryJsonIsStructurallyValid) {
  System sys(SystemConfig::paper(4));
  auto prog = small_kernel_program(sys);
  sys.load_program(prog.finish());
  sys.run();
  std::ostringstream os;
  sys.metrics().write_json(os);
  expect_balanced_json(os.str());
  EXPECT_NE(os.str().find("\"llc.hits\""), std::string::npos);
}

// Metric names flow into the JSON dump verbatim; hostile characters
// (quotes, backslashes, control chars from a future user-supplied tenant
// label) must come out escaped, not as truncated/invalid JSON.
TEST(TelemetryTest, RegistryJsonEscapesHostileNames) {
  Registry reg;
  reg.counter("evil\"name").add(1);
  reg.counter("back\\slash").add(2);
  reg.counter("multi\nline\ttab").add(3);
  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  expect_balanced_json(text);
  EXPECT_NE(text.find("\"evil\\\"name\""), std::string::npos);
  EXPECT_NE(text.find("\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(text.find("\"multi\\nline\\ttab\""), std::string::npos);
  // The raw control characters themselves must not survive inside names
  // (the dump's own pretty-printing newlines are outside strings).
  EXPECT_EQ(text.find("multi\nline"), std::string::npos);
  EXPECT_EQ(text.find('\t'), std::string::npos);
}

// The histogram's percentile (upper bound of the rank's power-of-two
// bucket, clamped to the true max) must agree with the Series' exact
// order statistic to within bucket resolution: never below it, never
// 2x-or-more above it.
TEST(TelemetryTest, SeriesAndHistogramPercentilesAgreeWithinBucket) {
  Series series;
  Histogram hist;
  std::uint64_t seed = 7;
  for (int i = 0; i < 2000; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t v = 1 + ((seed >> 33) % 100000);
    series.record(v);
    hist.record(v);
  }
  for (double q : {0.10, 0.50, 0.90, 0.99, 1.0}) {
    const std::uint64_t exact = series.percentile(q);
    const std::uint64_t bucketed = hist.percentile(q);
    ASSERT_GT(exact, 0u);
    EXPECT_GE(bucketed, exact) << "q=" << q;
    EXPECT_LT(bucketed, 2 * exact) << "q=" << q;
  }
  // Degenerate distribution: both quote the exact value.
  Series one_s;
  Histogram one_h;
  for (int i = 0; i < 32; ++i) {
    one_s.record(4096);
    one_h.record(4096);
  }
  EXPECT_EQ(one_s.percentile(0.5), 4096u);
  EXPECT_EQ(one_h.percentile(0.5), 4096u);
}

}  // namespace
}  // namespace arcane
