// SpanTracer: enable/disable gating, bounded-buffer drop accounting, and
// end-to-end span capture through a full System run.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "telemetry/span.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using telemetry::SpanKind;
using telemetry::SpanTracer;

std::set<std::string> span_names(const SpanTracer& t) {
  std::set<std::string> names;
  for (const auto& e : t.events()) names.insert(e.name);
  return names;
}

TEST(TraceTest, DisabledByDefaultRecordsNothing) {
  SpanTracer t;
  t.span(telemetry::kTrackLlc, "llc.refill", 10, 20);
  t.instant(telemetry::kTrackEcpu, "offload.xmr", 5);
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceTest, BoundedBufferDropsNewEventsAndCounts) {
  SpanTracer t(4);
  t.enable();
  for (int i = 0; i < 10; ++i) {
    t.instant(telemetry::kTrackDma, "dma.xfer", static_cast<Cycle>(i),
              /*tenant=*/-1, /*job=*/-1, /*arg=*/i);
  }
  // Drop-new policy: the first `capacity` events survive, later ones are
  // counted but not stored (old events stay addressable for exporters).
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(t.events().front().arg, 0);
  EXPECT_EQ(t.events().back().arg, 3);
}

TEST(TraceTest, EndToEndKernelSpansCaptured) {
  System sys(SystemConfig::paper(4));
  sys.spans().enable();
  workloads::Rng rng(1);
  auto X = workloads::Matrix<std::int32_t>::random(8, 8, rng, -5, 5);
  workloads::store_matrix(sys, sys.data_base() + 0x1000, X);
  XProgram prog;
  prog.xmr(0, sys.data_base() + 0x1000, X.shape(), ElemType::kWord);
  prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
  prog.leaky_relu(1, 0, 0, ElemType::kWord);
  prog.sync_read(sys.data_base() + 0x8000);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  const auto names = span_names(sys.spans());
  EXPECT_TRUE(names.count("offload.xmr")) << "xmr accept instant missing";
  EXPECT_TRUE(names.count("offload.xmk")) << "xmk accept instant missing";
  EXPECT_TRUE(names.count("decode.kernel"));
  EXPECT_TRUE(names.count("kernel.launch"));
  EXPECT_TRUE(names.count("kernel.done"));
  EXPECT_TRUE(names.count("alloc"));
  EXPECT_TRUE(names.count("compute"));

  // Every span is well-formed in sim time.
  for (const auto& e : sys.spans().events()) {
    EXPECT_GE(e.end, e.begin) << e.name;
    if (e.kind == SpanKind::kInstant) {
      EXPECT_EQ(e.end, e.begin);
    }
  }
}

TEST(TraceTest, CacheRefillSpansTraced) {
  System sys(SystemConfig::paper(4));
  sys.spans().enable();
  using isa::Reg;
  XProgram prog;
  auto& a = prog.a();
  a.li(Reg::kT0, static_cast<std::int32_t>(sys.data_base()));
  a.lw(Reg::kA0, Reg::kT0, 0);
  a.ecall();
  sys.load_program(prog.finish());
  sys.run_unchecked();
  unsigned refills = 0;
  for (const auto& e : sys.spans().events()) {
    if (std::string(e.name) == "llc.refill") {
      ++refills;
      EXPECT_EQ(e.track, telemetry::kTrackLlc);
      EXPECT_GT(e.end, e.begin);  // a refill burst takes time
    }
  }
  EXPECT_GE(refills, 1u);
}

TEST(TraceTest, RejectedOffloadTraced) {
  System sys(SystemConfig::paper(4));
  sys.spans().enable();
  XProgram prog;
  prog.xmk(23, ElemType::kByte, {});
  prog.halt();
  sys.load_program(prog.finish());
  sys.run_unchecked();
  EXPECT_TRUE(span_names(sys.spans()).count("offload.xmk.reject"));
}

TEST(TraceTest, DisabledSpansDoNotPerturbSimulation) {
  auto run = [](bool traced) {
    System sys(SystemConfig::paper(4));
    if (traced) sys.spans().enable();
    workloads::Rng rng(7);
    auto X = workloads::Matrix<std::int32_t>::random(8, 8, rng, -5, 5);
    workloads::store_matrix(sys, sys.data_base() + 0x1000, X);
    XProgram prog;
    prog.xmr(0, sys.data_base() + 0x1000, X.shape(), ElemType::kWord);
    prog.xmr(1, sys.data_base() + 0x8000, X.shape(), ElemType::kWord);
    prog.leaky_relu(1, 0, 0, ElemType::kWord);
    prog.sync_read(sys.data_base() + 0x8000);
    prog.halt();
    sys.load_program(prog.finish());
    sys.run();
    return sys.events().now();
  };
  // Tracing is an observer: enabling it cannot change simulated time.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace arcane
