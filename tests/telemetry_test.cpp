// Telemetry layer: the registry's table-bound views and their catalogue in
// docs/OBSERVABILITY.md, registry determinism, the shared JSON escaper and
// the Perfetto exporter's structural validity. The flight recorder is a
// view of the scheduler's outcome log, covered in sched_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "common/json.hpp"
#include "sched/pipelines.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "workloads/tensors.hpp"

namespace arcane {
namespace {

using telemetry::Registry;
using telemetry::SpanTracer;
using telemetry::TraceFile;

struct Probe {
  std::uint64_t b = 0;
  std::uint64_t a = 0;
};

constexpr auto kProbe = std::to_array<telemetry::Field<Probe>>({
    {"b", telemetry::member<&Probe::b>},
    {"a", telemetry::member<&Probe::a>},
});

TEST(TelemetryTest, RegistryValueAndSnapshotOrder) {
  Probe live{7, 41};
  std::vector<Probe> items(2);
  Registry reg;
  reg.add("z.", [&] { return live; }, kProbe);
  reg.add_indexed(
      "x.item<i>.", [&] { return static_cast<unsigned>(items.size()); },
      [&](unsigned i) { return items[i]; }, kProbe);
  ++live.a;

  EXPECT_EQ(reg.value("z.a"), 42u);  // read-through, not a copy
  EXPECT_EQ(reg.value("z.b"), 7u);
  EXPECT_EQ(reg.value("no.such.metric"), 0u);
  items.push_back({5, 6});  // instances are counted when read
  EXPECT_EQ(reg.value("x.item2.b"), 5u);

  std::vector<std::string> names;
  for (const auto& [name, v] : reg.snapshot()) names.push_back(name);
  const std::vector<std::string> want = {  // name-sorted, deterministic
      "x.item0.a", "x.item0.b", "x.item1.a", "x.item1.b",
      "x.item2.a", "x.item2.b", "z.a",       "z.b"};
  EXPECT_EQ(names, want);
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
      EXPECT_GE(static_cast<unsigned char>(c), 0x20)
          << "raw control character inside a JSON string";
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

// Every JSON writer (registry dump, trace exporter, bench harness) escapes
// through json_escape: quotes, backslashes and every control character
// must come out escaped, never as raw bytes that make the document invalid.
TEST(TelemetryTest, JsonEscapeHandlesHostileNames) {
  EXPECT_EQ(json_escape("evil\"name"), "evil\\\"name");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("multi\nline\ttab"), "multi\\nline\\ttab");
  EXPECT_EQ(json_escape(std::string("cr\r soh\x01 nul") + '\0'),
            "cr\\u000d soh\\u0001 nul\\u0000");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 untouched
}

TEST(TelemetryTest, TraceFileEscapesControlCharacters) {
  SpanTracer spans;
  spans.enable();
  spans.instant(telemetry::kTrackEcpu, "offload.xmr", 10);
  TraceFile trace;
  trace.add_process("run\r\x01name", spans);
  std::ostringstream os;
  trace.write(os);
  const std::string text = os.str();
  expect_balanced_json(text);
  EXPECT_NE(text.find("run\\u000d\\u0001name"), std::string::npos);
}

/// `name` as the catalogue writes it: tenant and VPU indices as <i>.
std::string catalogue_name(std::string name) {
  auto index_at = [&name](std::size_t at) {
    std::size_t end = at;
    while (end < name.size() && name[end] >= '0' && name[end] <= '9') ++end;
    if (end > at) name.replace(at, end - at, "<i>");
  };
  if (name.starts_with("vpu")) index_at(std::strlen("vpu"));
  if (const auto at = name.find(".tenant"); at != std::string::npos) {
    index_at(at + std::strlen(".tenant"));
  }
  return name;
}

/// A dotted lowercase name that does not end in '.': prefixes end in '.',
/// and C++ names hold ':' or capitals.
bool is_metric_name(const std::string& s) {
  const auto allowed = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '<' || c == '>' || c == '.';
  };
  return !s.empty() && s.front() != '.' && s.back() != '.' &&
         s.find('.') != std::string::npos &&
         std::all_of(s.begin(), s.end(), allowed);
}

/// Every backticked metric name in the Names column of the registry table
/// in docs/OBSERVABILITY.md.
std::set<std::string> catalogued_names() {
  std::ifstream in(ARCANE_OBSERVABILITY_MD);
  EXPECT_TRUE(in) << ARCANE_OBSERVABILITY_MD;
  std::set<std::string> names;
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with("| Prefix | Source | Names |")) {
      in_table = true;
      continue;
    }
    if (!in_table) continue;
    if (!line.starts_with('|')) break;
    // The Names cell follows the row's third '|' (after Prefix and Source).
    const std::size_t source_at = line.find('|', 1);
    if (source_at == std::string::npos) continue;
    std::size_t open = line.find('|', source_at + 1);
    while ((open = line.find('`', open)) != std::string::npos) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      std::string tick = line.substr(open + 1, close - open - 1);
      if (is_metric_name(tick)) names.insert(std::move(tick));
      open = close + 1;
    }
  }
  return names;
}

// The registry table in docs/OBSERVABILITY.md names exactly the registry's
// entries (indices written as <i>): each snapshot name is in the table and
// each name in the table is live. Every group is live here: a submitted QoS
// tenant, the host tenant the first offload creates, and fault.*.
TEST(TelemetryTest, EveryMetricIsInTheCatalogue) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.fault.enabled = true;
  System sys(cfg);
  auto& adm = sys.admission();
  const unsigned t = adm.add_tenant("t0");
  workloads::Rng rng(5);
  const sched::PipelineSlot slot(sys.data_base() + 0x10000);
  sched::place_pipeline_data(sys, slot, sched::random_pipeline_data(rng));
  adm.submit(t, sched::pipeline_job(slot), 0);
  adm.drain();
  auto prog = small_kernel_program(sys);
  sys.load_program(prog.finish());
  sys.run();
  ASSERT_EQ(sys.scheduler().num_tenants(), 2u);  // t0 + the host tenant

  const auto snap = sys.metrics().snapshot();
  EXPECT_GT(snap.size(), 100u);
  std::set<std::string> live;
  for (const auto& [name, v] : snap) live.insert(catalogue_name(name));
  const std::set<std::string> doc = catalogued_names();
  ASSERT_FALSE(doc.empty()) << "no registry table in docs/OBSERVABILITY.md";
  for (const std::string& name : live) {
    EXPECT_TRUE(doc.contains(name))
        << name << " is missing from docs/OBSERVABILITY.md";
  }
  for (const std::string& name : doc) {
    EXPECT_TRUE(live.contains(name))
        << name << " is in docs/OBSERVABILITY.md but not in the registry";
  }
}

}  // namespace
}  // namespace arcane
