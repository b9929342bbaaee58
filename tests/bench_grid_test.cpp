// Unit tests for the declarative bench-harness API in bench/grid.hpp:
// knob registration/parsing/rejection, env fallbacks, grid enumeration
// (products, explicit cells, bound-knob collapse) and --cell binding.
//
// The parse-or-die wrapper (Harness::parse) exits the process on
// rejection, so everything here drives the testable core
// Harness::try_parse.
#include <cstdlib>

#include <gtest/gtest.h>

#include "grid.hpp"

namespace arcane::benchjson {
namespace {

// Env vars the standard registry reads; cleared around every test so a
// polluted CI environment cannot leak into the expectations.
const char* const kEnvVars[] = {
    "ARCANE_BENCH_DETERMINISTIC", "ARCANE_BENCH_BACKEND",
    "ARCANE_BENCH_LANES", "ARCANE_BENCH_REPLACEMENT",
    "ARCANE_BENCH_SCHED_POLICY"};

class BenchGridTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* v : kEnvVars) unsetenv(v);
    g_deterministic = false;
  }
  void TearDown() override {
    for (const char* v : kEnvVars) unsetenv(v);
    g_deterministic = false;
  }

  // try_parse wrapper asserting success.
  Options parse_ok(Harness& h, const std::vector<std::string>& args) {
    Options opt;
    Harness::Action action = Harness::Action::kRun;
    std::string err;
    EXPECT_TRUE(h.try_parse(args, &opt, &action, &err)) << err;
    EXPECT_EQ(action, Harness::Action::kRun);
    return opt;
  }

  // try_parse wrapper asserting rejection; returns the error text.
  std::string parse_err(Harness& h, const std::vector<std::string>& args) {
    Options opt;
    Harness::Action action = Harness::Action::kRun;
    std::string err;
    EXPECT_FALSE(h.try_parse(args, &opt, &action, &err));
    return err;
  }
};

TEST_F(BenchGridTest, DefaultsMatchLegacyOptions) {
  Harness h("t");
  const Options opt = parse_ok(h, {});
  EXPECT_FALSE(opt.json);
  EXPECT_FALSE(opt.deterministic);
  EXPECT_FALSE(opt.backend.has_value());
  EXPECT_FALSE(opt.lanes.has_value());
  EXPECT_FALSE(opt.replacement.has_value());
  EXPECT_FALSE(opt.sched_policy.has_value());
}

TEST_F(BenchGridTest, FlagsParse) {
  Harness h("t");
  const Options opt = parse_ok(h, {"--json", "--deterministic"});
  EXPECT_TRUE(opt.json);
  EXPECT_TRUE(opt.deterministic);
}

TEST_F(BenchGridTest, ChoiceKnobsParseIntoTypedOptions) {
  Harness h("t");
  const Options opt = parse_ok(
      h, {"--backend=psram", "--lanes=8", "--replacement=arc",
          "--sched-policy=sjf"});
  ASSERT_TRUE(opt.backend.has_value());
  EXPECT_EQ(*opt.backend, MemBackendKind::kBurstPsram);
  ASSERT_TRUE(opt.lanes.has_value());
  EXPECT_EQ(*opt.lanes, 8u);
  ASSERT_TRUE(opt.replacement.has_value());
  EXPECT_EQ(*opt.replacement, ReplacementPolicy::kArc);
  ASSERT_TRUE(opt.sched_policy.has_value());
  EXPECT_EQ(*opt.sched_policy, SchedPolicy::kSjf);
}

TEST_F(BenchGridTest, UnknownFlagIsHardError) {
  Harness h("t");
  EXPECT_NE(parse_err(h, {"--frobnicate"}).find("unknown flag"),
            std::string::npos);
}

TEST_F(BenchGridTest, InvalidChoiceValueIsHardError) {
  Harness h("t");
  const std::string err = parse_err(h, {"--backend=flash"});
  EXPECT_NE(err.find("bad value 'flash'"), std::string::npos);
  EXPECT_NE(err.find("ideal|psram|dram"), std::string::npos);
}

TEST_F(BenchGridTest, EnvFallbackBindsChoices) {
  setenv("ARCANE_BENCH_BACKEND", "dram", 1);
  setenv("ARCANE_BENCH_DETERMINISTIC", "1", 1);
  Harness h("t");
  const Options opt = parse_ok(h, {});
  ASSERT_TRUE(opt.backend.has_value());
  EXPECT_EQ(*opt.backend, MemBackendKind::kDramTiming);
  EXPECT_TRUE(opt.deterministic);
}

TEST_F(BenchGridTest, EnvFlagLooseTruthiness) {
  setenv("ARCANE_BENCH_DETERMINISTIC", "0", 1);
  Harness h("t");
  EXPECT_FALSE(parse_ok(h, {}).deterministic);
  setenv("ARCANE_BENCH_DETERMINISTIC", "false", 1);
  Harness h2("t");
  EXPECT_FALSE(parse_ok(h2, {}).deterministic);
}

TEST_F(BenchGridTest, InvalidEnvChoiceIsHardError) {
  setenv("ARCANE_BENCH_BACKEND", "flash", 1);
  Harness h("t");
  EXPECT_NE(parse_err(h, {}).find("ARCANE_BENCH_BACKEND"),
            std::string::npos);
}

TEST_F(BenchGridTest, FlagOverridesEnv) {
  setenv("ARCANE_BENCH_BACKEND", "dram", 1);
  Harness h("t");
  const Options opt = parse_ok(h, {"--backend=ideal"});
  ASSERT_TRUE(opt.backend.has_value());
  EXPECT_EQ(*opt.backend, MemBackendKind::kIdealSram);
}

TEST_F(BenchGridTest, DeterministicFlagZeroesWallClock) {
  Harness h("t");
  const Options opt = parse_ok(h, {"--deterministic"});
  EXPECT_TRUE(opt.deterministic);
  EXPECT_TRUE(g_deterministic);
}

TEST_F(BenchGridTest, BenchLocalKnobAndIsSemantics) {
  Harness h("t");
  h.add_choice("dtype", "--dtype", "", {"int8", "int16"}, "doc");
  parse_ok(h, {});
  // Unbound knob: is() accepts every value (serial full sweep).
  EXPECT_TRUE(h.is("dtype", "int8"));
  EXPECT_TRUE(h.is("dtype", "int16"));

  Harness h2("t");
  h2.add_choice("dtype", "--dtype", "", {"int8", "int16"}, "doc");
  parse_ok(h2, {"--dtype=int8"});
  EXPECT_TRUE(h2.is("dtype", "int8"));
  EXPECT_FALSE(h2.is("dtype", "int16"));
  ASSERT_TRUE(h2.get("dtype").has_value());
  EXPECT_EQ(*h2.get("dtype"), "int8");
}

TEST_F(BenchGridTest, EmptyGridIsSingleDefaultCell) {
  Harness h("t");
  parse_ok(h, {});
  ASSERT_EQ(h.cells().size(), 1u);
  EXPECT_EQ(h.cells()[0].id(), "default");
  EXPECT_TRUE(h.cells()[0].bindings.empty());
}

TEST_F(BenchGridTest, ProductEnumerationOrderAndIds) {
  Harness h("t");
  h.grid().add_product({{"backend", {}}, {"lanes", {"2", "4"}}});
  parse_ok(h, {});
  const auto& cells = h.cells();
  ASSERT_EQ(cells.size(), 6u);
  // Last dimension varies fastest; backend in registry order.
  EXPECT_EQ(cells[0].id(), "backend=ideal,lanes=2");
  EXPECT_EQ(cells[1].id(), "backend=ideal,lanes=4");
  EXPECT_EQ(cells[2].id(), "backend=psram,lanes=2");
  EXPECT_EQ(cells[5].id(), "backend=dram,lanes=4");
}

TEST_F(BenchGridTest, BoundKnobCollapsesProductDimension) {
  Harness h("t");
  h.grid().add_product({{"backend", {}}, {"lanes", {}}});
  parse_ok(h, {"--backend=psram"});
  const auto& cells = h.cells();
  ASSERT_EQ(cells.size(), 3u);
  for (const auto& c : cells) {
    EXPECT_EQ(c.bindings[0].value, "psram");
  }
}

TEST_F(BenchGridTest, EnvBindingRestrictsEnumerationLikeAFlag) {
  setenv("ARCANE_BENCH_LANES", "8", 1);
  Harness h("t");
  h.grid().add_product({{"backend", {}}, {"lanes", {}}});
  parse_ok(h, {});
  ASSERT_EQ(h.cells().size(), 3u);
  EXPECT_EQ(h.cells()[0].id(), "backend=ideal,lanes=8");
}

TEST_F(BenchGridTest, ConflictingExplicitCellIsDropped) {
  Harness h("t");
  h.add_choice("section", "--section", "", {"a", "b"}, "doc");
  h.grid().add_cell({{"section", "a"}});
  h.grid().add_product({{"section", {"b"}}, {"backend", {}}});
  parse_ok(h, {"--section=b"});
  // The explicit section=a cell conflicts with the bound knob; only the
  // three section=b product cells remain.
  ASSERT_EQ(h.cells().size(), 3u);
  EXPECT_EQ(h.cells()[0].id(), "section=b,backend=ideal");
}

TEST_F(BenchGridTest, CellBindingAppliesKnobs) {
  Harness h("t");
  h.add_choice("dtype", "--dtype", "", {"int8", "int16"}, "doc");
  h.grid().add_product({{"backend", {}}, {"dtype", {}}});
  const Options opt = parse_ok(h, {"--cell=backend=dram,dtype=int16"});
  ASSERT_TRUE(opt.backend.has_value());
  EXPECT_EQ(*opt.backend, MemBackendKind::kDramTiming);
  EXPECT_TRUE(h.is("dtype", "int16"));
  EXPECT_FALSE(h.is("dtype", "int8"));
}

TEST_F(BenchGridTest, UnknownCellIsHardError) {
  Harness h("t");
  h.grid().add_product({{"backend", {}}});
  EXPECT_NE(parse_err(h, {"--cell=backend=flash"}).find("unknown cell"),
            std::string::npos);
}

TEST_F(BenchGridTest, CellOutsideEnvRestrictionIsHardError) {
  setenv("ARCANE_BENCH_BACKEND", "psram", 1);
  Harness h("t");
  h.grid().add_product({{"backend", {}}});
  // backend=ideal exists in the unrestricted grid but not under the env
  // binding — mirroring what a serial env-restricted run would emit.
  EXPECT_NE(parse_err(h, {"--cell=backend=ideal"}).find("unknown cell"),
            std::string::npos);
}

TEST_F(BenchGridTest, ListActionsShortCircuit) {
  Harness h("t");
  h.grid().add_product({{"backend", {}}});
  Options opt;
  Harness::Action action = Harness::Action::kRun;
  std::string err;
  ASSERT_TRUE(h.try_parse({"--list-cells"}, &opt, &action, &err)) << err;
  EXPECT_EQ(action, Harness::Action::kListCells);
  EXPECT_NE(h.cells_json().find("\"backend=psram\""), std::string::npos);

  Harness h2("t");
  ASSERT_TRUE(h2.try_parse({"--list-knobs"}, &opt, &action, &err)) << err;
  EXPECT_EQ(action, Harness::Action::kListKnobs);
}

TEST_F(BenchGridTest, UsageTextListsEveryKnobAndEnvVar) {
  Harness h("t");
  h.add_choice("dtype", "--dtype", "", {"int8"}, "restrict dtype");
  const std::string usage = h.knobs().usage_text("bench");
  for (const char* needle :
       {"--json", "--deterministic", "--backend=ideal|psram|dram",
        "--dtype=int8", "ARCANE_BENCH_BACKEND", "--list-cells", "--cell="}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << needle;
  }
}

TEST_F(BenchGridTest, ReplacementKnobCoversAllPolicies) {
  Harness h("t");
  for (ReplacementPolicy p : kAllReplacementPolicies) {
    Harness hp("t");
    const Options opt =
        parse_ok(hp, {std::string("--replacement=") + replacement_name(p)});
    ASSERT_TRUE(opt.replacement.has_value());
    EXPECT_EQ(*opt.replacement, p);
  }
}

}  // namespace
}  // namespace arcane::benchjson
