// Regenerates paper Figure 4: speedup of single-instance ARCANE (2/4/8
// lanes) and CV32E40PX (XCVPULP) over the scalar CV32E40X baseline, for the
// 3-channel conv layer across input sizes, filter sizes and data types —
// swept per external-memory backend (ideal SRAM / burst PSRAM / DRAM).
//
// Flags (see bench/grid.hpp): --json emits schema-v2 rows; --backend
// restricts the sweep to one backend (default: all three); --dtype
// restricts the data-type sweep; --lanes restricts the ARCANE lane sweep.
// Grid cells: backend x dtype.
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/runner.hpp"
#include "bench_json.hpp"

using namespace arcane;

namespace {

std::string case_name(unsigned size, unsigned k, ElemType et) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "size=%u k=%u dtype=%s", size, k,
                elem_name(et));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("fig4_speedup");
  h.add_choice("dtype", "--dtype", "", {"int8", "int16", "int32"},
               "restrict the data-type sweep");
  h.grid().add_product({{"backend", {}}, {"dtype", {}}});
  const benchjson::Options opt = h.parse(argc, argv);

  const unsigned sizes[] = {16, 32, 64, 128, 256};
  const unsigned filters[] = {3, 5, 7};
  const ElemType dtypes[] = {ElemType::kByte, ElemType::kHalf,
                             ElemType::kWord};
  const std::vector<unsigned> lane_cfgs =
      opt.lanes ? std::vector<unsigned>{*opt.lanes}
                : std::vector<unsigned>{2, 4, 8};

  benchjson::Report report("fig4_speedup");
  if (!opt.json) {
    std::printf(
        "Figure 4: conv-layer speedup over CV32E40X (scalar RV32IM)\n");
  }

  for (MemBackendKind backend : benchjson::backend_sweep(opt)) {
    auto config = [&](unsigned lanes) {
      SystemConfig cfg = SystemConfig::paper(lanes);
      cfg.mem.backend = backend;
      if (opt.replacement) cfg.llc.replacement = *opt.replacement;
      return cfg;
    };
    if (!opt.json) {
      std::printf("\n== external memory backend: %s ==\n\n",
                  backend_name(backend));
    }
    for (ElemType et : dtypes) {
      if (!h.is("dtype", elem_name(et))) continue;
      for (unsigned k : filters) {
        if (!opt.json) {
          std::printf("-- dtype=%s filter=%ux%u --\n", elem_name(et), k, k);
          std::printf("%-6s %14s %10s", "size", "scalar[cyc]", "CV32E40PX");
          for (unsigned lanes : lane_cfgs) std::printf("  ARCANE-%uL", lanes);
          std::printf("\n");
        }
        for (unsigned size : sizes) {
          if (size <= k * 2) continue;
          baseline::ConvCase c;
          c.size = size;
          c.k = k;
          c.et = et;
          c.verify = false;  // correctness is covered by the test suite
          benchjson::WallTimer sc_timer;
          const auto sc = baseline::run_conv_layer(config(4),
                                                   baseline::Impl::kScalar, c);
          const double sc_ms = sc_timer.ms();
          benchjson::WallTimer pu_timer;
          const auto pu = baseline::run_conv_layer(config(4),
                                                   baseline::Impl::kPulp, c);
          const double pu_ms = pu_timer.ms();
          const std::string name = case_name(size, k, et);
          const double pulp_x = static_cast<double>(sc.cycles) /
                                static_cast<double>(pu.cycles);
          benchjson::add_stall_fields(
              report.row()
                  .str("case", name)
                  .str("backend", backend_name(backend))
                  .str("impl", impl_name(baseline::Impl::kScalar))
                  .num("cycles", static_cast<std::uint64_t>(sc.cycles))
                  .num("speedup", 1.0)
                  .num("host_wall_ms", sc_ms),
              sc.stalls);
          benchjson::add_stall_fields(
              report.row()
                  .str("case", name)
                  .str("backend", backend_name(backend))
                  .str("impl", impl_name(baseline::Impl::kPulp))
                  .num("cycles", static_cast<std::uint64_t>(pu.cycles))
                  .num("speedup", pulp_x)
                  .num("host_wall_ms", pu_ms),
              pu.stalls);
          if (!opt.json) {
            std::printf("%-6u %14llu %9.1fx", size,
                        static_cast<unsigned long long>(sc.cycles), pulp_x);
          }
          for (unsigned lanes : lane_cfgs) {
            benchjson::WallTimer ar_timer;
            const auto r = baseline::run_conv_layer(
                config(lanes), baseline::Impl::kArcane, c);
            const double ar_ms = ar_timer.ms();
            const double speedup = static_cast<double>(sc.cycles) /
                                   static_cast<double>(r.cycles);
            benchjson::add_stall_fields(
                report.row()
                    .str("case", name)
                    .str("backend", backend_name(backend))
                    .str("impl", "arcane-" + std::to_string(lanes) + "l")
                    .num("cycles", static_cast<std::uint64_t>(r.cycles))
                    .num("speedup", speedup)
                    .num("host_wall_ms", ar_ms),
                r.stalls);
            if (!opt.json) std::printf(" %9.1fx", speedup);
          }
          if (!opt.json) std::printf("\n");
        }
        if (!opt.json) std::printf("\n");
      }
    }
  }

  if (opt.json) {
    report.print();
  } else {
    std::printf(
        "Paper anchors (PSRAM backend): int8 3x3 @256: ARCANE-8L ~30x,\n"
        "CV32E40PX ~5x; int8 7x7 @256: ARCANE ~84x (16x over XCVPULP);\n"
        "XCVPULP peak ~8.6x.\n");
  }
  return 0;
}
