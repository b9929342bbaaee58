// Regenerates the in-text comparison of paper §V-C: peak throughput, the
// multi-instance (4 VPUs x 8 lanes) mode, and the BLADE / Intel CNC
// state-of-the-art table. --json emits schema-v2 rows; the analytic rows
// price the paper's burst-PSRAM system, the conv rows sweep the external
// memory backends (--backend restricts the sweep). Grid cells: the
// analytic section plus one conv cell per backend.
#include <cstdio>

#include "area/soa.hpp"
#include "baseline/runner.hpp"
#include "bench_json.hpp"

using namespace arcane;

int main(int argc, char** argv) {
  benchjson::Harness h("sec5c_state_of_the_art");
  h.add_choice("section", "--section", "", {"analytic", "conv"},
               "restrict to the analytic rows or the conv measurements");
  h.grid().add_cell({{"section", "analytic"}});
  h.grid().add_product({{"section", {"conv"}}, {"backend", {}}});
  const benchjson::Options opt = h.parse(argc, argv);

  auto config = [&](MemBackendKind backend) {
    SystemConfig cfg8 = SystemConfig::paper(8);
    cfg8.mem.backend = backend;
    if (opt.replacement) cfg8.llc.replacement = *opt.replacement;
    return cfg8;
  };

  benchjson::Report report("sec5c_state_of_the_art");
  if (!opt.json) {
    std::printf("Section V-C: state-of-the-art comparison\n\n");
  }

  if (h.is("section", "analytic")) {
    // Analytic rows price the paper's burst-PSRAM system (a --backend
    // override applies, matching the pre-grid behaviour) and stamp
    // cumulative host time.
    const SystemConfig cfg8 =
        config(opt.backend.value_or(MemBackendKind::kBurstPsram));
    const benchjson::WallTimer timer;
    const double gops_single = area::peak_gops_single(cfg8, 265.0);
    const double gops_multi = area::peak_gops_multi(cfg8, 265.0);
    // Analytic rows run no simulation: stall fields are structurally zero
    // (kept for schema uniformity across the bench suite).
    benchjson::add_stall_fields(report.row()
                                    .str("case", "peak:single-8l")
                                    .num("gops", gops_single)
                                    .num("host_wall_ms", timer.ms()),
                                sim::OpStallBreakdown{});
    benchjson::add_stall_fields(report.row()
                                    .str("case", "peak:multi-4x8l")
                                    .num("gops", gops_multi)
                                    .num("host_wall_ms", timer.ms()),
                                sim::OpStallBreakdown{});

    if (!opt.json) {
      std::printf("Peak throughput (int8, 1 MAC = 2 OP):\n");
      std::printf(
          "  single instance (8 lanes) @265 MHz : %5.1f GOPS (paper 17.0)\n",
          gops_single);
      std::printf("  multi-instance (4 VPUs x 8 lanes)  : %5.1f GOPS\n\n",
                  gops_multi);
      std::printf("%-28s %-18s %10s %10s %12s\n", "System", "Technology",
                  "Area[mm2]", "GOPS", "GOPS/mm2");
    }
    for (const auto& row : area::soa_comparison(cfg8)) {
      benchjson::add_stall_fields(report.row()
                                      .str("case", "soa:" + row.name)
                                      .num("area_mm2", row.area_mm2)
                                      .num("gops", row.peak_gops)
                                      .num("gops_per_mm2", row.gops_per_mm2)
                                      .num("host_wall_ms", timer.ms()),
                                  sim::OpStallBreakdown{});
      if (!opt.json) {
        std::printf("%-28s %-18s %10.3f %10.1f %12.1f\n", row.name.c_str(),
                    row.technology.c_str(), row.area_mm2, row.peak_gops,
                    row.gops_per_mm2);
      }
    }
    if (!opt.json) {
      std::printf(
          "  (paper: BLADE 3.18x smaller, ARCANE ~3.2x its GOPS;\n"
          "   area efficiency 9.2 vs 9.1 GOPS/mm2; Intel CNC 1.47x GOPS\n"
          "   but MAC-only ISA)\n\n");
    }
  }

  if (h.is("section", "conv")) {
    // Multi-instance speedup on the headline workload (int8, 3x3 filters),
    // per external-memory backend.
    for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
      const SystemConfig cfg8 = config(backend);
      baseline::ConvCase c;
      c.size = 256;
      c.k = 3;
      c.et = ElemType::kByte;
      c.verify = false;
      const auto sc =
          baseline::run_conv_layer(cfg8, baseline::Impl::kScalar, c);
      benchjson::WallTimer pu_timer;
      const auto pu = baseline::run_conv_layer(cfg8, baseline::Impl::kPulp, c);
      const double pu_ms = pu_timer.ms();
      benchjson::WallTimer single_timer;
      const auto single =
          baseline::run_conv_layer(cfg8, baseline::Impl::kArcane, c);
      const double single_ms = single_timer.ms();
      SystemConfig multi_cfg = cfg8;
      multi_cfg.multi_vpu_kernels = true;
      benchjson::WallTimer multi_timer;
      const auto multi =
          baseline::run_conv_layer(multi_cfg, baseline::Impl::kArcane, c);
      const double multi_ms = multi_timer.ms();

      const double s1 = static_cast<double>(sc.cycles) / single.cycles;
      const double s4 = static_cast<double>(sc.cycles) / multi.cycles;
      const double pulp_x = static_cast<double>(sc.cycles) / pu.cycles;
      char tag[48];
      std::snprintf(tag, sizeof(tag), "conv int8 %ux%u 3x3", c.size, c.size);
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string(tag) + ":single-8l")
              .str("backend", backend_name(backend))
              .num("cycles", static_cast<std::uint64_t>(single.cycles))
              .num("speedup", s1)
              .num("host_wall_ms", single_ms),
          single.stalls);
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string(tag) + ":multi-4x8l")
              .str("backend", backend_name(backend))
              .num("cycles", static_cast<std::uint64_t>(multi.cycles))
              .num("speedup", s4)
              .num("host_wall_ms", multi_ms),
          multi.stalls);
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string(tag) + ":cv32e40px")
              .str("backend", backend_name(backend))
              .num("cycles", static_cast<std::uint64_t>(pu.cycles))
              .num("speedup", pulp_x)
              .num("host_wall_ms", pu_ms),
          pu.stalls);

      if (!opt.json) {
        std::printf("Multi-instance mode (int8 %ux%u, 3x3 filters, %s):\n",
                    c.size, c.size, backend_name(backend));
        std::printf("  single instance (8 lanes)      : %6.1fx vs CV32E40X\n",
                    s1);
        std::printf(
            "  multi-instance (4 VPUs)        : %6.1fx vs CV32E40X "
            "(paper ~120x)\n",
            s4);
        std::printf("  instance scaling               : %6.2fx (ideal 4.0x)\n",
                    s4 / s1);
        std::printf("  CV32E40PX (1 core)             : %6.1fx\n", pulp_x);
        // Paper: a 15-core XCVPULP system of comparable area peaks at 75x
        // even under ideal scaling; ARCANE multi-instance beats it ~1.6x.
        const double pulp15 = 15.0 * pulp_x;
        std::printf("  15-core XCVPULP (ideal bound)  : %6.1fx (paper 75x)\n",
                    pulp15);
        std::printf("  ARCANE multi vs 15-core bound  : %6.2fx (paper 1.6x)\n",
                    s4 / pulp15);
        std::printf("\n");
      }
    }
  }

  if (opt.json) report.print();
  return 0;
}
