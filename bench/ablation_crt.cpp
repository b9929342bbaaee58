// Ablation: C-RT and datapath design choices called out in DESIGN.md —
// external DMA bandwidth, VPU sequencer issue gap, full write-back elision
// (the producer's result forwarded to its consumer from the VPU registers)
// and the VPU selection policy — swept per external-memory backend. --json
// emits schema-v2 rows; --backend restricts the sweep to one backend
// (default: all three). Grid cells: backend x section (ext-bw / issue-gap /
// chain / vpu-select).
#include <cstdio>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "baseline/runner.hpp"
#include "bench_json.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;

namespace {

MemBackendKind g_backend = MemBackendKind::kBurstPsram;
std::optional<ReplacementPolicy> g_replacement;

/// paper(4) with the swept backend / CLI replacement applied.
SystemConfig base_cfg() {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = g_backend;
  if (g_replacement) cfg.llc.replacement = *g_replacement;
  return cfg;
}

baseline::ConvRunResult conv_run(SystemConfig cfg, unsigned size = 64,
                                 ElemType et = ElemType::kByte) {
  baseline::ConvCase c;
  c.size = size;
  c.k = 3;
  c.et = et;
  c.verify = false;
  return baseline::run_conv_layer(cfg, baseline::Impl::kArcane, c);
}

struct ChainResult {
  Cycle cycles = 0;
  std::uint64_t rows_forwarded = 0;
  sim::OpStallBreakdown stalls{};
};

/// Chained conv2d -> leaky_relu.
ChainResult chain_run(bool full_elision) {
  SystemConfig cfg = base_cfg();
  cfg.full_writeback_elision = full_elision;
  System sys(cfg);
  workloads::Rng rng(4);
  auto X = workloads::Matrix<std::int32_t>::random(14, 16, rng, -9, 9);
  auto F = workloads::Matrix<std::int32_t>::random(3, 3, rng, -3, 3);
  const Addr x = sys.data_base() + 0x1000;
  const Addr f = sys.data_base() + 0x10000;
  const Addr mid = sys.data_base() + 0x20000;
  const Addr out = sys.data_base() + 0x30000;
  workloads::store_matrix(sys, x, X);
  workloads::store_matrix(sys, f, F);
  XProgram prog;
  prog.xmr(0, x, X.shape(), ElemType::kWord);
  prog.xmr(1, f, F.shape(), ElemType::kWord);
  prog.xmr(2, mid, MatShape{12, 14, 14}, ElemType::kWord);
  prog.xmr(3, out, MatShape{12, 14, 14}, ElemType::kWord);
  prog.conv2d(2, 0, 1, ElemType::kWord);
  prog.leaky_relu(3, 2, 0, ElemType::kWord);
  prog.sync_read(out);
  prog.halt();
  sys.load_program(prog.finish());
  const auto res = sys.run();
  return {res.cycles, sys.runtime().phases().writebacks_elided,
          sys.runtime().stall_totals()};
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("ablation_crt");
  h.add_choice("section", "--section", "",
               {"ext-bw", "issue-gap", "chain", "vpu-select"},
               "restrict to one ablation section");
  h.grid().add_product({{"backend", {}}, {"section", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  g_replacement = opt.replacement;
  benchjson::Report report("ablation_crt");
  const bool human = !opt.json;

  if (human) {
    std::printf("Ablation: C-RT / datapath design choices "
                "(conv layer, int8, 64x64, 3x3, 4 lanes)\n\n");
  }
  for (const MemBackendKind backend : benchjson::backend_sweep(opt)) {
    g_backend = backend;
    if (human) {
      std::printf("== external memory backend: %s ==\n", backend_name(backend));
    }
    if (h.is("section", "ext-bw")) {
      if (human) std::printf("External memory bandwidth (bytes/cycle):\n");
      for (unsigned bpc : {1u, 2u, 4u, 8u}) {
        SystemConfig cfg = base_cfg();
        cfg.mem.ext_bytes_per_cycle = bpc;
        const benchjson::WallTimer timer;
        const auto r = conv_run(cfg);
        char name[32];
        std::snprintf(name, sizeof(name), "ext_bw=%u", bpc);
        benchjson::add_stall_fields(
            report.row()
                .str("case", name)
                .str("backend", backend_name(g_backend))
                .num("cycles", static_cast<std::uint64_t>(r.cycles))
                .num("host_wall_ms", timer.ms()),
            r.stalls);
        if (human) {
          std::printf("  %u B/cyc : %9llu cycles\n", bpc,
                      static_cast<unsigned long long>(r.cycles));
        }
      }
    }
    if (h.is("section", "issue-gap")) {
      if (human) {
        std::printf("\nVPU sequencer issue gap (cycles/vector instruction):\n");
      }
      for (unsigned gap : {1u, 2u, 4u, 8u, 16u}) {
        SystemConfig cfg = base_cfg();
        cfg.crt.vinsn_dispatch = gap;
        const benchjson::WallTimer timer;
        const auto r = conv_run(cfg);
        char name[32];
        std::snprintf(name, sizeof(name), "issue_gap=%u", gap);
        benchjson::add_stall_fields(
            report.row()
                .str("case", name)
                .str("backend", backend_name(g_backend))
                .num("cycles", static_cast<std::uint64_t>(r.cycles))
                .num("host_wall_ms", timer.ms()),
            r.stalls);
        if (human) {
          std::printf("  gap %2u  : %9llu cycles\n", gap,
                      static_cast<unsigned long long>(r.cycles));
        }
      }
    }
    if (h.is("section", "chain")) {
      if (human) {
        std::printf(
            "\nFull write-back elision (conv2d -> leaky_relu chain):\n");
      }
      const struct {
        const char* name;
        const char* label;
        bool full_elision;
      } modes[] = {
          {"chain_forwarding=off", "write-back      ", false},
          {"chain_forwarding=full", "full wb elision ", true},
      };
      for (const auto& m : modes) {
        const benchjson::WallTimer timer;
        const auto r = chain_run(m.full_elision);
        benchjson::add_stall_fields(
            report.row()
                .str("case", m.name)
                .str("backend", backend_name(g_backend))
                .num("cycles", static_cast<std::uint64_t>(r.cycles))
                .num("rows_forwarded", r.rows_forwarded)
                .num("host_wall_ms", timer.ms()),
            r.stalls);
        if (human) {
          std::printf("  %s: %7llu cycles (%llu rows forwarded)\n", m.label,
                      static_cast<unsigned long long>(r.cycles),
                      static_cast<unsigned long long>(r.rows_forwarded));
        }
      }
    }
    if (h.is("section", "vpu-select")) {
      if (human) {
        std::printf("\nVPU selection policy (8 back-to-back kernels, dirty\n"
                    "lines accumulate from each write-back):\n");
      }
      for (auto pol :
           {VpuSelectPolicy::kFewestDirty, VpuSelectPolicy::kRoundRobin}) {
        SystemConfig cfg = base_cfg();
        cfg.vpu_select = pol;
        const benchjson::WallTimer timer;
        System sys(cfg);
        workloads::Rng rng(6);
        XProgram prog;
        constexpr unsigned kN = 8;
        for (unsigned i = 0; i < kN; ++i) {
          auto X = workloads::Matrix<std::int32_t>::random(14, 64, rng, -9, 9);
          const Addr x = sys.data_base() + 0x1000 + i * 0x8000;
          workloads::store_matrix(sys, x, X);
          prog.xmr(2 * i, x, X.shape(), ElemType::kWord);
          prog.xmr(2 * i + 1, sys.data_base() + 0x200000 + i * 0x8000,
                   MatShape{14, 64, 64}, ElemType::kWord);
          prog.leaky_relu(2 * i + 1, 2 * i, 1, ElemType::kWord);
        }
        for (unsigned i = 0; i < kN; ++i) {
          prog.sync_read(sys.data_base() + 0x200000 + i * 0x8000);
        }
        prog.halt();
        sys.load_program(prog.finish());
        const auto res = sys.run();
        const char* name = pol == VpuSelectPolicy::kFewestDirty
                               ? "fewest-dirty"
                               : "round-robin";
        benchjson::add_stall_fields(
            report.row()
                .str("case", std::string("vpu_select=") + name)
                .str("backend", backend_name(g_backend))
                .num("cycles", static_cast<std::uint64_t>(res.cycles))
                .num("writebacks", sys.llc().stats().writebacks)
                .num("host_wall_ms", timer.ms()),
            sys.runtime().stall_totals());
        if (human) {
          std::printf("  %-22s: %9llu cycles, %llu eviction writebacks\n",
                      name, static_cast<unsigned long long>(res.cycles),
                      static_cast<unsigned long long>(
                          sys.llc().stats().writebacks));
        }
      }
    }
    if (human) std::printf("\n");
  }
  if (opt.json) report.print();
  return 0;
}
