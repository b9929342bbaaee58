// Ablation: LLC replacement policy — the paper's counter-based approximate
// LRU vs random vs the adaptive family (CLOCK, LRU-2, ARC).
//
// Two sections:
//  1. the original recency-friendly looping host workload, run through the
//     full System (assembler program, host port timing), and
//  2. classic adaptive-replacement scenarios (hot-data-access, loop-pattern,
//     workload-shift) replayed directly against the LLC. The workload-shift
//     rows report per-phase hit rates: after the hot set moves, ARC
//     re-converges via its ghost lists while plain recency policies thrash
//     against the cold-stream pollution.
//
// A hit rate depends only on the trace and the policy, never on memory
// timing, so both sections run on one backend (psram unless --backend
// picks another) instead of sweeping all three. --replacement restricts
// the policy axis (this bench sweeps the policy, so the knob is a sweep
// filter here, not a config override). --json emits schema-v2 rows.
// Grid cells: section (looping / scenarios) x replacement.
#include <cstdio>
#include <vector>

#include "arcane/system.hpp"
#include "bench_json.hpp"
#include "dma/dma.hpp"
#include "isa/assembler.hpp"
#include "llc/llc.hpp"
#include "mem/main_memory.hpp"
#include "sim/event_queue.hpp"
#include "vpu/line_storage.hpp"
#include "workloads/access_patterns.hpp"

using namespace arcane;

namespace {

MemBackendKind g_backend = MemBackendKind::kBurstPsram;

/// Display names for the ablation table. They are row identities in the
/// blessed baseline — do not rename them.
const char* policy_name(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kApproxLru: return "approx-LRU (paper)";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kClock: return "CLOCK";
    case ReplacementPolicy::kLruK: return "LRU-2";
    case ReplacementPolicy::kArc: return "ARC";
  }
  return "?";
}

/// Recency-friendly access pattern: a small hot set is re-touched between
/// every cold access (short reuse distance), while a cold stream of
/// never-reused lines passes through. Recency policies keep the hot set
/// resident; random replacement evicts it regularly.
double looping_hit_rate(ReplacementPolicy pol) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = g_backend;
  cfg.llc.replacement = pol;
  System sys(cfg);
  using isa::Assembler;
  using isa::Reg;
  Assembler a;
  constexpr unsigned kHot = 32;
  a.li(Reg::kT0, 40);  // rounds
  a.li(Reg::kA2, static_cast<std::int32_t>(sys.data_base() + 0x100000));
  auto round = a.here();
  a.li(Reg::kT1, static_cast<std::int32_t>(kHot));
  a.li(Reg::kT2, static_cast<std::int32_t>(sys.data_base()));
  auto inner = a.here();
  a.lw(Reg::kA0, Reg::kT2, 0);      // hot[i]
  a.lw(Reg::kA1, Reg::kT2, 1024);   // hot[i+1]
  a.lw(Reg::kA0, Reg::kA2, 0);      // one cold line, never reused
  a.li(Reg::kA3, 1024);
  a.add(Reg::kT2, Reg::kT2, Reg::kA3);
  a.add(Reg::kA2, Reg::kA2, Reg::kA3);
  a.addi(Reg::kT1, Reg::kT1, -1);
  a.bnez(Reg::kT1, inner);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, round);
  a.li(Reg::kA0, 0);
  a.ecall();
  sys.load_program(a.finish());
  sys.run();
  return sys.llc().stats().hit_rate();
}

/// Replay a line-granular read trace straight against the LLC, returning the
/// hit rate (percent) of each [cuts[i-1], cuts[i]) segment. cuts.back() must
/// equal trace.size().
std::vector<double> replay_segments(ReplacementPolicy pol,
                                    const std::vector<Addr>& trace,
                                    const std::vector<std::size_t>& cuts) {
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.mem.backend = g_backend;
  cfg.llc.replacement = pol;
  sim::EventQueue events;
  mem::MainMemory ext(cfg.mem.data_base, cfg.mem.data_bytes, cfg.mem);
  vpu::LineStorage storage(cfg.llc);
  dma::DmaEngine dma(cfg.mem);
  llc::Llc cache(cfg, events, ext, dma, storage);

  std::vector<double> rates;
  rates.reserve(cuts.size());
  Cycle t = 0;
  std::size_t begin = 0;
  for (std::size_t cut : cuts) {
    std::uint64_t hits = 0;
    for (std::size_t i = begin; i < cut; ++i) {
      std::uint32_t v = 0;
      const auto res =
          cache.host_access(cfg.mem.data_base + trace[i], 4, false, &v, t);
      t = res.complete_at + 1;
      hits += res.hit ? 1 : 0;
    }
    rates.push_back(cut == begin
                        ? 0.0
                        : 100.0 * static_cast<double>(hits) /
                              static_cast<double>(cut - begin));
    begin = cut;
  }
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  benchjson::Harness h("ablation_replacement");
  h.add_choice("section", "--section", "", {"looping", "scenarios"},
               "restrict to the looping workload or the adaptive scenarios");
  h.grid().add_product({{"section", {}}, {"replacement", {}}});
  const benchjson::Options opt = h.parse(argc, argv);
  g_backend = opt.backend.value_or(MemBackendKind::kBurstPsram);
  benchjson::Report report("ablation_replacement");

  // The cache holds 128 lines; every scenario is sized against that.
  const SystemConfig scen_cfg = SystemConfig::paper(4);
  const std::uint32_t line_bytes = scen_cfg.llc.line_bytes();
  const std::uint64_t n = 48000;
  using workloads::hot_data_access;
  using workloads::looping;
  using workloads::workload_shift;

  // hot-data-access: 96 hot lines absorb 70% of accesses; the rest is a
  // 2048-line cold spray (one-shot pollution).
  const std::vector<Addr> hot_trace =
      hot_data_access(n, /*hot_lines=*/96, /*hot_pct=*/70,
                      /*cold_lines=*/2048, line_bytes, /*seed=*/0xA11CE);
  // loop-pattern: cyclic loop at 1.25x capacity — the LRU worst case.
  const std::vector<Addr> loop_trace =
      looping(/*loop_lines=*/160, /*laps=*/240, line_bytes);
  // workload-shift: the hot region jumps to a disjoint range mid-trace.
  const std::vector<Addr> shift_trace =
      workload_shift(/*accesses_per_phase=*/n, /*hot_lines=*/96,
                     /*hot_pct=*/70, /*cold_lines=*/2048, line_bytes,
                     /*seed=*/0x5EED);

  if (h.is("section", "looping")) {
    if (!opt.json) {
      std::printf("Ablation: LLC replacement policy (backend: %s)\n",
                  backend_name(g_backend));
      std::printf("(32 hot lines re-touched between cold accesses + a\n"
                  " cold stream that overflows capacity — "
                  "recency-friendly)\n\n");
      std::printf("%-22s %12s\n", "policy", "hit rate");
    }
    for (ReplacementPolicy pol : kAllReplacementPolicies) {
      if (opt.replacement && pol != *opt.replacement) continue;
      const benchjson::WallTimer timer;
      const double rate = looping_hit_rate(pol) * 100.0;
      // Host-only workload: no kernel offloads run, so the stall fields
      // are structurally zero (kept for schema uniformity across benches).
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string("policy=") + policy_name(pol))
              .str("backend", backend_name(g_backend))
              .num("hit_rate_pct", rate)
              .num("host_wall_ms", timer.ms()),
          sim::OpStallBreakdown{});
      if (!opt.json) std::printf("%-22s %11.1f%%\n", policy_name(pol), rate);
    }
  }

  // ------------------ adaptive-replacement scenarios ------------------
  if (h.is("section", "scenarios")) {
    if (!opt.json) {
      std::printf("\nAdaptive scenarios (direct LLC replay, backend: %s)\n",
                  backend_name(g_backend));
      std::printf("%-22s %14s %12s %22s\n", "policy", "hot-data", "loop",
                  "shift (ph1 / ph2)");
    }
    for (ReplacementPolicy pol : kAllReplacementPolicies) {
      if (opt.replacement && pol != *opt.replacement) continue;
      const benchjson::WallTimer timer;
      const double hot =
          replay_segments(pol, hot_trace, {hot_trace.size()})[0];
      const double loop =
          replay_segments(pol, loop_trace, {loop_trace.size()})[0];
      const std::vector<double> shift = replay_segments(
          pol, shift_trace, {shift_trace.size() / 2, shift_trace.size()});
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string("scenario=hot-data policy=") +
                               replacement_name(pol))
              .str("backend", backend_name(g_backend))
              .num("hit_rate_pct", hot),
          sim::OpStallBreakdown{});
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string("scenario=loop policy=") +
                               replacement_name(pol))
              .str("backend", backend_name(g_backend))
              .num("hit_rate_pct", loop),
          sim::OpStallBreakdown{});
      benchjson::add_stall_fields(
          report.row()
              .str("case", std::string("scenario=shift policy=") +
                               replacement_name(pol))
              .str("backend", backend_name(g_backend))
              .num("phase1_hit_rate_pct", shift[0])
              .num("phase2_hit_rate_pct", shift[1])
              .num("host_wall_ms", timer.ms()),
          sim::OpStallBreakdown{});
      if (!opt.json) {
        std::printf("%-22s %13.1f%% %11.1f%% %9.1f%% / %7.1f%%\n",
                    policy_name(pol), hot, loop, shift[0], shift[1]);
      }
    }
  }

  if (opt.json) {
    report.print();
  } else {
    std::printf(
        "\nThe paper's counter-based approximate LRU beats random on the\n"
        "looping workload with 8 bits of state per line (an age).\n"
        "ARC self-tunes: it shields the hot set from the cold spray and\n"
        "recovers its phase-1 hit rate after the hot set moves.\n");
  }
  return 0;
}
