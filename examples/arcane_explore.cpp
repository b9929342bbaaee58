// arcane_explore — command-line driver for interactive exploration:
// run a conv-layer workload on any implementation/configuration and print
// its cycles, phases and component counters (optionally with the event
// trace).
//
//   arcane_explore [options]
//     --impl arcane|scalar|pulp   (default arcane)
//     --size N        input is NxN per channel      (default 64)
//     --filter K      KxK filters                   (default 3)
//     --dtype b|h|w   int8 / int16 / int32          (default b)
//     --lanes L       VPU lanes: 2, 4 or 8          (default 4)
//     --multi         multi-instance mode (all VPUs on one kernel)
//     --elide         full write-back elision
//     --policy p      replacement: lru|truelru|random|clock|lru-k|arc
//     --trace         dump the kernel/offload event trace
//     --verify        check the result against the golden model
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "arcane/program_builder.hpp"
#include "baseline/runner.hpp"
#include "telemetry/perfetto.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--impl arcane|scalar|pulp] [--size N] [--filter K]"
               " [--dtype b|h|w]\n  [--lanes L] [--multi] [--elide]"
               " [--policy lru|truelru|random|clock|lru-k|arc]"
               " [--trace] [--verify]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  baseline::Impl impl = baseline::Impl::kArcane;
  baseline::ConvCase c;
  c.size = 64;
  c.k = 3;
  c.et = ElemType::kByte;
  c.verify = false;
  unsigned lanes = 4;
  bool multi = false, elide = false, trace = false;
  ReplacementPolicy policy = ReplacementPolicy::kApproxLru;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--impl") {
      const std::string v = next();
      impl = v == "scalar" ? baseline::Impl::kScalar
             : v == "pulp" ? baseline::Impl::kPulp
                           : baseline::Impl::kArcane;
    } else if (arg == "--size") {
      c.size = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--filter") {
      c.k = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--dtype") {
      const std::string v = next();
      c.et = v == "w" ? ElemType::kWord
             : v == "h" ? ElemType::kHalf
                        : ElemType::kByte;
    } else if (arg == "--lanes") {
      lanes = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--multi") {
      multi = true;
    } else if (arg == "--elide") {
      elide = true;
    } else if (arg == "--policy") {
      const std::string v = next();
      // Canonical names plus the short aliases this tool always accepted.
      const auto parsed = replacement_from_name(
          v == "lru" ? "approx-lru" : v == "truelru" ? "true-lru" : v);
      if (!parsed) {
        std::fprintf(stderr, "%s: unknown replacement policy '%s'\n", argv[0],
                     v.c_str());
        usage(argv[0]);
      }
      policy = *parsed;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--verify") {
      c.verify = true;
    } else {
      usage(argv[0]);
    }
  }

  SystemConfig cfg = SystemConfig::paper(lanes);
  cfg.multi_vpu_kernels = multi;
  cfg.full_writeback_elision = elide;
  cfg.llc.replacement = policy;

  std::printf("conv layer: %ux%u x3ch, %ux%u filters, %s, impl=%s, %u lanes%s%s\n\n",
              c.size, c.size, c.k, c.k, elem_name(c.et),
              baseline::impl_name(impl), lanes, multi ? ", multi-VPU" : "",
              elide ? ", wb-elision" : "");

  // Rebuild the run through the System directly when tracing is requested;
  // otherwise use the runner (which owns the System internally).
  const auto res = baseline::run_conv_layer(cfg, impl, c);
  std::printf("cycles       : %llu  (%.3f ms @%g MHz)\n",
              static_cast<unsigned long long>(res.cycles),
              static_cast<double>(res.cycles) / (cfg.clock_mhz * 1e3),
              cfg.clock_mhz);
  std::printf("instructions : %llu\n",
              static_cast<unsigned long long>(res.instructions));
  if (c.verify) std::printf("verification : %s\n", res.correct ? "OK" : "FAILED");
  if (impl == baseline::Impl::kArcane) {
    const auto& ph = res.phases;
    const double total = static_cast<double>(
        ph.preamble + ph.scheduling + ph.allocation + ph.compute + ph.writeback);
    std::printf("phases       : preamble %.1f%%, alloc %.1f%%, compute %.1f%%, "
                "writeback %.1f%%\n", 100.0 * ph.preamble / total,
                100.0 * (ph.allocation + ph.scheduling) / total,
                100.0 * ph.compute / total, 100.0 * ph.writeback / total);
    std::printf("vpu          : %llu instructions, %llu MACs\n",
                static_cast<unsigned long long>(res.vpu_instructions),
                static_cast<unsigned long long>(res.vpu_macs));
  }
  std::printf("cache        : %llu hits / %llu misses, %llu writebacks\n",
              static_cast<unsigned long long>(res.cache.hits),
              static_cast<unsigned long long>(res.cache.misses),
              static_cast<unsigned long long>(res.cache.writebacks));
  std::printf("dma          : %llu descriptors, %llu B from ext, busy %llu cyc\n",
              static_cast<unsigned long long>(res.dma.descriptors),
              static_cast<unsigned long long>(res.dma.bytes_from_external),
              static_cast<unsigned long long>(res.dma.busy_cycles));

  if (trace && impl == baseline::Impl::kArcane) {
    // Re-run a small instance with tracing on to show the pipeline.
    std::printf("\n--- kernel event trace (first run of this configuration) ---\n");
    System sys(cfg);
    sys.spans().enable();
    // Minimal traced run: reuse the runner machinery by hand.
    workloads::Rng rng(1);
    auto X = workloads::Matrix<std::int8_t>::random(3 * 16, 16, rng, -8, 7);
    auto F = workloads::Matrix<std::int8_t>::random(3 * 3, 3, rng, -4, 3);
    const Addr x = sys.data_base() + 0x1000;
    const Addr f = sys.data_base() + 0x10000;
    const Addr d = sys.data_base() + 0x20000;
    workloads::store_matrix(sys, x, X);
    workloads::store_matrix(sys, f, F);
    XProgram prog;
    prog.xmr(0, x, X.shape(), ElemType::kByte);
    prog.xmr(1, f, F.shape(), ElemType::kByte);
    prog.xmr(2, d, MatShape{7, 7, 7}, ElemType::kByte);
    prog.conv_layer(2, 0, 1, ElemType::kByte);
    prog.sync_read(d);
    prog.halt();
    sys.load_program(prog.finish());
    sys.run();
    for (const auto& e : sys.spans().events()) {
      if (e.kind == telemetry::SpanKind::kInstant) {
        std::printf("%10llu            %-8s %s\n",
                    static_cast<unsigned long long>(e.begin),
                    telemetry::TraceFile::track_name(e.track).c_str(), e.name);
      } else {
        std::printf("%10llu-%-10llu %-8s %s\n",
                    static_cast<unsigned long long>(e.begin),
                    static_cast<unsigned long long>(e.end),
                    telemetry::TraceFile::track_name(e.track).c_str(), e.name);
      }
    }
    if (sys.spans().dropped() > 0) {
      std::printf("(+%llu events dropped: buffer full)\n",
                  static_cast<unsigned long long>(sys.spans().dropped()));
    }
  }
  return 0;
}
