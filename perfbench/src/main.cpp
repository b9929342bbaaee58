// perfbench: host speed and simulated results of the ARCANE simulator on one
// workload. Usage:
//
//   perfbench --workload <cpu-conv|arcane-conv|serve-pipeline>
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one untimed warm-up pass, then repeats passes until S seconds have
// elapsed. --trace 0 reports the end-to-end metrics from untraced passes;
// --trace 1 alternates untraced and traced passes and reports the per-layer
// metrics from the traced ones. The last stdout line is one JSON object
// (see perfbench/README.md for every metric).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of simulated latencies.
double percentile(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))),
      1, v.size());
  return static_cast<double>(v[rank - 1]);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name, unit;
  double value;
};

/// Median over passes of a per-pass value.
double over(const std::vector<Pass>& passes,
            const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

/// Peak resident set of this process. VmHWM, not getrusage's ru_maxrss:
/// Linux carries ru_maxrss across execve, so it would report the launching
/// process's peak (~18 MB under Python) whenever that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// Host seconds of one pass with every item at its fastest repetition.
/// Other tenants of a shared host only ever add time, in phases lasting from
/// seconds to minutes: across 20 s runs the median pass moved by up to 25%.
double best_pass_s(const std::vector<Pass>& passes,
                   std::vector<std::int64_t> Pass::*per_item) {
  std::vector<std::int64_t> best = passes.front().*per_item;
  for (const Pass& p : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], (p.*per_item)[i]);
    }
  }
  double sum = 0.0;
  for (const std::int64_t ns : best) sum += static_cast<double>(ns);
  return sum / 1e9;
}

/// `host_scale` turns host time into calibrated host time (see main).
std::vector<Metric> end_to_end(const std::vector<Pass>& passes,
                               const Pass& ref, double host_scale) {
  const double timed_s =
      best_pass_s(passes, &Pass::item_timed_ns) * host_scale;
  const auto insns =
      ref.c.at("cpu.instructions") + ref.c.at("vpu.instructions");
  return {
      {"sim_cycles_per_host_s", "cycles/s",
       static_cast<double>(ref.sim_cycles) / timed_s},
      {"sim_insns_per_host_s", "insns/s", static_cast<double>(insns) / timed_s},
      {"jobs_per_host_s", "1/s", static_cast<double>(ref.items) / timed_s},
      {"setup_s", "s",
       best_pass_s(passes, &Pass::item_setup_ns) * host_scale},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"sim_cycles", "cycles", static_cast<double>(ref.sim_cycles)},
      {"sim_p50_latency_cycles", "cycles", percentile(ref.latency, 0.50)},
      {"sim_p99_latency_cycles", "cycles", percentile(ref.latency, 0.99)},
  };
}

std::vector<Metric> per_layer(const std::vector<Pass>& traced,
                              const std::vector<Pass>& untraced,
                              double host_scale) {
  std::vector<Metric> m;
  const Pass& ref = traced.front();
  auto count = [&](const char* name, const char* unit = "count") {
    m.push_back({name, unit, static_cast<double>(ref.c.at(name))});
  };
  // Host times in calibrated ns, median over the traced passes.
  auto host = [&](const char* name, const char* unit,
                  const std::function<double(const Pass&)>& f) {
    m.push_back({name, unit, over(traced, f) * host_scale});
  };
  auto per_item = [](std::int64_t Pass::*field) {
    return [field](const Pass& p) {
      return ratio(static_cast<double>(p.*field), static_cast<double>(p.items));
    };
  };
  auto c = [](const Pass& p, const char* name) {
    return static_cast<double>(p.c.at(name));
  };

  host("arcane.ctor_ns", "ns", per_item(&Pass::ctor_ns));
  host("arcane.place_ns", "ns", per_item(&Pass::place_ns));
  host("arcane.load_ns", "ns", per_item(&Pass::load_ns));
  host("arcane.run_ns", "ns", per_item(&Pass::run_ns));

  for (const char* n : {"cpu.instructions", "cpu.loads", "cpu.stores",
                        "cpu.simd_ops", "cpu.hw_loop_iterations"}) {
    count(n);
  }
  count("cpu.stall_cycles", "cycles");
  host("cpu.iss_ns_per_insn", "ns", [](const Pass& p) {
    return ratio(static_cast<double>(p.iss_ns),
                 static_cast<double>(p.iss_insns));
  });

  count("llc.accesses");
  m.push_back({"llc.hit_ratio", "ratio",
               ratio(c(ref, "llc.hits"), c(ref, "llc.accesses"))});
  for (const char* n : {"llc.refills", "llc.writebacks",
                        "llc.kernel_line_claims"}) {
    count(n);
  }
  count("llc.stall_cycles", "cycles");
  // The LLC host port's share: the full run minus the isolated ISS run of
  // the same program (only measured where the isolated run exists).
  host("llc.port_ns_per_access", "ns", [&](const Pass& p) {
    return p.iss_insns == 0
               ? 0.0
               : ratio(static_cast<double>(p.run_ns - p.iss_ns),
                       c(p, "llc.accesses"));
  });

  count("dma.descriptors");
  count("dma.bytes_from_external", "bytes");
  count("dma.busy_cycles", "cycles");
  count("mem.bursts");

  count("vpu.instructions");
  count("vpu.macs");
  count("vpu.busy_cycles", "cycles");
  m.push_back({"vpu.utilization", "ratio",
               ratio(c(ref, "vpu.busy_cycles"),
                     c(ref, "vpu.capacity_cycles"))});

  count("crt.kernels");
  for (const char* n : {"crt.preamble_cycles", "crt.allocation_cycles",
                        "crt.compute_cycles", "crt.writeback_cycles"}) {
    count(n, "cycles");
  }
  count("crt.writebacks_elided");
  count("crt.ecpu_busy_cycles", "cycles");
  for (const auto& [name, v] : ref.c) {
    if (name.rfind("crt.stall.", 0) == 0) count(name.c_str(), "cycles");
  }

  count("sched.ops_dispatched");
  count("sched.hazard_deferrals");
  m.push_back({"sched.mean_queue_wait_cycles", "cycles",
               ratio(c(ref, "sched.queue_wait_cycles"),
                     c(ref, "sched.ops_dispatched"))});
  m.push_back({"sched.instance_utilization", "ratio",
               ratio(c(ref, "sched.occupied_cycles"),
                     c(ref, "sched.capacity_cycles"))});
  for (const auto& [name, v] : ref.c) {
    if (name.rfind("sched.stall.", 0) == 0) count(name.c_str(), "cycles");
  }
  host("sched.submit_ns_per_job", "ns", per_item(&Pass::submit_ns));
  host("sched.drain_ns_per_op", "ns", [&](const Pass& p) {
    return ratio(static_cast<double>(p.run_ns), c(p, "sched.ops_completed"));
  });

  count("sim.events_executed");
  host("sim.host_ns_per_event", "ns", [&](const Pass& p) {
    return ratio(static_cast<double>(p.run_ns), c(p, "sim.events_executed"));
  });

  host("workloads.verify_ns", "ns", per_item(&Pass::verify_ns));

  auto wall = [](const Pass& p) { return static_cast<double>(p.wall_ns); };
  m.push_back({"telemetry.trace_overhead_ratio", "ratio",
               over(traced, wall) / over(untraced, wall) - 1.0});
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics, std::uint64_t fp,
                std::size_t passes) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}, \"fingerprint\": \"%016llx\", \"passes\": %zu}\n",
              static_cast<unsigned long long>(fp), passes);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <cpu-conv|arcane-conv|serve-pipeline> "
               "--seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = val == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = val;
    } else {
      return usage(argv[0]);
    }
  }
  const bool serve = o.workload == "serve-pipeline";
  const bool cpu = o.workload == "cpu-conv";
  if (argc % 2 == 0 || o.seconds <= 0.0 ||
      (!serve && !cpu && o.workload != "arcane-conv")) {
    return usage(argv[0]);
  }
  // The isolated ISS needs a program without xmnmc offloads.
  const bool isolate_iss = cpu;
  auto pass = [&](Tracer& tr, bool iss) {
    return serve ? run_serve_pass(o.seed, tr)
                 : run_conv_pass(o.workload, o.seed, tr, iss);
  };

  Tracer off, on;
  on.enabled = true;
  // Untimed warm-up; also the simulated reference every pass must match.
  const Pass ref = pass(off, false);
  std::vector<Pass> untraced, traced;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  // The calibration runs between passes. Its fastest reading and each
  // item's fastest pass come from the least contended moments of the run;
  // when the whole run falls in a slow phase, the ratio of its fastest
  // reading to the reference removes most of it.
  std::int64_t calib_best = calibration_ns();
  auto calibrate = [&] { calib_best = std::min(calib_best, calibration_ns()); };
  do {
    untraced.push_back(pass(off, false));
    calibrate();
    if (o.trace) {
      traced.push_back(pass(on, isolate_iss));
      calibrate();
    }
  } while (now_ns() < deadline);
  const double host_scale =
      kCalibrationRefNs / static_cast<double>(calib_best);

  std::uint64_t attempted = ref.items, failed = ref.failed;
  bool same_fp = true, iss_ok = true;
  for (const auto* set : {&untraced, &traced}) {
    for (const Pass& p : *set) {
      attempted += p.items;
      failed += p.failed;
      same_fp = same_fp && p.fp.value() == ref.fp.value();
      iss_ok = iss_ok && !p.iss_mismatch;
    }
  }
  const bool correct = failed == 0 && same_fp && iss_ok;

  std::printf("workload %s  seed %llu  %zu untraced + %zu traced passes of "
              "%llu items  fingerprint %016llx\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              untraced.size(), traced.size(),
              static_cast<unsigned long long>(ref.items),
              static_cast<unsigned long long>(ref.fp.value()));
  std::printf("  failed_ratio %.6g (%llu of %llu items)%s%s\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              same_fp ? "" : "  FINGERPRINT MISMATCH between passes",
              iss_ok ? "" : "  ISOLATED ISS INSTRUCTION COUNT MISMATCH");
  if (serve) {
    std::printf("  open loop: %llu jobs, %llu submitted after their due "
                "arrival\n",
                static_cast<unsigned long long>(ref.items),
                static_cast<unsigned long long>(ref.generator_late));
  }

  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = per_layer(traced, untraced, host_scale);
    // About 30 MB of JSON: the first few passes of every workload.
    constexpr std::size_t kMaxWrittenSpans = 1 << 18;
    if (!o.trace_out.empty()) {
      if (!on.write(o.trace_out, kMaxWrittenSpans)) {
        std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
        return 1;
      }
      std::printf("  %zu host-time spans recorded, the first %zu written to "
                  "%s\n",
                  on.spans().size(),
                  std::min(kMaxWrittenSpans, on.spans().size()),
                  o.trace_out.c_str());
    }
    if (!serve) print_paper_anchors(o.seed);
  } else {
    metrics = end_to_end(untraced, ref, host_scale);
    std::printf("  best pass: %.6f s in timed calls, raw; calibration "
                "fastest %.3f ms, reference %.3f ms\n",
                best_pass_s(untraced, &Pass::item_timed_ns),
                static_cast<double>(calib_best) / 1e6,
                kCalibrationRefNs / 1e6);
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6g %-8s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  (host times: calibrated, %s %zu passes; simulated latency "
              "percentiles over %zu samples)\n",
              o.trace ? "median over" : "each item's best of",
              o.trace ? traced.size() : untraced.size(), ref.latency.size());
  print_json(correct, attempted, failed, metrics, ref.fp.value(),
             untraced.size() + traced.size());
  return 0;
}
