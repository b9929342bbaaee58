// Shared pieces of the perfbench binary: the host clock, the in-memory span
// tracer, the simulated-state fingerprint, and the per-pass record every
// workload fills. One *pass* runs every item of a workload once, each on a
// fresh arcane::System; main() repeats passes for the requested time.
#ifndef PERFBENCH_BENCH_HPP_
#define PERFBENCH_BENCH_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace arcane {
class System;
}

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host nanoseconds a fixed register-machine interpreter loop takes right
/// now. It does the same kind of work as the simulator (opcode dispatch,
/// register-file and memory traffic, data-dependent branches) but is frozen
/// in the benchmark, so its speed tracks how much of a shared host this
/// process currently gets and never moves with the simulator's code.
std::int64_t calibration_ns();
/// calibration_ns() on an uncontended host: a 4-core Xeon VM, GCC 12 -O3.
inline constexpr double kCalibrationRefNs = 2.7e6;

/// FNV-1a over every simulated number and output byte of a pass. Host
/// timings never enter it, so it must be identical across passes, runs and
/// traced/untraced modes for one seed.
class Fingerprint {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void add(std::uint64_t v) { add_bytes(&v, sizeof(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Host-time spans at each benchmark call into a simulator layer. Spans are
/// kept in memory and written as Chrome trace JSON (ui.perfetto.dev) when
/// the run ends. Every span carries the item (conv layer or served job) it
/// belongs to and the span that encloses it.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t begin_ns, end_ns;
    std::uint32_t id, parent;
    std::int64_t item;  // -1: not tied to one item
  };

  bool enabled = false;
  std::int64_t item = -1;  // item the next spans belong to

  /// Times one call: adds its duration to `acc_ns` always, and records a
  /// span when the tracer is enabled.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t& acc_ns)
        : t_(t), name_(name), acc_(acc_ns) {
      if (t_.enabled) {
        id_ = ++t_.next_id_;
        parent_ = t_.open_;
        t_.open_ = id_;
      }
      begin_ = now_ns();
    }
    ~Scope() {
      const std::int64_t end = now_ns();
      acc_ += end - begin_;
      if (t_.enabled) {
        t_.spans_.push_back({name_, begin_, end, id_, parent_, t_.item});
        t_.open_ = parent_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    const char* name_;
    std::int64_t& acc_;
    std::int64_t begin_ = 0;
    std::uint32_t id_ = 0, parent_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Write the first `max_spans` recorded spans (all are recorded, so the
  /// tracing overhead stays that of a full trace); returns false when the
  /// file cannot be written.
  bool write(const std::string& path, std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 0;
  std::uint32_t open_ = 0;
};

/// Simulated per-layer counters of a pass, keyed by metric name. Integers
/// only: they are deterministic and all feed the fingerprint.
using Counters = std::map<std::string, std::uint64_t>;

/// Add every layer's statistics of `sys` (after its run) to `c`.
/// `sim_cycles` is the run's simulated length, the base of utilizations.
void collect_counters(arcane::System& sys, std::uint64_t sim_cycles,
                      Counters& c);

/// One pass over a workload's items.
struct Pass {
  // Host nanoseconds per benchmark call site, summed over the pass.
  std::int64_t ctor_ns = 0;    // arcane::System construction
  std::int64_t place_ns = 0;   // operand placement (System::write_bytes)
  std::int64_t load_ns = 0;    // System::load_program
  std::int64_t run_ns = 0;     // System::run_unchecked / event-queue calls
  std::int64_t submit_ns = 0;  // sched::Scheduler::submit
  std::int64_t verify_ns = 0;  // golden-model checks (never timed as run)
  std::int64_t iss_ns = 0;     // isolated cpu::HostCpu::run (traced only)
  std::int64_t wall_ns = 0;    // whole pass, minus the isolated ISS runs

  std::uint64_t items = 0;   // conv layers or served jobs attempted
  std::uint64_t failed = 0;  // mismatched, halted abnormally, threw, unresolved
  std::uint64_t sim_cycles = 0;         // per-item sum, or makespan
  std::vector<std::uint64_t> latency;   // simulated cycles per item / job
  std::uint64_t iss_insns = 0;          // isolated-ISS instructions
  bool iss_mismatch = false;  // isolated ISS retired a different count
  std::uint64_t generator_late = 0;     // serve: submits after their due time
  Counters c;
  Fingerprint fp;
  // Set-up and timed host ns of each item (a serve pass is one item), for
  // the best-of-repetitions end-to-end estimate.
  std::vector<std::int64_t> item_setup_ns, item_timed_ns;

  std::int64_t setup_ns() const { return ctor_ns + place_ns + load_ns; }
  std::int64_t timed_ns() const { return run_ns + submit_ns; }
  /// Record the item that started when the totals read `setup0`/`timed0`.
  void end_item(std::int64_t setup0, std::int64_t timed0) {
    item_setup_ns.push_back(setup_ns() - setup0);
    item_timed_ns.push_back(timed_ns() - timed0);
  }
};

/// Workload entry points: run one pass. `tr` decides whether spans are
/// recorded; `isolate_iss` also re-runs each item's program on a
/// benchmark-owned HostCpu over a flat memory port.
Pass run_conv_pass(const std::string& workload, std::uint64_t seed,
                   Tracer& tr, bool isolate_iss);
Pass run_serve_pass(std::uint64_t seed, Tracer& tr);

/// Print the paper-anchor speedups from the conv workloads' cycle counts.
void print_paper_anchors(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP_
