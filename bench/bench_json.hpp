// Shared --json plumbing for the bench binaries.
//
// A bench invoked with --json prints exactly one JSON document to stdout:
//
//   {"schema_version": 2, "bench": "<name>", "rows": [{...}, ...]}
//
// Each row carries a string "case" (plus optional string tags such as
// "backend" or "impl" that together identify the row) and numeric metric
// fields ("cycles", "speedup", ...). scripts/run_benches.sh and
// scripts/sweep_runner.py embed the parsed rows into their artifact
// envelope and scripts/check_bench_regression.py diffs the numeric fields
// against the blessed baselines in bench/baselines/ (see
// docs/BENCHMARKS.md).
//
// CLI parsing, the knob registry (with ARCANE_BENCH_* env fallbacks) and
// the sweep-grid API (--list-cells / --cell=<id> sharding) live in
// bench/grid.hpp — every bench builds a benchjson::Harness instead of
// hand-rolling argument handling.
#ifndef ARCANE_BENCH_BENCH_JSON_HPP_
#define ARCANE_BENCH_BENCH_JSON_HPP_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "grid.hpp"
#include "sched/scheduler.hpp"
#include "sim/stats.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace arcane::benchjson {

/// Latency percentile over an ascending-sorted sample (floor index — the
/// definition every latency-reporting bench shares so p50/p99 stay
/// comparable across artifacts). Returns 0 on an empty sample.
inline Cycle percentile(const std::vector<Cycle>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

struct LatencyPercentiles {
  Cycle p50 = 0;
  Cycle p99 = 0;
};

/// p50/p99 of the completed jobs' latencies (completion - arrival) in the
/// scheduler's outcome log: every tenant's, or only `tenant`'s.
inline LatencyPercentiles latency_percentiles(
    const sched::Scheduler& sch, std::optional<unsigned> tenant = {}) {
  std::vector<Cycle> v;
  for (const sched::JobReport& r : sch.completed()) {
    if (!tenant || r.tenant == *tenant) v.push_back(r.latency());
  }
  std::sort(v.begin(), v.end());
  return {percentile(v, 0.50), percentile(v, 0.99)};
}

/// Wall-clock stopwatch for the informational `host_wall_ms` field every
/// schema-v2 row carries: the host time spent producing that row's
/// simulated metrics. check_bench_regression.py reports drift on
/// `host_wall_ms` (and any `*_per_host_sec` field) as a trend but never
/// gates on it — wall clock is machine-dependent, simulated metrics are
/// not. In --deterministic mode every reading is 0.0 so serial and
/// sharded outputs are byte-identical. See docs/BENCHMARKS.md.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double ms() const {
    if (g_deterministic) return 0.0;
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double seconds() const { return ms() / 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One result row: ordered key/value pairs, serialized as a JSON object.
class Row {
 public:
  Row& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    quoted += json_escape(v);
    quoted += '"';
    fields_.emplace_back(key, std::move(quoted));
    return *this;
  }
  Row& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    fields_.emplace_back(key, buf);
    return *this;
  }
  Row& num(const std::string& key, std::uint64_t v) {
    fields_.emplace_back(key, std::to_string(v));
    return *this;
  }
  Row& num(const std::string& key, unsigned v) {
    return num(key, static_cast<std::uint64_t>(v));
  }

  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += json_escape(fields_[i].first);
      out += "\": ";
      out += fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Collects rows and prints the schema-v2 document. One row per line:
/// sweep_runner.py splices per-cell fragments textually, so the rendering
/// here is the byte-level contract for merged == serial artifacts.
class Report {
 public:
  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  /// References stay valid across later row() calls (deque storage).
  Row& row() { return rows_.emplace_back(); }

  void print() const {
    std::printf("{\"schema_version\": 2, \"bench\": \"%s\", \"rows\": [\n",
                json_escape(bench_).c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::printf("  %s%s\n", rows_[i].json().c_str(),
                  i + 1 < rows_.size() ? "," : "");
    }
    std::printf("]}\n");
  }

 private:
  std::string bench_;
  std::deque<Row> rows_;
};

/// Gathers each run's telemetry into the --trace-out / --metrics-out
/// files. One bench process accumulates every run (grid cell x config) as
/// one Perfetto "process" in a single trace, and one entry in the metrics
/// document's "runs" array. Inactive (both paths empty) it does nothing,
/// so benches call it unconditionally.
class TelemetryCollector {
 public:
  explicit TelemetryCollector(const Options& opt)
      : trace_out_(opt.trace_out), metrics_out_(opt.metrics_out) {}

  /// True when --trace-out was given: benches then enable span recording
  /// on each System before driving it.
  bool tracing() const { return !trace_out_.empty(); }
  /// True when --metrics-out was given: benches then enable per-op timing
  /// capture (System::op_log().enable()) so the metrics document carries
  /// per-job critical paths. Reading the op log never perturbs timing, but
  /// the capture is opt-in to keep unmeasured runs allocation-free.
  bool metrics_enabled() const { return !metrics_out_.empty(); }

  /// Fold one completed run in. `run` names the Perfetto process / the
  /// metrics entry ("psram open/qos", ...); `sch` supplies the "flight"
  /// section. Pass the run's OpLog to embed a "critical_paths" array
  /// (telemetry::CriticalPath over its entries — consumed by
  /// `trace_summary.py --critical-path`).
  void collect(const std::string& run, const telemetry::SpanTracer& spans,
               const telemetry::Registry& reg, const sched::Scheduler& sch,
               const telemetry::OpLog* oplog = nullptr) {
    spans_recorded_ += spans.size();
    spans_dropped_ += spans.dropped();
    if (tracing()) trace_.add_process(run, spans);
    if (!metrics_out_.empty()) {
      std::ostringstream os;
      os << (first_run_ ? "" : ",\n") << "  {\"run\": \"" << json_escape(run)
         << "\", \"metrics\": ";
      reg.write_json(os);
      os << ", \"flight\": ";
      write_flight_json(os, sch);
      if (oplog != nullptr && oplog->enabled()) {
        os << ", \"critical_paths\": ";
        telemetry::CriticalPath::write_json(
            os, telemetry::CriticalPath::analyze(*oplog));
      }
      os << "}";
      runs_ += os.str();
      first_run_ = false;
    }
  }

  /// Totals across collected runs — the informational `telemetry_*` row
  /// fields (trend-only in check_bench_regression.py, like host_wall_ms).
  std::uint64_t spans_recorded() const { return spans_recorded_; }
  std::uint64_t spans_dropped() const { return spans_dropped_; }

  /// Write the requested files; a failed write warns on stderr and
  /// returns false but must not fail the bench run itself.
  bool finish(const std::string& bench) {
    bool ok = true;
    ensure_parent(trace_out_);
    ensure_parent(metrics_out_);
    if (tracing() && !trace_.write_file(trace_out_)) {
      std::fprintf(stderr, "warning: cannot write trace file '%s'\n",
                   trace_out_.c_str());
      ok = false;
    }
    if (!metrics_out_.empty()) {
      std::ofstream out(metrics_out_);
      if (out) {
        out << "{\"bench\": \"" << json_escape(bench) << "\", \"runs\": [\n"
            << runs_ << "\n]}\n";
      }
      if (!out) {
        std::fprintf(stderr, "warning: cannot write metrics file '%s'\n",
                     metrics_out_.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  /// Per tenant, from 0 up to the highest tenant with a resolved job: the
  /// resolved-job count and the flight recorder view Scheduler::recent()
  /// ("dropped" covers shed and failed jobs).
  static void write_flight_json(std::ostream& os, const sched::Scheduler& sch) {
    std::vector<std::uint64_t> totals;
    for (const sched::JobReport& r : sch.outcomes()) {
      if (r.tenant >= totals.size()) totals.resize(r.tenant + 1, 0);
      ++totals[r.tenant];
    }
    os << "{\"per_tenant_capacity\": " << sched::Scheduler::kFlightDepth
       << ", \"tenants\": [";
    for (unsigned t = 0; t < totals.size(); ++t) {
      os << (t == 0 ? "" : ", ") << "{\"tenant\": " << t
         << ", \"total\": " << totals[t] << ", \"recent\": [";
      bool first = true;
      for (const sched::JobReport& r : sch.recent(t)) {
        os << (first ? "" : ", ") << "{\"job\": " << r.id
           << ", \"arrival\": " << r.arrival
           << ", \"first_dispatch\": " << r.first_dispatch
           << ", \"done\": " << r.done << ", \"deadline\": " << r.deadline
           << ", \"dropped\": "
           << (r.dropped || r.failed ? "true" : "false") << "}";
        first = false;
      }
      os << "]}";
    }
    os << "]}";
  }

  static void ensure_parent(const std::string& path) {
    if (path.empty()) return;
    const auto parent = std::filesystem::path(path).parent_path();
    if (parent.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best effort
  }

  std::string trace_out_;
  std::string metrics_out_;
  telemetry::TraceFile trace_;
  std::string runs_;
  bool first_run_ = true;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
};

/// Append the eight informational `stall_<bucket>_cycles` fields to a row
/// — the cycle-accounting breakdown of the simulated work behind it (zeros
/// for analytic benches that run no simulation). check_bench_regression.py
/// treats the `stall_` prefix as trend-only, and scripts/bench_explain.py
/// maps gated-metric regressions onto deltas in these fields. Emit them
/// after the row's gated metrics so artifact diffs keep gated fields
/// visually front-and-center.
inline Row& add_stall_fields(Row& row, const sim::OpStallBreakdown& bd) {
  for (unsigned i = 0; i < sim::kNumStallBuckets; ++i) {
    const auto b = static_cast<sim::StallBucket>(i);
    row.num(std::string("stall_") + sim::stall_bucket_name(b) + "_cycles",
            static_cast<std::uint64_t>(bd.cycles[i]));
  }
  return row;
}

/// The backends a bench should sweep: the one selected by --backend /
/// ARCANE_BENCH_BACKEND (or a --cell binding), or all three when unset.
inline std::vector<MemBackendKind> backend_sweep(const Options& opt) {
  if (opt.backend) return {*opt.backend};
  return {MemBackendKind::kIdealSram, MemBackendKind::kBurstPsram,
          MemBackendKind::kDramTiming};
}

}  // namespace arcane::benchjson

#endif  // ARCANE_BENCH_BENCH_JSON_HPP_
