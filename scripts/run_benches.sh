#!/usr/bin/env bash
# Run every bench binary and wrap each run in a JSON artifact so future PRs
# have a perf trajectory to regress against.  See docs/BENCHMARKS.md for the
# schema and the bench -> paper figure/table mapping.
#
# Benches are run in native --json mode (schema v2): each binary prints
# parsed {case, ...metric} rows which land in the artifact's "rows" field.
# micro_components (Google Benchmark) has no --json; its stdout is captured
# line-by-line instead.
#
# Usage:
#   scripts/run_benches.sh [--parallel[=N]] [BUILD_DIR] [OUT_DIR]
#
#   --parallel[=N]  shard every schema-v2 bench's sweep grid across N
#                   worker processes (default: nproc) via
#                   scripts/sweep_runner.py; the merged artifacts are
#                   byte-compatible with a serial run. micro_components
#                   stays serial (no grid).
#   BUILD_DIR       cmake build tree with bench/ binaries (default: build)
#   OUT_DIR         where to write <bench>.json artifacts (default:
#                   bench-out)
#
# micro_components always runs with --benchmark_min_time=0.01 (a smoke run,
# as in CI); run it by hand for stable timings.
#
# Env knobs — one list, forwarded to the benches natively (the registry in
# bench/grid.hpp reads them; run `<bench> --help` or --list-knobs for the
# value sets):
#   ARCANE_BENCH_BACKEND=name      ideal|psram|dram (default: each bench's
#                                  sweep/default)
#   ARCANE_BENCH_LANES=n           2|4|8: restrict the lane sweep
#   ARCANE_BENCH_REPLACEMENT=name  LLC replacement policy
#   ARCANE_BENCH_SCHED_POLICY=name fifo|rr|sjf|priority
#   ARCANE_BENCH_DETERMINISTIC=1   zero the wall-clock trend fields
set -u

PARALLEL=""
case "${1:-}" in
  --parallel)
    PARALLEL="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
    shift
    ;;
  --parallel=*)
    PARALLEL="${1#--parallel=}"
    shift
    ;;
esac

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-out}"

if ! command -v python3 >/dev/null 2>&1; then
  echo "error: python3 is required for JSON assembly" >&2
  exit 1
fi

if [ ! -d "${BUILD_DIR}/bench" ]; then
  echo "error: ${BUILD_DIR}/bench not found — build the project first:" >&2
  echo "  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi

mkdir -p "${OUT_DIR}"

# bench binary -> what it reproduces (kept in sync with docs/BENCHMARKS.md
# and the BENCHES list in scripts/sweep_runner.py).
benches=(
  "fig2_area_split:Figure 2 (area split)"
  "fig3_phase_overhead:Figure 3 (non-compute phase overhead)"
  "fig4_speedup:Figure 4 (conv-layer speedup)"
  "table1_kernel_catalogue:Table I (xmnmc kernel catalogue)"
  "table2_synthesis_area:Table II (synthesis area)"
  "sec5c_state_of_the_art:Section V-C (state-of-the-art comparison)"
  "pipeline_throughput:Scheduler (multi-tenant requests/sec + job latency)"
  "qos_slo:QoS (admission control: goodput, drop rate, SLO attainment)"
  "fault_recovery:Fault injection (availability, goodput retention, recovery time)"
  "sim_throughput:Host simulator (simulated cycles & kernel ops per host second)"
  "ablation_crt:Ablation (C-RT / datapath design choices)"
  "ablation_replacement:Ablation (LLC replacement policy)"
  "micro_components:Micro (simulator component throughput)"
)

failures=0
ran=0

if [ -n "${PARALLEL}" ]; then
  # Sharded path: every schema-v2 bench through the sweep runner in one
  # shot (it writes the same artifact envelope this script does).
  sweep_args=(--build-dir "${BUILD_DIR}" --out-dir "${OUT_DIR}"
              --jobs "${PARALLEL}")
  echo "run: sharded sweep (${PARALLEL} workers)"
  if python3 "$(dirname "$0")/sweep_runner.py" "${sweep_args[@]}"; then
    ran=12
  else
    ran=12
    failures=$((failures + 1))
  fi
  benches=("micro_components:Micro (simulator component throughput)")
fi

for entry in "${benches[@]}"; do
  name="${entry%%:*}"
  reproduces="${entry#*:}"
  bin="${BUILD_DIR}/bench/${name}"
  if [ ! -x "${bin}" ]; then
    # micro_components is optional (needs Google Benchmark); every other
    # bench missing from the build tree is an error, not a skip.
    if [ "${name}" = "micro_components" ]; then
      echo "skip: ${name} (binary not built)"
    else
      echo "FAIL: ${name} (binary not built)" >&2
      failures=$((failures + 1))
    fi
    continue
  fi

  native_json=1
  arg=--json
  if [ "${name}" = "micro_components" ]; then
    native_json=0
    arg=--benchmark_min_time=0.01
  fi

  echo "run: ${name}"
  stdout_file="$(mktemp)"
  # time via python: BSD date lacks %N.
  start="$(python3 -c 'import time; print(time.time())')"
  "${bin}" "${arg}" >"${stdout_file}" 2>&1
  exit_code=$?
  end="$(python3 -c 'import time; print(time.time())')"

  if ! BENCH_NAME="${name}" BENCH_REPRODUCES="${reproduces}" \
       BENCH_EXIT="${exit_code}" BENCH_START="${start}" BENCH_END="${end}" \
       BENCH_STDOUT="${stdout_file}" \
       BENCH_NATIVE_JSON="${native_json}" \
       BENCH_BACKEND="${ARCANE_BENCH_BACKEND:-}" \
       BENCH_LANES="${ARCANE_BENCH_LANES:-}" \
       BENCH_REPLACEMENT="${ARCANE_BENCH_REPLACEMENT:-}" \
       BENCH_SCHED_POLICY="${ARCANE_BENCH_SCHED_POLICY:-}" \
       BENCH_DETERMINISTIC="${ARCANE_BENCH_DETERMINISTIC:-}" \
       python3 - >"${OUT_DIR}/${name}.json" <<'PY'
import json, os, sys
with open(os.environ["BENCH_STDOUT"], errors="replace") as f:
    text = f.read()
envelope = {
    "schema_version": 2,
    "bench": os.environ["BENCH_NAME"],
    "reproduces": os.environ["BENCH_REPRODUCES"],
    "backend": os.environ["BENCH_BACKEND"] or None,
    "lanes": os.environ["BENCH_LANES"] or None,
    "replacement": os.environ["BENCH_REPLACEMENT"] or None,
    "sched_policy": os.environ["BENCH_SCHED_POLICY"] or None,
    # The bench registry's truthiness (bench/grid.hpp).
    "deterministic": os.environ["BENCH_DETERMINISTIC"] not in ("", "0",
                                                               "false"),
    "exit_code": int(os.environ["BENCH_EXIT"]),
    "wall_seconds": round(
        float(os.environ["BENCH_END"]) - float(os.environ["BENCH_START"]), 3),
}
rows = None
if os.environ["BENCH_NATIVE_JSON"] == "1" and envelope["exit_code"] == 0:
    try:
        rows = json.loads(text).get("rows")
    except ValueError:
        pass  # fall back to raw stdout capture below
if rows is not None:
    envelope["rows"] = rows
else:
    envelope["stdout"] = text.splitlines()
json.dump(envelope, sys.stdout, indent=2)
sys.stdout.write("\n")
PY
  then
    echo "FAIL: ${name} (could not write JSON artifact)" >&2
    failures=$((failures + 1))
  fi
  rm -f "${stdout_file}"

  ran=$((ran + 1))
  if [ "${exit_code}" -ne 0 ]; then
    echo "FAIL: ${name} (exit ${exit_code})" >&2
    failures=$((failures + 1))
  fi
done

echo
echo "wrote ${ran} artifacts to ${OUT_DIR}/ (${failures} failures)"
[ "${failures}" -eq 0 ]
