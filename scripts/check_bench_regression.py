#!/usr/bin/env python3
"""Diff bench JSON artifacts against the blessed baselines.

The perf-regression CI gate runs the full bench sweep, sharded and
checked byte-identical to a serial run
(`scripts/sweep_runner.py --build-dir build --out-dir bench-out --verify`),
and then:

    scripts/check_bench_regression.py --out-dir bench-out --tolerance 0

Serial and sharded (scripts/sweep_runner.py) artifacts are
interchangeable here: rows are matched by identity, not position, and a
sharded artifact's provenance ("sharding": cells/workers) is reported as
an informational line.

Every artifact with native rows under bench/baselines/ is compared row by
row: rows are identified by their string fields (case, backend, impl, ...),
and every numeric field must stay within --tolerance (default ±2%) of the
blessed value. Missing rows and missing artifacts fail; extra rows in the
new output only warn (bless to adopt them). Artifacts in --out-dir with no
blessed baseline at all — newly added benches — are reported as
"new (bless to adopt)" and do not fail the gate, EXCEPT when the bench
crashed (nonzero exit_code) or produced an unparseable artifact: a crashing
bench is always a hard failure, blessed or not.

Wall-clock row fields — `host_wall_ms` and anything ending in
`_per_host_sec` — are machine-dependent by nature: they are *reported* as an
informational trend (so the perf trajectory of the simulator itself is
recorded against the blessed values) but never gate the check, no matter how
far they drift. Fields starting with `telemetry_` (span/drop/truncation
counters from the observability layer) are treated the same way: they
depend on whether tracing was requested for the run, not on simulated
behaviour. Simulated metrics in the same rows stay fully gated.

`--self-test` exercises this classification against synthetic artifacts
(informational drift must pass, gated drift must fail) and exits nonzero on
any deviation; CI runs it so the never-gated list cannot silently regress.

Blessing new baselines (after a deliberate perf change), from the same
deterministic sweep CI runs:

    scripts/sweep_runner.py --build-dir build --out-dir bench-out --verify
    scripts/check_bench_regression.py --out-dir bench-out --bless

which rewrites bench/baselines/ from bench-out/, dropping volatile fields
(wall_seconds, exit_code). See docs/BENCHMARKS.md.
"""

import argparse
import json
import sys
from pathlib import Path

VOLATILE_ENVELOPE_FIELDS = ("wall_seconds", "exit_code", "sharding")

# Row fields recorded as an informational trend, never gated: wall-clock
# measurements and telemetry meta-counters (how much the observability
# layer itself recorded/dropped — a function of tracing knobs, not of
# simulated behaviour). The stall_* cycle-accounting fields are trends
# too: they decompose cycles the gated metrics already cover, so gating
# them would double-fail every real drift — their job is attribution
# (see scripts/bench_explain.py), not detection.
INFORMATIONAL_FIELDS = ("host_wall_ms",)
INFORMATIONAL_SUFFIXES = ("_per_host_sec",)
INFORMATIONAL_PREFIXES = ("telemetry_", "stall_")


def informational(field):
    """True for machine/knob-dependent fields that must not gate the check."""
    return (field in INFORMATIONAL_FIELDS
            or field.endswith(INFORMATIONAL_SUFFIXES)
            or field.startswith(INFORMATIONAL_PREFIXES))


def row_key(row):
    """Identity of a row: its string-valued fields, sorted by key."""
    return tuple(sorted((k, v) for k, v in row.items() if isinstance(v, str)))


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return doc, doc.get("rows")


def index_rows(rows, path):
    indexed = {}
    for row in rows:
        key = row_key(row)
        if key in indexed:
            raise SystemExit(f"{path}: duplicate row identity {key}")
        indexed[key] = row
    return indexed


def compare_value(old, new, tolerance):
    """True when `new` is within the relative tolerance of `old`."""
    if old == 0:
        return abs(new) < 1e-9
    return abs(new - old) <= tolerance * abs(old)


def check_artifact(baseline_path, out_path, tolerance):
    errors = []
    warnings = []
    trends = []
    infos = []
    _, base_rows = load_rows(baseline_path)
    if base_rows is None:
        return [], [f"{baseline_path.name}: baseline has no rows, "
                    f"skipping"], [], []
    if not out_path.exists():
        return ([f"{baseline_path.name}: no new artifact at {out_path}"],
                [], [], [])
    try:
        out_doc, out_rows = load_rows(out_path)
    except (ValueError, AttributeError):  # bad JSON / non-object doc
        return [
            f"{out_path}: artifact is not a valid artifact document "
            f"(bench wrapper failed?)"
        ], [], [], []
    if out_doc.get("exit_code", 0) != 0:
        where = out_doc.get("failed_cell")
        cell = f", cell={where}" if where else ""
        return [
            f"{out_path}: bench crashed "
            f"(exit_code={out_doc.get('exit_code')}{cell})"
        ], [], [], []
    if out_rows is None:
        return [
            f"{out_path}: artifact has no native rows "
            f"(exit_code={out_doc.get('exit_code')})"
        ], [], [], []

    base_index = index_rows(base_rows, baseline_path)
    out_index = index_rows(out_rows, out_path)

    # Sharded artifacts (scripts/sweep_runner.py) record their provenance;
    # report it so CI logs show how the artifact was produced.
    sharding = out_doc.get("sharding")
    if isinstance(sharding, dict):
        infos.append(
            f"{baseline_path.name}: merged from {sharding.get('cells')} "
            f"cell(s) by {sharding.get('workers')} worker(s)")

    # Row order is not part of a row's identity (sharded merges and loop
    # restructures may reorder); iterate sorted by row_key so the report
    # itself is deterministic.
    for key, base_row in sorted(base_index.items()):
        pretty = ", ".join(f"{k}={v}" for k, v in key)
        out_row = out_index.get(key)
        if out_row is None:
            errors.append(f"{baseline_path.name}: missing row [{pretty}]")
            continue
        for field, base_value in base_row.items():
            if isinstance(base_value, str):
                continue
            new_value = out_row.get(field)
            if not isinstance(new_value, (int, float)):
                if informational(field):
                    continue  # trend fields may come and go freely
                errors.append(
                    f"{baseline_path.name}: [{pretty}] field '{field}' "
                    f"missing from new output")
                continue
            if informational(field):
                # Wall-clock trend: report the drift, never fail on it.
                if base_value != 0 and not compare_value(
                        base_value, new_value, tolerance):
                    pct = (new_value - base_value) / base_value * 100.0
                    trends.append(
                        f"{baseline_path.name}: [{pretty}] {field} "
                        f"{pct:+.1f}% ({base_value} -> {new_value})")
                continue
            if not compare_value(base_value, new_value, tolerance):
                if base_value == 0:
                    drift = "from zero"
                else:
                    pct = (new_value - base_value) / base_value * 100.0
                    drift = f"{pct:+.2f}%"
                errors.append(
                    f"{baseline_path.name}: [{pretty}] {field} drifted "
                    f"{drift} ({base_value} -> {new_value}, "
                    f"tolerance ±{tolerance * 100:.0f}%)")
    for key in sorted(out_index.keys() - base_index.keys()):
        pretty = ", ".join(f"{k}={v}" for k, v in key)
        warnings.append(
            f"{baseline_path.name}: new row [{pretty}] not in baseline "
            f"(run --bless to adopt)")
    return errors, warnings, trends, infos


def bless(out_dir, baseline_dir):
    baseline_dir.mkdir(parents=True, exist_ok=True)
    blessed = 0
    for out_path in sorted(out_dir.glob("*.json")):
        doc, rows = load_rows(out_path)
        if rows is None:
            print(f"skip (no native rows): {out_path.name}")
            continue
        if doc.get("exit_code", 0) != 0:
            raise SystemExit(f"refusing to bless failed run: {out_path}")
        for field in VOLATILE_ENVELOPE_FIELDS:
            doc.pop(field, None)
        # Row order is presentation, identity is row_key: store baselines
        # sorted so serial and sharded sweeps bless identical files.
        doc["rows"] = sorted(rows, key=row_key)
        target = baseline_dir / out_path.name
        with open(target, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"blessed: {target}")
        blessed += 1
    if blessed == 0:
        raise SystemExit(f"no artifacts with rows found in {out_dir}")


def self_test():
    """Verify the informational/gated field classification end to end.

    Builds a synthetic baseline + out-dir pair in a tempdir and runs
    check_artifact on it: drift in host_wall_ms / *_per_host_sec /
    telemetry_* must never produce an error (only a trend line), drift in
    any other numeric field must, and a *missing* informational field must
    pass while a missing gated field must not.
    """
    import tempfile

    base_row = {
        "case": "x", "backend": "psram",
        "cycles": 1000, "p99_latency_cycles": 500,
        "host_wall_ms": 12.5, "rows_per_host_sec": 400.0,
        "telemetry_spans_recorded": 900, "telemetry_spans_dropped": 0,
        "stall_mem_refill_cycles": 2000, "stall_compute_cycles": 6000,
    }

    def artifact(rows):
        return {"schema_version": 2, "bench": "synthetic", "rows": rows}

    def run_case(name, new_row, want_error_fields, want_trend_fields,
                 base=None):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            base_path = tmp / "synthetic.json"
            out_path = tmp / "out.json"
            base_path.write_text(json.dumps(artifact([base or base_row])))
            out_path.write_text(json.dumps(artifact([new_row])))
            errors, _, trends, _ = check_artifact(base_path, out_path, 0.02)
        error_fields = {f for f in want_error_fields
                        if any(f" {f} " in e or f"'{f}'" in e
                               for e in errors)}
        failures = []
        if error_fields != set(want_error_fields):
            failures.append(f"expected errors on {sorted(want_error_fields)}"
                            f", got: {errors}")
        if len(errors) != len(want_error_fields):
            failures.append(f"unexpected extra errors: {errors}")
        trend_fields = {f for f in want_trend_fields
                        if any(f" {f} " in t for t in trends)}
        if trend_fields != set(want_trend_fields):
            failures.append(f"expected trends on {sorted(want_trend_fields)}"
                            f", got: {trends}")
        status = "ok" if not failures else "FAIL"
        print(f"self-test [{status}]: {name}")
        return failures

    failures = []
    failures += run_case(
        "informational drift never gates",
        {**base_row, "host_wall_ms": 9000.0, "rows_per_host_sec": 1e6,
         "telemetry_spans_recorded": 0, "telemetry_spans_dropped": 777},
        want_error_fields=[],
        want_trend_fields=["host_wall_ms", "rows_per_host_sec"])
    failures += run_case(
        "stall accounting drift trends but never gates",
        {**base_row, "stall_mem_refill_cycles": 9000,
         "stall_compute_cycles": 100},
        want_error_fields=[],
        want_trend_fields=["stall_mem_refill_cycles",
                           "stall_compute_cycles"])
    failures += run_case(
        "gated drift fails",
        {**base_row, "cycles": 1100},
        want_error_fields=["cycles"],
        want_trend_fields=[])
    failures += run_case(
        "gated p99 drift fails even with informational drift alongside",
        {**base_row, "p99_latency_cycles": 5000, "telemetry_spans_dropped": 3},
        want_error_fields=["p99_latency_cycles"],
        want_trend_fields=[])
    # fault_recovery-shaped artifact: the availability / recovery metrics
    # are gated like any simulated number, while the retry-backoff stall
    # bucket stays an attribution trend.
    fault_row = {
        "case": "failstop/all", "scenario": "failstop", "backend": "psram",
        "availability_pct": 97.5, "goodput_retention_pct": 97.5,
        "recovery_cycles": 1295, "p99_latency_cycles": 66620,
        "stall_retry_backoff_cycles": 320,
    }
    failures += run_case(
        "fault availability/recovery drift gates, retry backoff trends",
        {**fault_row, "availability_pct": 80.0, "recovery_cycles": 50000,
         "stall_retry_backoff_cycles": 9000},
        want_error_fields=["availability_pct", "recovery_cycles"],
        want_trend_fields=["stall_retry_backoff_cycles"],
        base=fault_row)

    # A crashed sharded bench must surface the failing cell id.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base_path = tmp / "fault_recovery.json"
        out_path = tmp / "fault_recovery_out.json"
        base_path.write_text(json.dumps(artifact([fault_row])))
        out_path.write_text(json.dumps(
            {"schema_version": 2, "bench": "fault_recovery", "exit_code": 134,
             "failed_cell": "psram/failstop", "stdout": ["Assertion failed"]}))
        errors, _, _, _ = check_artifact(base_path, out_path, 0.02)
        crash_ok = (len(errors) == 1 and "exit_code=134" in errors[0]
                    and "cell=psram/failstop" in errors[0])
        print(f"self-test [{'ok' if crash_ok else 'FAIL'}]: "
              f"crashed bench reports the failing cell")
        if not crash_ok:
            failures.append(f"expected a crash error naming the cell, "
                            f"got: {errors}")

    missing_informational = {k: v for k, v in base_row.items()
                             if not informational(k)}
    failures += run_case(
        "missing informational fields pass",
        missing_informational,
        want_error_fields=[],
        want_trend_fields=[])
    missing_gated = {k: v for k, v in base_row.items() if k != "cycles"}
    failures += run_case(
        "missing gated field fails",
        missing_gated,
        want_error_fields=["cycles"],
        want_trend_fields=[])
    identical = dict(base_row)
    failures += run_case(
        "identical rows pass clean",
        identical,
        want_error_fields=[],
        want_trend_fields=[])

    if failures:
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        raise SystemExit("self-test FAILED")
    print("self-test OK: informational fields "
          f"{INFORMATIONAL_FIELDS + INFORMATIONAL_SUFFIXES + INFORMATIONAL_PREFIXES} "
          "never gate; everything else does")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="bench-out", type=Path,
                        help="directory with fresh run_benches.sh artifacts")
    parser.add_argument("--baseline-dir", default=Path("bench/baselines"),
                        type=Path, help="directory with blessed baselines")
    parser.add_argument("--tolerance", default=0.02, type=float,
                        help="relative drift tolerance (0.02 = ±2%%)")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the baselines from --out-dir")
    parser.add_argument("--self-test", action="store_true",
                        help="check the informational/gated field "
                             "classification against synthetic artifacts")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return
    if args.bless:
        bless(args.out_dir, args.baseline_dir)
        return

    baselines = sorted(args.baseline_dir.glob("*.json"))
    if not baselines:
        raise SystemExit(f"no baselines under {args.baseline_dir} — run "
                         f"--bless after a bench sweep to create them")
    all_errors = []
    failing_trends = []  # trend lines of artifacts that also hard-failed
    for baseline_path in baselines:
        errors, warnings, trends, infos = check_artifact(
            baseline_path, args.out_dir / baseline_path.name, args.tolerance)
        for i in infos:
            print(f"info: {i}")
        for w in warnings:
            print(f"warning: {w}")
        for t in trends:
            print(f"trend (informational, not gated): {t}")
        all_errors.extend(errors)
        if errors:
            failing_trends.extend(trends)

    # Newly added benches: artifacts with no baseline yet. Healthy ones are
    # adoptable; a new bench that crashed or emitted garbage is a hard
    # failure — CI must not go green on a crashing bench just because
    # nobody blessed it yet.
    known = {p.name for p in baselines}
    for out_path in sorted(args.out_dir.glob("*.json")):
        if out_path.name in known:
            continue
        try:
            doc, rows = load_rows(out_path)
        except (ValueError, AttributeError):  # bad JSON / non-object doc
            all_errors.append(
                f"new artifact {out_path.name} is not a valid artifact "
                f"document (bench wrapper failed?)")
            continue
        code = doc.get("exit_code")
        if code not in (0, None):
            where = doc.get("failed_cell")
            cell = f", cell={where}" if where else ""
            all_errors.append(
                f"new artifact {out_path.name} crashed "
                f"(exit_code={code}{cell})")
            continue
        if rows is None:
            print(f"note: new artifact {out_path.name} has no native "
                  f"rows (stdout-only bench); nothing to gate")
            continue
        print(f"new (bless to adopt): {out_path.name} has {len(rows)} "
              f"native row(s) and no blessed baseline")

    if all_errors:
        print(f"\n{len(all_errors)} bench gate failure(s) "
              f"(perf regressions vs blessed baselines, or crashes):",
              file=sys.stderr)
        for e in all_errors:
            print(f"  {e}", file=sys.stderr)
        # Attribution footer: repeat the failing artifacts' informational
        # trends (stall_* / wall-clock movement) next to the errors so the
        # "where did the cycles go" context is in the same log block, and
        # point at the explain tool for the ranked per-row breakdown.
        if failing_trends:
            print("\ninformational trends on the failing artifact(s) "
                  "(not gated, but they say where the cycles went):",
                  file=sys.stderr)
            for t in failing_trends:
                print(f"  {t}", file=sys.stderr)
        print(f"\nto attribute these drifts to stall buckets, run:\n"
              f"  scripts/bench_explain.py {args.baseline_dir} "
              f"{args.out_dir} --tolerance {args.tolerance}",
              file=sys.stderr)
        sys.exit(1)
    print(f"OK: {len(baselines)} bench artifact(s) within "
          f"±{args.tolerance * 100:.0f}% of blessed baselines")


if __name__ == "__main__":
    main()
