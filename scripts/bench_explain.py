#!/usr/bin/env python3
"""Attribute bench regressions to cycle-accounting stall buckets.

When `check_bench_regression.py` reports a gated drift, the natural next
question is *where the extra cycles went*. Every schema-v2 bench row
carries the per-op stall breakdown (`stall_<bucket>_cycles` fields, one
per `sim::StallBucket`), accumulated by the scheduler/executor cycle
accounting. This script diffs two artifacts row by row and, for every
regressed row, ranks the stall-bucket deltas so a "+9% cycles" failure
reads as "+9% cycles, 84% of the new stall time is mem_refill":

    scripts/bench_explain.py bench/baselines/qos_slo.json \\
        bench-out/qos_slo.json

Both positionals may also be directories, in which case every artifact
name present in both is diffed (CI calls it this way on gate failure):

    scripts/bench_explain.py bench/baselines bench-out --json > explain.json

Attribution is heuristic by design: stall buckets are exclusive per op,
so the bucket deltas of a row decompose *that row's* total op-cycle
movement exactly, but a gated metric (p99 latency, hit rate, GOPS) is a
projection of those cycles, not a sum of them. The report therefore
ranks buckets by signed cycle delta and reports each bucket's share of
the total absolute stall movement; rows whose stall fields did not move
(host-only or analytic benches) are labelled as not stall-driven.

With --metrics both runs' `--metrics-out` documents can be diffed too:
matching runs ("runs"[].run) get their `sched.stall.*` / per-tenant
counters compared the same way.

`--self-test` builds a synthetic artifact pair with a known injected
memory-stall regression and exits nonzero unless the report attributes
the drift to the right bucket (CI runs this as bench_explain_self_test).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_bench_regression import informational, load_rows, row_key

STALL_PREFIX = "stall_"
STALL_SUFFIX = "_cycles"


def stall_bucket(field):
    """Bucket name for a stall field ('stall_mem_refill_cycles' ->
    'mem_refill'), or None for every other field."""
    if field.startswith(STALL_PREFIX) and field.endswith(STALL_SUFFIX):
        return field[len(STALL_PREFIX):-len(STALL_SUFFIX)]
    return None


def pct(base, new):
    return (new - base) / base * 100.0 if base else None


def diff_rows(base_row, out_row, tolerance):
    """One row's gated drifts and stall-bucket deltas.

    Returns (regressions, stall_deltas): `regressions` lists every gated
    numeric field outside tolerance, `stall_deltas` maps bucket name ->
    signed cycle delta (all buckets present in either row).
    """
    regressions = []
    stall_deltas = {}
    # Stall fields are diffed over the union of both rows, absent -> 0:
    # baselines blessed before the accounting landed still attribute.
    for field in sorted(set(base_row) | set(out_row)):
        bucket = stall_bucket(field)
        if bucket is None:
            continue
        base_value = base_row.get(field, 0)
        new_value = out_row.get(field, 0)
        if (isinstance(base_value, (int, float))
                and isinstance(new_value, (int, float))
                and new_value != base_value):
            stall_deltas[bucket] = new_value - base_value
    for field, base_value in base_row.items():
        if isinstance(base_value, str) or stall_bucket(field) is not None:
            continue
        new_value = out_row.get(field)
        if not isinstance(new_value, (int, float)):
            continue  # the gate already reports missing fields
        if informational(field):
            continue
        if base_value == 0:
            drifted = abs(new_value) >= 1e-9
        else:
            drifted = abs(new_value - base_value) > tolerance * abs(base_value)
        if drifted:
            regressions.append({
                "field": field,
                "base": base_value,
                "new": new_value,
                "pct": pct(base_value, new_value),
            })
    return regressions, stall_deltas


def attribute(stall_deltas):
    """Rank bucket deltas by |cycles| and stamp each one's share of the
    total absolute stall movement."""
    total = sum(abs(d) for d in stall_deltas.values())
    ranked = sorted(stall_deltas.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    return [{
        "bucket": bucket,
        "delta_cycles": delta,
        "share_pct": abs(delta) / total * 100.0,
    } for bucket, delta in ranked]


def explain_artifact(base_path, out_path, tolerance):
    """Diff one artifact pair. Returns the report dict for this artifact
    (rows sorted worst-first) or None when it cannot be diffed."""
    _, base_rows = load_rows(base_path)
    try:
        _, out_rows = load_rows(out_path)
    except (OSError, ValueError, AttributeError):
        print(f"warning: cannot read {out_path}, skipping", file=sys.stderr)
        return None
    if base_rows is None or out_rows is None:
        return None

    base_index = {row_key(r): r for r in base_rows}
    out_index = {row_key(r): r for r in out_rows}

    row_reports = []
    for key in sorted(base_index.keys() & out_index.keys()):
        regressions, stall_deltas = diff_rows(base_index[key],
                                              out_index[key], tolerance)
        if not regressions:
            continue
        row_reports.append({
            "row": dict(key),
            "regressions": regressions,
            "stall_delta_cycles": stall_deltas,
            "attribution": attribute(stall_deltas),
        })
    # Worst drift first so the headline regression leads the report.
    row_reports.sort(key=lambda r: -max(
        abs(x["pct"]) if x["pct"] is not None else float("inf")
        for x in r["regressions"]))
    return {
        "artifact": base_path.name,
        "baseline": str(base_path),
        "new": str(out_path),
        "rows": row_reports,
    }


def diff_metrics_docs(base_path, out_path):
    """Diff two --metrics-out documents: per matching run, every numeric
    metric whose value moved (stall counters first)."""

    def runs_of(path):
        with open(path) as f:
            doc = json.load(f)
        # Registry::write_json puts every metric, a plain integer, under
        # "scalars".
        return {run.get("run"): run.get("metrics", {}).get("scalars", {})
                for run in doc.get("runs", [])}

    base_runs = runs_of(base_path)
    out_runs = runs_of(out_path)
    report = []
    for run in sorted(base_runs.keys() & out_runs.keys()):
        base_m, out_m = base_runs[run], out_runs[run]
        deltas = []
        for name in sorted(base_m.keys() & out_m.keys()):
            b, n = base_m[name], out_m[name]
            if not isinstance(b, (int, float)) or not isinstance(
                    n, (int, float)) or b == n:
                continue
            deltas.append({"metric": name, "base": b, "new": n,
                           "delta": n - b})
        if deltas:
            # Stall counters lead: they are what this tool explains with.
            deltas.sort(key=lambda d: (".stall." not in d["metric"],
                                       -abs(d["delta"])))
            report.append({"run": run, "deltas": deltas})
    return report


def print_human(reports, metrics_report):
    regressed = False
    for rep in reports:
        if not rep["rows"]:
            continue
        regressed = True
        print(f"{rep['artifact']}: {len(rep['rows'])} regressed row(s) "
              f"({rep['baseline']} -> {rep['new']})")
        for row in rep["rows"]:
            pretty = ", ".join(f"{k}={v}" for k, v in sorted(
                row["row"].items()))
            print(f"  [{pretty}]")
            for reg in row["regressions"]:
                drift = ("from zero" if reg["pct"] is None
                         else f"{reg['pct']:+.2f}%")
                print(f"    {reg['field']} {drift} "
                      f"({reg['base']} -> {reg['new']})")
            if row["attribution"]:
                print("    stall attribution (Δcycles, share of stall "
                      "movement):")
                for a in row["attribution"]:
                    print(f"      {a['bucket']:<14} {a['delta_cycles']:>+12} "
                          f"({a['share_pct']:5.1f}%)")
            else:
                print("    no stall-bucket movement: regression is not "
                      "dispatch/memory-stall driven (host-only or analytic "
                      "row, or a non-cycle metric)")
        print()
    for run in metrics_report:
        print(f"metrics doc, run '{run['run']}': "
              f"{len(run['deltas'])} counter(s) moved")
        for d in run["deltas"][:16]:
            print(f"  {d['metric']:<36} {d['delta']:>+14} "
                  f"({d['base']} -> {d['new']})")
        if len(run["deltas"]) > 16:
            print(f"  ... {len(run['deltas']) - 16} more "
                  f"(use --json for the full list)")
        print()
    if not regressed and not metrics_report:
        print("no gated drift beyond tolerance: nothing to explain")


def self_test():
    """End-to-end attribution check on a synthetic regression.

    Builds a baseline artifact and a 'new' artifact where one row's
    cycles grew by exactly the growth of its mem_refill stall bucket
    (an injected external-memory slowdown); the report must single that
    bucket out as the top attribution, leave the clean row out, and
    classify a stall-free analytic drift as not stall-driven.
    """
    import tempfile

    def row(case, cycles, **stalls):
        r = {"case": case, "backend": "psram", "cycles": cycles,
             "host_wall_ms": 1.0}
        for bucket in ("queue_wait", "hazard_defer", "dispatch", "alloc",
                       "mem_refill", "mem_dma", "compute", "writeback"):
            r[f"stall_{bucket}_cycles"] = stalls.get(bucket, 0)
        return r

    base_rows = [
        row("conv", 10000, compute=6000, mem_refill=2500, queue_wait=1500),
        row("chain", 8000, compute=5000, mem_dma=3000),
        {"case": "analytic", "backend": "psram", "gops": 17.0,
         "host_wall_ms": 1.0},
    ]
    new_rows = [
        # Injected regression: +3000 cycles, all of it external-memory
        # refill stall (plus a little queue-wait knock-on).
        row("conv", 13000, compute=6000, mem_refill=5000, queue_wait=2000),
        row("chain", 8000, compute=5000, mem_dma=3000),  # unchanged
        {"case": "analytic", "backend": "psram", "gops": 9.0,
         "host_wall_ms": 1.0},  # -47% drift with no stall story
    ]

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "synthetic.json"
        new = tmp / "synthetic_new.json"
        base.write_text(json.dumps(
            {"schema_version": 2, "bench": "synthetic", "rows": base_rows}))
        new.write_text(json.dumps(
            {"schema_version": 2, "bench": "synthetic", "rows": new_rows}))
        rep = explain_artifact(base, new, 0.02)

    rows = {r["row"]["case"]: r for r in rep["rows"]}
    if set(rows) != {"conv", "analytic"}:
        failures.append(f"expected regressed rows conv+analytic, "
                        f"got {sorted(rows)}")
    conv = rows.get("conv")
    if conv:
        top = conv["attribution"][0] if conv["attribution"] else None
        if top is None or top["bucket"] != "mem_refill":
            failures.append(f"top attribution should be mem_refill, "
                            f"got {top}")
        elif top["delta_cycles"] != 2500 or not (80 < top["share_pct"] < 90):
            failures.append(f"mem_refill delta/share wrong: {top}")
        got_fields = [r["field"] for r in conv["regressions"]]
        if got_fields != ["cycles"]:
            failures.append(f"conv should regress on cycles only, "
                            f"got {got_fields}")
        # stall_* fields themselves must never show up as regressions.
        if any(stall_bucket(f) for f in got_fields):
            failures.append("stall fields leaked into the gated list")
    analytic = rows.get("analytic")
    if analytic and analytic["attribution"]:
        failures.append(f"analytic row should have no stall attribution, "
                        f"got {analytic['attribution']}")
    # The report must lead with the worst relative drift (analytic -29%).
    if rep["rows"] and rep["rows"][0]["row"]["case"] != "analytic":
        failures.append(f"rows not ranked worst-first: "
                        f"{[r['row']['case'] for r in rep['rows']]}")

    if failures:
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        raise SystemExit("self-test FAILED")
    print("self-test OK: injected mem_refill regression attributed to "
          "mem_refill (2500 cycles, ~83% of stall movement); clean row "
          "silent; stall-free drift flagged as not stall-driven")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", type=Path,
                        help="blessed artifact (file) or baseline dir")
    parser.add_argument("new", nargs="?", type=Path,
                        help="fresh artifact (file) or out dir")
    parser.add_argument("--tolerance", default=0.02, type=float,
                        help="relative drift worth explaining "
                             "(match the gate's tolerance)")
    parser.add_argument("--metrics", nargs=2, metavar=("BASE", "NEW"),
                        type=Path,
                        help="also diff two --metrics-out documents")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")
    parser.add_argument("--self-test", action="store_true",
                        help="verify attribution on a synthetic injected "
                             "regression")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return
    if args.baseline is None or args.new is None:
        parser.error("baseline and new artifacts are required "
                     "(or use --self-test)")

    if args.baseline.is_dir():
        if not args.new.is_dir():
            parser.error(f"{args.baseline} is a directory but {args.new} "
                         f"is not")
        pairs = [(p, args.new / p.name)
                 for p in sorted(args.baseline.glob("*.json"))
                 if (args.new / p.name).exists()]
        if not pairs:
            raise SystemExit(f"no artifact names common to {args.baseline} "
                             f"and {args.new}")
    else:
        pairs = [(args.baseline, args.new)]

    reports = [r for r in (explain_artifact(b, n, args.tolerance)
                           for b, n in pairs) if r is not None]
    metrics_report = (diff_metrics_docs(*args.metrics)
                      if args.metrics else [])

    if args.json:
        json.dump({"tolerance": args.tolerance, "artifacts": reports,
                   "metrics": metrics_report}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print_human(reports, metrics_report)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        sys.exit(0)
