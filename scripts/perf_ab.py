#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench: a parent revision against this checkout.

    scripts/perf_ab.py --parent <rev> --workload W [--workload W2 ...]
        --seed N [--seed N2 ...] --pairs N --seconds S --out FILE
        [--work-dir DIR] [--items]

Exports <rev> with `git archive` into a temporary directory (or --work-dir,
where a later run reuses the parent's build) and builds its perfbench there
under its own CARGO_TARGET_DIR; this checkout's perfbench builds where
perfbench/run.py puts it ($CARGO_TARGET_DIR, default .bench_build). An
exported tree, not a git worktree, leaves nothing behind in the
repository's .git. Then, for every workload and seed, it runs
`perfbench/run.py --workload W --seed N --seconds S` on both sides `--pairs`
times, alternating: the parent first in even pairs, the change first in odd
ones.

FILE gets, per "<workload>/seed<N>": `pairs`, `first_side` and, per metric,
the `parent` and `change` lists (one value per pair, in pair order),
`parent_median`, `change_median`, `ratio` (change / parent median),
`parent_iqr` (distance between the parent runs' quartiles) and
`change_higher_pairs` (pairs where the change read higher). The metrics are
every end-to-end metric of the run's JSON line plus `raw_best_pass_s` and
`calibration_fastest_ms`, parsed from its summary line. A run that reports
`correct: false` or fails aborts the comparison. FILE also gets the text of
`scripts/perfbench_layout.py <change binary> --against <parent binary>`.

With --items, after the pairs of a workload and seed it makes one
`--trace 1` run per side (parent first) and reads the host-time spans it
writes to <build>/traces/<workload>-<seed>.json: FILE's `items` then gets,
per "<workload>/seed<N>" and item index (perfbench's item order), each
side's fastest `arcane.run` and `cpu.iss` span in microseconds and the
change / parent ratio of each. A span an item never records (`cpu.iss` of
an ARCANE item) is left out.

`--self-test` checks the parser and the output shape on canned run output;
it builds nothing and runs no perfbench.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
ITEM_SPANS = ("arcane.run", "cpu.iss")
SUMMARY = re.compile(r"best pass: ([0-9.eE+-]+) s in timed calls, raw; "
                     r"calibration fastest ([0-9.eE+-]+) ms")


def parse_run(stdout):
    """Metric name -> value of one perfbench/run.py output, or raise
    ValueError. Includes raw_best_pass_s and calibration_fastest_ms."""
    lines = stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        raise ValueError("no JSON result line")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError("run reported correct: false")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        match = SUMMARY.search(line)
        if match:
            values["raw_best_pass_s"] = float(match.group(1))
            values["calibration_fastest_ms"] = float(match.group(2))
            return values
    raise ValueError("no 'best pass' summary line")


def item_spans(trace):
    """Item index (str) -> {span name: fastest duration in us} over the
    ITEM_SPANS of one perfbench Chrome trace; spans outside items (item
    -1) are skipped."""
    items = {}
    for ev in trace["traceEvents"]:
        item = ev["args"]["item"]
        if ev["name"] not in ITEM_SPANS or item < 0:
            continue
        spans = items.setdefault(str(item), {})
        spans[ev["name"]] = min(spans.get(ev["name"], ev["dur"]), ev["dur"])
    return items


def compare_items(parent, change):
    """Per item and span: both sides' fastest span (us) and change/parent."""
    out = {}
    for item in sorted(parent, key=int):
        out[item] = {}
        for name, p in sorted(parent[item].items()):
            c = change.get(item, {}).get(name)
            out[item][name] = {"parent_us": p, "change_us": c,
                               "ratio": c / p if c is not None and p else None}
    return out


def quartiles(xs):
    """(q1, q3) with the inclusive method; a single value is its own."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs):
    """runs: one {"first": side, "parent": values, "change": values} per
    pair. Returns the per-workload/seed record written to FILE."""
    metrics = {}
    for name in runs[0]["parent"]:
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        q1, q3 = quartiles(parent)
        pm, cm = statistics.median(parent), statistics.median(change)
        metrics[name] = {
            "parent": parent,
            "change": change,
            "parent_median": pm,
            "change_median": cm,
            "ratio": cm / pm if pm else None,
            "parent_iqr": q3 - q1,
            "change_higher_pairs": sum(c > p for p, c in zip(parent, change)),
        }
    return {"pairs": len(runs), "first_side": [r["first"] for r in runs],
            "metrics": metrics}


def run_side(checkout, target_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds)],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perf_ab: run.py failed in {checkout}")
    try:
        return parse_run(proc.stdout)
    except ValueError as e:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perf_ab: {checkout}: {e}")


def traced_items(checkout, target_dir, workload, seed, seconds):
    """One `--trace 1` run; returns item_spans of the trace it writes."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "1"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if (proc.returncode != 0 or not lines[-1].startswith("{")
            or not json.loads(lines[-1]).get("correct")):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perf_ab: traced run failed in {checkout}")
    path = os.path.join(target_dir, "traces", f"{workload}-{seed}.json")
    with open(path) as f:
        return item_spans(json.load(f))


def export_parent(rev, dest):
    """Extract `rev` into dest/src once; returns that path."""
    src = os.path.join(dest, "src")
    if not os.path.isdir(src):
        os.makedirs(src)
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", src], input=archive, check=True)
    return src


def self_test():
    canned = (
        "workload serve-pipeline  seed 1  9 untraced + 0 traced passes\n"
        "  best pass: 0.058000 s in timed calls, raw; calibration fastest "
        "2.900 ms, reference 2.700 ms\n"
        "  jobs_per_host_s    170000 1/s\n"
        '{"correct": true, "attempted": 9, "failed": 0, "metrics": '
        '{"jobs_per_host_s": {"value": %s, "unit": "1/s"}, '
        '"sim_cycles": {"value": 115203063, "unit": "cycles"}}}\n')
    values = parse_run(canned % "170000.5")
    assert values == {"jobs_per_host_s": 170000.5, "sim_cycles": 115203063,
                      "raw_best_pass_s": 0.058,
                      "calibration_fastest_ms": 2.9}, values
    good = canned % "1"
    for bad in (good.replace("true", "false"),
                good.replace("best pass", "worst pass"), "no json\n"):
        try:
            parse_run(bad)
        except ValueError:
            continue
        raise AssertionError(f"accepted bad output: {bad!r}")

    runs = []
    for i, (p, c) in enumerate(((100.0, 120.0), (110.0, 105.0),
                                (90.0, 130.0), (100.0, 125.0))):
        runs.append({"first": SIDES[i % 2],
                     "parent": parse_run(canned % p),
                     "change": parse_run(canned % c)})
    rec = summarize(runs)
    assert rec["pairs"] == 4
    assert rec["first_side"] == ["parent", "change", "parent", "change"]
    assert set(rec["metrics"]) == {"jobs_per_host_s", "sim_cycles",
                                   "raw_best_pass_s",
                                   "calibration_fastest_ms"}
    jobs = rec["metrics"]["jobs_per_host_s"]
    assert jobs["parent"] == [100.0, 110.0, 90.0, 100.0]
    assert jobs["change"] == [120.0, 105.0, 130.0, 125.0]
    assert jobs["change_higher_pairs"] == 3
    assert jobs["parent_median"] == 100.0 and jobs["change_median"] == 122.5
    assert abs(jobs["ratio"] - 1.225) < 1e-12
    assert jobs["parent_iqr"] == 102.5 - 97.5
    assert rec["metrics"]["sim_cycles"]["change_higher_pairs"] == 0
    json.dumps(rec)

    def span(name, item, dur):
        return {"name": name, "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
                "dur": dur, "args": {"id": 1, "parent": 0, "item": item}}
    trace = {"traceEvents": [
        span("arcane.run", 0, 70.0), span("cpu.iss", 0, 60.0),
        span("arcane.run", 0, 68.0), span("conv.item", 0, 90.0),
        span("arcane.run", 1, 300.0), span("cpu.iss", 1, 250.0),
        span("arcane.run", 1, 320.0), span("arcane.run", 2, 5.0),
        span("arcane.run", -1, 1.0)]}
    parent = item_spans(trace)
    assert parent == {"0": {"arcane.run": 68.0, "cpu.iss": 60.0},
                      "1": {"arcane.run": 300.0, "cpu.iss": 250.0},
                      "2": {"arcane.run": 5.0}}, parent
    change = {"0": {"arcane.run": 34.0, "cpu.iss": 60.0},
              "1": {"arcane.run": 240.0, "cpu.iss": 200.0},
              "2": {"arcane.run": 5.0}}
    items = compare_items(parent, change)
    assert items["0"]["arcane.run"] == {"parent_us": 68.0,
                                        "change_us": 34.0, "ratio": 0.5}
    assert items["1"]["cpu.iss"]["ratio"] == 0.8
    assert items["2"] == {"arcane.run": {"parent_us": 5.0, "change_us": 5.0,
                                         "ratio": 1.0}}
    json.dumps(items)
    print("perf_ab self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", help="git revision to compare against")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--work-dir", help="where the parent is exported and "
                    "built (kept; default: a temporary directory)")
    ap.add_argument("--items", action="store_true",
                    help="after the pairs, one traced run per side: each "
                    "item's fastest arcane.run and cpu.iss span")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.workload and args.seed and args.out):
        ap.error("--parent, --workload, --seed and --out are required")

    work = args.work_dir or tempfile.mkdtemp(prefix="perf_ab-")
    work = os.path.abspath(work)
    parent_src = export_parent(args.parent, work)
    checkouts = {
        "parent": (parent_src, os.path.join(work, "bench_build")),
        "change": (ROOT, os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))),
    }

    doc = {"parent": args.parent, "seconds": args.seconds, "end_to_end": {}}
    for workload in args.workload:
        for seed in args.seed:
            runs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    src, target = checkouts[side]
                    pair[side] = run_side(src, target, workload, seed,
                                          args.seconds)
                runs.append(pair)
                print(f"{workload}/seed{seed} pair {i}: jobs_per_host_s "
                      f"parent {pair['parent']['jobs_per_host_s']:.6g} "
                      f"change {pair['change']['jobs_per_host_s']:.6g}, "
                      f"raw best pass parent "
                      f"{pair['parent']['raw_best_pass_s']:.6f} s change "
                      f"{pair['change']['raw_best_pass_s']:.6f} s",
                      flush=True)
            key = f"{workload}/seed{seed}"
            doc["end_to_end"][key] = summarize(runs)
            if args.items:
                spans = {side: traced_items(*checkouts[side], workload,
                                            seed, args.seconds)
                         for side in SIDES}
                doc.setdefault("items", {})[key] = compare_items(
                    spans["parent"], spans["change"])
                for item, by_name in doc["items"][key].items():
                    print(f"{key} item {item}: " + ", ".join(
                        f"{name} {v['parent_us']} -> {v['change_us']} us"
                        for name, v in by_name.items()), flush=True)

    binary = {side: os.path.join(target, "perfbench", "perfbench")
              for side, (_, target) in checkouts.items()}
    doc["layout"] = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "perfbench_layout.py"),
         binary["change"], "--against", binary["parent"]],
        stdout=subprocess.PIPE, text=True).stdout.splitlines()
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("\n".join(doc["layout"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
