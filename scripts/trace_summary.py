#!/usr/bin/env python3
"""Summarize / validate a Chrome-trace JSON emitted by --trace-out.

The bench binaries (qos_slo, pipeline_throughput) write their sim-time
span traces in Chrome trace-event format (telemetry::TraceFile), loadable
in ui.perfetto.dev. This script gives the terminal view of the same file:

    scripts/trace_summary.py bench-out/qos_slo_trace.json

prints, per process (bench run) and span name: event count, total and mean
duration in simulated cycles — plus a job-phase breakdown (queue wait vs
op execution vs end-to-end job latency) derived from the scheduler's
"queue" / "op" / "job" spans on the tenant tracks. `--json` emits the
same summary as a machine-readable document instead.

Critical-path mode reads a *metrics* document (--metrics-out, not the
trace): benches embed per-job critical paths (telemetry::CriticalPath
over the op log) in each run entry, and

    scripts/trace_summary.py --critical-path bench-out/qos_metrics.json

reports, per run: path count, length distribution, and what the path
cycles decompose into (the stall buckets of the ops *on* the critical
path — the cycles that bound end-to-end latency, as opposed to the
aggregate stall counters which also count slack that hid behind other
work). The paths come from the doc; this mode never reverse-engineers
them from span events.

CI mode:

    <bench> --trace-out=t.json && scripts/trace_summary.py t.json \
        --check --require-span job --require-span compute

`--check` validates the file structurally — parseable JSON, a non-empty
"traceEvents" array, every complete ("X") event with ts >= 0 and dur >= 0,
every instant ("i") with a scope — and `--require-span NAME` (repeatable)
asserts at least one span/instant with that name exists. Any violation
exits 1, so a ctest can gate on "the trace a bench writes is loadable and
contains the expected lifecycle spans".

All input problems (missing file, truncated/invalid JSON, empty or
process-less traces) exit 1 with a one-line error, never a traceback —
these are CI log lines, not crashes.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_json(path, kind):
    """Load a JSON document, turning every I/O / parse problem into a
    one-line SystemExit (CI surfaces these verbatim)."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise SystemExit(f"{path}: cannot read {kind}: {e.strerror}")
    except ValueError as e:
        raise SystemExit(f"{path}: not valid JSON (truncated write?): {e}")


def load_trace(path):
    doc = load_json(path, "trace")
    if not isinstance(doc, dict):
        raise SystemExit(f"{path}: trace document is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise SystemExit(f"{path}: no 'traceEvents' array")
    return doc, events


def check(path, doc, events, required):
    errors = []
    if not events:
        errors.append("'traceEvents' is empty")
    names = set()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            errors.append(f"event #{i} is not an object")
            continue
        ph = e.get("ph")
        if ph not in ("X", "i", "M"):
            errors.append(f"event #{i}: unexpected phase {ph!r}")
            continue
        if ph == "M":
            continue
        if not isinstance(e.get("name"), str):
            errors.append(f"event #{i}: missing name")
            continue
        names.add(e["name"])
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"event #{i} ({e['name']}): bad ts {ts!r}")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event #{i} ({e['name']}): bad dur {dur!r}")
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            errors.append(f"event #{i} ({e['name']}): instant without scope")
    for want in required:
        if want not in names:
            errors.append(f"required span '{want}' not present "
                          f"(have: {', '.join(sorted(names)) or 'none'})")
    if errors:
        print(f"{path}: trace check FAILED", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        sys.exit(1)
    spans = sum(1 for e in events if e.get("ph") == "X")
    instants = sum(1 for e in events if e.get("ph") == "i")
    print(f"{path}: OK ({spans} spans, {instants} instants, "
          f"{len(names)} distinct names)")


def summarize(path, doc, events, as_json):
    if not events:
        raise SystemExit(f"{path}: trace has no events — nothing to "
                         f"summarize (bench run too short, or spans not "
                         f"enabled?)")
    # pid -> process name, (pid, tid) -> track name (from "M" metadata).
    procs = {}
    tracks = {}
    for e in events:
        if e.get("ph") != "M":
            continue
        name = e.get("args", {}).get("name", "?")
        if e.get("name") == "process_name":
            procs[e.get("pid")] = name
        elif e.get("name") == "thread_name":
            tracks[(e.get("pid"), e.get("tid"))] = name
    if not procs:
        raise SystemExit(f"{path}: trace has no process metadata — "
                         f"truncated write or not a --trace-out file")

    # (pid, span name) -> [count, total duration]; instants count as 0 dur.
    _FAULT_INSTANTS = ("fault.injected", "sched.retry", "sched.failover",
                       "sched.watchdog", "sched.quarantine", "sched.readmit")
    agg = defaultdict(lambda: [0, 0])
    phases = defaultdict(lambda: defaultdict(lambda: [0, 0]))
    for e in events:
        ph = e.get("ph")
        if ph not in ("X", "i"):
            continue
        pid = e.get("pid")
        dur = e.get("dur", 0) if ph == "X" else 0
        cell = agg[(pid, e["name"])]
        cell[0] += 1
        cell[1] += dur
        # Scheduler job-lifecycle spans live on the tenant tracks; the
        # fault/recovery instants ride the fault, VPU, and tenant tracks.
        if e["name"] in ("queue", "op", "job", "job.shed", "job.fail",
                         "fault.injected", "sched.retry", "sched.failover",
                         "sched.watchdog", "sched.quarantine",
                         "sched.readmit"):
            pcell = phases[pid][e["name"]]
            pcell[0] += 1
            pcell[1] += dur

    if as_json:
        out = []
        for pid in sorted(procs):
            spans = [{"name": name, "count": c, "total_cycles": d,
                      "mean_cycles": d / c if c else 0.0}
                     for (p, name), (c, d) in sorted(agg.items())
                     if p == pid]
            entry = {"pid": pid, "process": procs[pid], "spans": spans}
            ph = phases.get(pid)
            if ph and "job" in ph:
                entry["job_phases"] = {
                    "jobs_completed": ph["job"][0],
                    "jobs_shed": ph["job.shed"][0],
                    "jobs_failed": ph["job.fail"][0],
                    "queue_wait_cycles": ph["queue"][1],
                    "op_execute_cycles": ph["op"][1],
                    "end_to_end_cycles": ph["job"][1],
                }
            if ph and any(ph[k][0] for k in _FAULT_INSTANTS):
                entry["fault_events"] = {
                    k: ph[k][0] for k in _FAULT_INSTANTS if ph[k][0]
                }
            out.append(entry)
        json.dump({"trace": path, "processes": out}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return

    for pid in sorted(procs):
        print(f"process {pid}: {procs[pid]}")
        rows = sorted((name, c, d) for (p, name), (c, d) in agg.items()
                      if p == pid)
        width = max((len(name) for name, _, _ in rows), default=4)
        for name, count, total in rows:
            mean = total / count if count else 0.0
            print(f"  {name:<{width}}  x{count:<7} total {total:>12} cyc"
                  f"  mean {mean:>12.1f} cyc")
        ph = phases.get(pid)
        if ph and any(ph[k][0] for k in _FAULT_INSTANTS):
            parts = [f"{k} x{ph[k][0]}" for k in _FAULT_INSTANTS if ph[k][0]]
            print(f"  -- fault/recovery events: {', '.join(parts)}")
        if ph and "job" in ph:
            jobs, job_cyc = ph["job"]
            queue_cyc = ph["queue"][1]
            op_cyc = ph["op"][1]
            shed = ph["job.shed"][0]
            failed = ph["job.fail"][0]
            print(f"  -- job phase breakdown ({jobs} completed"
                  + (f", {shed} shed" if shed else "")
                  + (f", {failed} failed" if failed else "") + "):")
            if job_cyc > 0:
                print(f"     queue wait {queue_cyc:>12} cyc "
                      f"({100.0 * queue_cyc / job_cyc:5.1f}% of job time)")
                print(f"     op execute {op_cyc:>12} cyc "
                      f"({100.0 * op_cyc / job_cyc:5.1f}% of job time)")
                print(f"     end-to-end {job_cyc:>12} cyc")
        print()


def critical_path_summary(path, as_json):
    """Summarize the per-job critical paths embedded in a metrics doc."""
    doc = load_json(path, "metrics document")
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        raise SystemExit(f"{path}: not a --metrics-out document "
                         f"(no 'runs' array) — critical-path mode reads "
                         f"the metrics file, not the trace")

    runs_out = []
    for run in doc["runs"]:
        name = run.get("run", "?")
        paths = run.get("critical_paths")
        if not paths:
            continue
        lengths = [p["length"] for p in paths]
        longest = max(paths, key=lambda p: p["length"])
        # Sum the stall buckets of the ops on each path: the composition
        # of the cycles that actually bound job latency.
        comp = defaultdict(int)
        for p in paths:
            for bucket, cyc in p.get("totals", {}).items():
                comp[bucket] += cyc
        runs_out.append({
            "run": name,
            "jobs": len(paths),
            "mean_length_cycles": sum(lengths) / len(lengths),
            "max_length_cycles": longest["length"],
            "longest_job": longest["job"],
            "longest_tenant": longest["tenant"],
            "longest_steps": len(longest.get("steps", [])),
            "path_composition_cycles": dict(
                sorted(comp.items(), key=lambda kv: -kv[1])),
        })

    if not runs_out:
        raise SystemExit(f"{path}: no run carries 'critical_paths' — "
                         f"re-run the bench with --metrics-out so the op "
                         f"log is enabled")

    if as_json:
        json.dump({"metrics": path, "runs": runs_out}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return

    for r in runs_out:
        print(f"run '{r['run']}': {r['jobs']} job critical path(s)")
        print(f"  length mean {r['mean_length_cycles']:>12.1f} cyc   "
              f"max {r['max_length_cycles']:>10} cyc "
              f"(job {r['longest_job']}, tenant {r['longest_tenant']}, "
              f"{r['longest_steps']} step(s))")
        comp = r["path_composition_cycles"]
        total = sum(comp.values())
        if total:
            print("  critical-path cycle composition "
                  "(ops on the path only):")
            for bucket, cyc in comp.items():
                if cyc == 0:
                    continue
                print(f"    {bucket:<14} {cyc:>12} cyc "
                      f"({100.0 * cyc / total:5.1f}%)")
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace",
                        help="Chrome-trace JSON from --trace-out (or a "
                             "metrics JSON with --critical-path)")
    parser.add_argument("--check", action="store_true",
                        help="validate structure instead of summarizing")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="with --check: require at least one event "
                             "with this name (repeatable)")
    parser.add_argument("--critical-path", action="store_true",
                        help="summarize the per-job critical paths of a "
                             "--metrics-out document")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON (summary and "
                             "critical-path modes)")
    args = parser.parse_args()

    if args.critical_path:
        if args.check:
            parser.error("--check applies to traces, not metrics "
                         "documents; drop it with --critical-path")
        critical_path_summary(args.trace, args.json)
        return

    doc, events = load_trace(args.trace)
    if args.check:
        check(args.trace, doc, events, args.require_span)
    else:
        summarize(args.trace, doc, events, args.json)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:  # summary piped into head etc.
        sys.exit(0)
