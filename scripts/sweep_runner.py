#!/usr/bin/env python3
"""Sharded parallel sweep runner over the bench grid API.

Every schema-v2 bench binary declares its sweep as an enumerable grid of
cells (bench/grid.hpp): `--list-cells` prints the stable cell ids and
`--cell=<id>` runs exactly one cell. This runner enumerates each bench's
grid, fans the cells out across N worker processes, and merges the
per-cell `--json` fragments back into one artifact per bench with the
exact envelope scripts/run_benches.sh writes — consumed unchanged by
scripts/check_bench_regression.py.

The merge is textual, not a JSON round-trip: a bench emits the rows of
cell k as a contiguous block in grid enumeration order (the contract in
bench/grid.hpp), so splicing the per-cell row lines in `--list-cells`
order reproduces the serial `--json` document byte for byte, including
the C `%.10g` float rendering. `--verify` additionally runs each bench
serially and asserts that byte-identity (forcing `--deterministic` so the
machine-dependent wall-clock trend fields are zeroed). The serial runs go
on the same worker pool, ahead of the cells and fig4_speedup's first, and
the report gives their summed time next to the wall-clock of the whole
sweep.

Usage:
    scripts/sweep_runner.py --build-dir build --out-dir bench-out \\
        [--jobs N] [--benches a,b] [--deterministic] [--verify]

ARCANE_BENCH_* env knobs (backend, lanes, replacement, sched-policy,
...) are inherited by the bench subprocesses and restrict each grid
exactly as they would a serial run — `--list-cells` already honours
them, so the sharded and serial row sets stay aligned.

`--knob-table` prints the registry-generated markdown knob table embedded
in docs/BENCHMARKS.md instead of running anything.
"""

import argparse
import concurrent.futures
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# bench binary -> what it reproduces. Kept in sync with
# scripts/run_benches.sh and docs/BENCHMARKS.md; micro_components (Google
# Benchmark, no --json / grid) is deliberately absent — run_benches.sh
# keeps running it serially.
BENCHES = [
    ("fig2_area_split", "Figure 2 (area split)"),
    ("fig3_phase_overhead", "Figure 3 (non-compute phase overhead)"),
    ("fig4_speedup", "Figure 4 (conv-layer speedup)"),
    ("table1_kernel_catalogue", "Table I (xmnmc kernel catalogue)"),
    ("table2_synthesis_area", "Table II (synthesis area)"),
    ("sec5c_state_of_the_art", "Section V-C (state-of-the-art comparison)"),
    ("pipeline_throughput",
     "Scheduler (multi-tenant requests/sec + job latency)"),
    ("qos_slo", "QoS (admission control: goodput, drop rate, SLO attainment)"),
    ("fault_recovery",
     "Fault injection (availability, goodput retention, recovery time)"),
    ("sim_throughput",
     "Host simulator (simulated cycles & kernel ops per host second)"),
    ("ablation_crt", "Ablation (C-RT / datapath design choices)"),
    ("ablation_replacement", "Ablation (LLC replacement policy)"),
]

# Envelope fields mirroring run_benches.sh (sourced from the same env).
ENV_KNOBS = (
    ("backend", "ARCANE_BENCH_BACKEND"),
    ("lanes", "ARCANE_BENCH_LANES"),
    ("replacement", "ARCANE_BENCH_REPLACEMENT"),
    ("sched_policy", "ARCANE_BENCH_SCHED_POLICY"),
)


def run(cmd):
    """Run a bench subprocess; returns (exit_code, stdout_text, seconds)."""
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          errors="replace")
    return proc.returncode, proc.stdout, time.time() - start


def list_cells(binary, verify):
    """Enumerate the bench's grid; in verify mode assert it is stable."""
    code, out, _ = run([str(binary), "--list-cells"])
    if code != 0:
        raise RuntimeError(f"{binary.name} --list-cells exited {code}:\n{out}")
    cells = [c["id"] for c in json.loads(out)["cells"]]
    if verify:
        code2, out2, _ = run([str(binary), "--list-cells"])
        if code2 != 0 or out2 != out:
            raise RuntimeError(f"{binary.name} --list-cells is not stable "
                               f"across invocations")
    return cells


def split_fragment(text, binary, cell):
    """Split one per-cell --json document into (header, row lines)."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].endswith('"rows": [') \
            or lines[-1] != "]}":
        raise RuntimeError(
            f"{binary.name} --cell={cell}: unexpected --json framing")
    return lines[0], [line.rstrip(",") for line in lines[1:-1]]


def merge_fragments(fragments):
    """Rebuild the serial --json document from per-cell (header, rows)."""
    header = fragments[0][0]
    rows = [row for _, cell_rows in fragments for row in cell_rows]
    body = ",\n".join(rows)
    return header + "\n" + (body + "\n" if rows else "") + "]}\n"


def env_flag(var):
    """An on/off env knob read as the bench registry reads it
    (bench/grid.hpp): unset, empty, "0" and "false" are off."""
    return os.environ.get(var, "") not in ("", "0", "false")


def bench_args(args):
    return ["--deterministic"] if args.deterministic else []


def envelope_base(name, reproduces, args):
    env = {
        "schema_version": 2,
        "bench": name,
        "reproduces": reproduces,
    }
    for field, var in ENV_KNOBS:
        env[field] = os.environ.get(var) or None
    env["deterministic"] = (args.deterministic
                            or env_flag("ARCANE_BENCH_DETERMINISTIC"))
    return env


def run_bench_sharded(name, reproduces, binary, pool, args):
    """Fan the bench's cells out over the pool; returns (envelope, merged).

    merged is the reconstructed serial --json text (None when any cell
    failed — the envelope then carries the failing cell's stdout).
    """
    cells = list_cells(binary, args.verify)
    extra = bench_args(args)
    futures = [
        pool.submit(run, [str(binary), "--json", *extra, f"--cell={cell}"])
        for cell in cells
    ]
    envelope = envelope_base(name, reproduces, args)
    envelope["sharding"] = {"cells": len(cells), "workers": args.jobs}
    fragments = []
    wall = 0.0
    for cell, future in zip(cells, futures):
        code, out, seconds = future.result()
        wall += seconds
        if code != 0:
            envelope["exit_code"] = code
            envelope["wall_seconds"] = round(wall, 3)
            envelope["stdout"] = out.splitlines()
            envelope["failed_cell"] = cell
            print(f"FAIL: {name} --cell={cell} (exit {code})",
                  file=sys.stderr)
            return envelope, None
        fragments.append(split_fragment(out, binary, cell))
    envelope["exit_code"] = 0
    envelope["wall_seconds"] = round(wall, 3)
    merged = merge_fragments(fragments)
    envelope["rows"] = json.loads(merged)["rows"]
    return envelope, merged


def verify_bench(name, merged, serial_run):
    """Byte-compare the merged document against a serial --json run's
    (exit code, stdout, seconds)."""
    code, serial, seconds = serial_run
    if code != 0:
        print(f"FAIL: {name} serial --json exited {code}", file=sys.stderr)
        return None
    if serial == merged:
        print(f"verify: {name}: merged sharded artifact is byte-identical "
              f"to the serial document")
        return seconds
    print(f"FAIL: {name}: merged != serial", file=sys.stderr)
    # Diagnose: row multiset vs ordering vs formatting.
    s_rows = json.loads(serial)["rows"]
    m_rows = json.loads(merged)["rows"]
    s_set = {json.dumps(r, sort_keys=True) for r in s_rows}
    m_set = {json.dumps(r, sort_keys=True) for r in m_rows}
    for extra in sorted(m_set - s_set)[:5]:
        print(f"  only in merged: {extra}", file=sys.stderr)
    for missing in sorted(s_set - m_set)[:5]:
        print(f"  only in serial: {missing}", file=sys.stderr)
    if s_set == m_set:
        print(f"  same row set — ordering or formatting differs "
              f"({len(s_rows)} serial vs {len(m_rows)} merged rows)",
              file=sys.stderr)
    return None


def knob_table(selected, build_dir):
    """Print the markdown knob table generated from --list-knobs."""
    listings = []
    for name, _ in selected:
        binary = build_dir / "bench" / name
        code, out, _ = run([str(binary), "--list-knobs"])
        if code != 0:
            raise SystemExit(f"{name} --list-knobs exited {code}")
        listings.append((name, json.loads(out)["knobs"]))
    # A knob is "shared" when every selected bench reports the identical
    # spec; those print once as *(all)*, bench-local knobs print per bench.
    spec = lambda k: json.dumps(k, sort_keys=True)  # noqa: E731
    shared = set.intersection(
        *({spec(k) for k in knobs} for _, knobs in listings))

    def row(bench_col, knob):
        values = "—" if knob["values"] is None else \
            " / ".join(f"`{v}`" for v in knob["values"])
        env = f"`{knob['env']}`" if knob["env"] else "—"
        print(f"| {bench_col} | {knob['name']} | `{knob['flag']}` | "
              f"{env} | {values} |")

    print("| Bench | Knob | Flag | Env | Values |")
    print("| --- | --- | --- | --- | --- |")
    for knob in listings[0][1]:
        if spec(knob) in shared:
            row("*(all)*", knob)
    for name, knobs in listings:
        for knob in knobs:
            if spec(knob) not in shared:
                row(name, knob)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", default=Path("build"), type=Path,
                        help="cmake build tree containing bench/ binaries")
    parser.add_argument("--out-dir", default=Path("bench-out"), type=Path,
                        help="where to write the merged <bench>.json "
                             "artifacts")
    parser.add_argument("--jobs", default=os.cpu_count() or 1, type=int,
                        help="worker processes (default: nproc)")
    parser.add_argument("--benches", default=None,
                        help="comma-separated bench subset (default: all)")
    parser.add_argument("--deterministic", action="store_true",
                        help="pass --deterministic to every bench (implied "
                             "by --verify)")
    parser.add_argument("--verify", action="store_true",
                        help="also run each bench serially and assert the "
                             "merged artifact is byte-identical")
    parser.add_argument("--knob-table", action="store_true",
                        help="print the registry-generated markdown knob "
                             "table (docs/BENCHMARKS.md) and exit")
    args = parser.parse_args()

    if args.verify:
        # Byte-identity needs the wall-clock trend fields zeroed.
        args.deterministic = True

    selected = BENCHES
    if args.benches:
        wanted = args.benches.split(",")
        known = {name for name, _ in BENCHES}
        unknown = [w for w in wanted if w not in known]
        if unknown:
            raise SystemExit(f"unknown bench(es): {', '.join(unknown)} "
                             f"(known: {', '.join(sorted(known))})")
        selected = [(n, r) for n, r in BENCHES if n in wanted]

    bench_dir = args.build_dir / "bench"
    if not bench_dir.is_dir():
        raise SystemExit(
            f"error: {bench_dir} not found — build the project first:\n"
            f"  cmake -B {args.build_dir} -S . && "
            f"cmake --build {args.build_dir} -j")
    for name, _ in selected:
        if not os.access(bench_dir / name, os.X_OK):
            raise SystemExit(f"error: {bench_dir / name} not built")

    if args.knob_table:
        knob_table(selected, args.build_dir)
        return

    args.out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    total_cells = 0
    start = time.time()
    merged_docs = {}
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        # The serial byte-identity runs share the pool with the cells, queued
        # ahead of them and the longest (fig4's) first, so that it overlaps
        # the rest of the sweep instead of following it.
        serial_runs = {}
        if args.verify:
            for name, _ in sorted(selected,
                                  key=lambda b: b[0] != "fig4_speedup"):
                serial_runs[name] = pool.submit(
                    run, [str(bench_dir / name), "--json", *bench_args(args)])
        for name, reproduces in selected:
            binary = bench_dir / name
            envelope, merged = run_bench_sharded(name, reproduces, binary,
                                                 pool, args)
            cells = envelope["sharding"]["cells"]
            total_cells += cells
            if merged is None:
                failures += 1
            else:
                merged_docs[name] = merged
                print(f"run: {name} ({cells} cells, "
                      f"{len(envelope['rows'])} rows)")
            with open(args.out_dir / f"{name}.json", "w") as f:
                json.dump(envelope, f, indent=2)
                f.write("\n")

        if args.verify and failures == 0:
            serial_wall = 0.0
            for name, _ in selected:
                seconds = verify_bench(name, merged_docs[name],
                                       serial_runs[name].result())
                if seconds is None:
                    failures += 1
                else:
                    serial_wall += seconds
            if failures == 0:
                # The serial figure sums the per-bench runs: they overlapped
                # the sharded sweep, so no wall clock spans them alone.
                print(f"verify: serial sweep {serial_wall:.1f}s (sum of "
                      f"per-bench runs) vs sharded sweep and verify "
                      f"{time.time() - start:.1f}s ({args.jobs} "
                      f"workers)")

    print(f"\nwrote {len(selected)} artifacts to {args.out_dir}/ "
          f"({total_cells} cells, {args.jobs} workers, {failures} failures)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
