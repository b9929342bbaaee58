#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload cpu-conv --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The binary and the simulator libraries are
built (CMake, Release) under $CARGO_TARGET_DIR, default .bench_build. The
binary's human-readable summary is passed through; the last stdout line is
one JSON object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1. A traced run also writes its host-time spans to
<build dir>/traces/<workload>-<seed>.json (Chrome trace format).

The simulated fingerprint of every (binary, workload, seed) is recorded in
<build dir>/fingerprints.json; a later run of the same binary on the same
inputs that reports another fingerprint is marked incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cpu-conv", "arcane-conv", "serve-pipeline")
RUN_LIMIT_S = 175  # whole invocation, once the binary is built


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then bring the binary up to date. Returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(cmake_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench")


def check_fingerprint(build_dir, binary, workload, seed, fingerprint):
    with open(binary, "rb") as f:
        key = f"{hashlib.sha256(f.read()).hexdigest()[:16]}/{workload}/{seed}"
    path = os.path.join(build_dir, "fingerprints.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    if key in known:
        return known[key] == fingerprint
    known[key] = fingerprint
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    started = time.monotonic()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    same = check_fingerprint(build_dir, binary, args.workload, args.seed,
                             result["fingerprint"])
    print("\n".join(lines[:-1]))
    if not same:
        print("  FINGERPRINT differs from an earlier run of this binary")
    print(f"  (perfbench ran {time.monotonic() - started:.1f} s)")
    print(json.dumps({
        "correct": bool(result["correct"] and same),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


if __name__ == "__main__":
    main()
