#!/usr/bin/env python3
"""Check perfbench's simulated-result fingerprints against pinned values.

    scripts/check_perfbench_fingerprints.py [--binary PATH]

Builds the perfbench binary the way perfbench/run.py does (CMake, Release,
under $CARGO_TARGET_DIR, default .bench_build) unless --binary names one,
then runs every workload once on seed 1 for one second, untraced:

    perfbench --workload W --seed 1 --seconds 1 --trace 0

and compares the `fingerprint` of its JSON line with the value pinned
below. The fingerprint hashes every simulated result of the run (cycles,
latencies, outputs and the crt.*/sched.* counters), so a host-side
refactor or optimisation must leave all three unchanged. A change that is
meant to move simulated results updates the pins in the same commit.
Exits nonzero on any mismatch or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINNED = {
    "cpu-conv": "8a9c80e24de08f4f",
    "arcane-conv": "f6cf671173f3b125",
    "serve-pipeline": "cc05d4bde96f86fa",
}


def build():
    """Configure once, then bring perfbench up to date; returns its path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR",
                               os.path.join(ROOT, ".bench_build"))
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=subprocess.DEVNULL)
    return os.path.join(cmake_dir, "perfbench")


def fingerprint(binary, workload):
    """The run's fingerprint, or None (with a message) when it failed."""
    proc = subprocess.run([binary, "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload}: perfbench exited {proc.returncode}\n"
              f"{proc.stderr[-2000:]}")
        return None
    doc = json.loads(lines[-1])
    if not doc.get("correct", False) or doc.get("failed", 1) != 0:
        print(f"  {workload}: run reported incorrect results")
        return None
    return doc.get("fingerprint")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--binary", help="prebuilt perfbench binary")
    args = ap.parse_args()
    binary = args.binary or build()
    failures = 0
    for workload, want in PINNED.items():
        got = fingerprint(binary, workload)
        status = "ok" if got == want else "MISMATCH"
        print(f"{workload:15s} {got} (pinned {want}) {status}")
        failures += got != want
    if failures:
        print(f"{failures} fingerprint mismatch(es): simulated results moved")
        return 1
    print("all perfbench fingerprints match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
