#!/usr/bin/env python3
"""Report where perfbench's calibration loop and hot loops sit in a binary.

    scripts/perfbench_layout.py [BINARY] [--against OTHER_BINARY]

perfbench divides every host time by a calibration reading: the time its
fixed interpreter loop `interpret` (perfbench/src/bench.cpp) takes right
now. That loop's speed depends on its code alignment, and its address moves
whenever code the linker places ahead of it changes size: cold
(.text.unlikely) and startup (.text.startup) sections of every object come
before all ordinary .text. A move to another offset within a 64-byte line
can change the calibration reading, and so every calibrated host metric,
with no simulator code on the measured path changed. This prints the
address of `interpret` and that address mod 64, for comparing two builds.

With --against, it prints the offset mod 64 of `interpret` and of the
simulator's hot loops (the AVX2 VPU lane pass, the ISS loop
`HostCpu::run_on<System>` and the LLC host port `Llc::host_access`) in
both binaries, e.g. a change's and its parent's, and flags each that
differs.

BINARY defaults to the perfbench that perfbench/run.py builds
($CARGO_TARGET_DIR, default .bench_build, then perfbench/perfbench).
Informational: exits nonzero only when a binary or symbol is missing.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Label -> substrings that pick one function's main body out of `nm -C`.
SYMBOLS = (
    ("interpret", ("perfbench::", "::interpret(")),
    ("lane_pass_avx2", ("arcane::vpu::detail::lane_pass_avx2(",)),
    ("HostCpu::run_on<System>",
     ("arcane::cpu::HostCpu::run_on<arcane::System>(",)),
    ("Llc::host_access", ("arcane::llc::Llc::host_access(",)),
)


def addresses(binary):
    """Label -> address of the function's main body (not its .cold part)
    for every label of SYMBOLS found in `binary`."""
    out = subprocess.run(["nm", "-C", binary], capture_output=True,
                         text=True, check=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) != 3 or parts[1] not in "tTwW" \
                or "[clone .cold]" in parts[2]:
            continue
        for label, needles in SYMBOLS:
            if label not in found and all(n in parts[2] for n in needles):
                found[label] = int(parts[0], 16)
    return found


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary", nargs="?", default=os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
        "perfbench", "perfbench"))
    ap.add_argument("--against", metavar="OTHER_BINARY",
                    help="compare the hot symbols' offsets mod 64 with this "
                         "binary's (e.g. the parent commit's perfbench)")
    args = ap.parse_args()

    binaries = [args.binary] + ([args.against] if args.against else [])
    for binary in binaries:
        if not os.path.exists(binary):
            print(f"no perfbench binary at {binary}")
            return 1
    found = [addresses(b) for b in binaries]

    if not args.against:
        addr = found[0].get("interpret")
        if addr is None:
            print(f"no perfbench interpret symbol in {args.binary}")
            return 1
        print(f"interpret at {addr:#x}, {addr % 64:#04x} mod 64 "
              f"({args.binary})")
        return 0

    missing = 0
    print(f"{'symbol':<26} {'binary':>18} {'against':>18}")
    for label, _ in SYMBOLS:
        cells = []
        for addrs in found:
            addr = addrs.get(label)
            cells.append(None if addr is None else addr % 64)
            missing += addr is None
        shown = [f"{c:#04x} mod 64" if c is not None else "missing"
                 for c in cells]
        flag = "  DIFFERS" if None not in cells and cells[0] != cells[1] \
            else ""
        print(f"{label:<26} {shown[0]:>18} {shown[1]:>18}{flag}")
    print(f"binary:  {args.binary}\nagainst: {args.against}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
