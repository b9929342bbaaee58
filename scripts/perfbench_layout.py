#!/usr/bin/env python3
"""Report where perfbench's calibration loop sits in a built binary.

    scripts/perfbench_layout.py [BINARY]

perfbench divides every host time by a calibration reading: the time its
fixed interpreter loop `interpret` (perfbench/src/bench.cpp) takes right
now. That loop's speed depends on its code alignment, and its address moves
whenever code the linker places ahead of it changes size: cold
(.text.unlikely) and startup (.text.startup) sections of every object come
before all ordinary .text. A move to another offset within a 64-byte line
can change the calibration reading, and so every calibrated host metric,
with no simulator code on the measured path changed. This prints the
address of `interpret` and that address mod 64, for comparing two builds.

BINARY defaults to the perfbench that perfbench/run.py builds
($CARGO_TARGET_DIR, default .bench_build, then perfbench/perfbench).
Informational: exits nonzero only when the binary or symbol is missing.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def interpret_address(binary):
    """Address of interpret's main body (not its .cold part), or None."""
    out = subprocess.run(["nm", "-C", binary], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) != 3 or parts[1] not in "tT":
            continue
        name = parts[2]
        if "perfbench::" in name and "::interpret(" in name \
                and "[clone .cold]" not in name:
            return int(parts[0], 16)
    return None


def main():
    if len(sys.argv) > 2:
        print(__doc__.strip())
        return 2
    binary = sys.argv[1] if len(sys.argv) == 2 else os.path.join(
        os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
        "perfbench", "perfbench")
    if not os.path.exists(binary):
        print(f"no perfbench binary at {binary}")
        return 1
    addr = interpret_address(binary)
    if addr is None:
        print(f"no perfbench interpret symbol in {binary}")
        return 1
    print(f"interpret at {addr:#x}, {addr % 64:#04x} mod 64 ({binary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
