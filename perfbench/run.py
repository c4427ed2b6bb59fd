#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one benchmark workload.

    python3 perfbench/run.py --workload paper_s1 --seed 7 --seconds 48 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench; a relative path is taken from the repository
root. Every invocation re-runs the CMake configure step, so a build tree
configured from another checkout fails loudly instead of building that
checkout's sources, and the git sha stamped into the run provenance is
current. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. The arguments go to the driver unchanged (it parses
and checks them), and the script replaces itself with the driver, so the
exit status is the driver's: 0 when every check passed, 1 when a check
failed, 2 on a bad command line; a failed build exits 1 before the driver
starts.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out_dir):
    """Configures and brings the driver up to date; False on failure."""
    env = dict(os.environ)
    # The library's configure step asks git for the commit; keep git from
    # searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out_dir), "--target", "perfbench", "-j", "4"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main(argv):
    if not (ROOT / "src" / "core" / "CMakeLists.txt").is_file():
        print(f"perfbench: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    driver = str(out_dir / "perfbench")
    sys.stdout.flush()
    # Become the driver, so no child process outlives or escapes this one.
    os.execv(driver, [driver, *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
