#!/usr/bin/env python3
"""Build the nwbench program from source, then run one benchmark workload.

Usage (from the repository root):

    python3 nwbench/run.py --workload grid-detailed --seed 1 \
        --seconds 30 --trace 0

The program is configured and built under .bench_build/nwbench on first
use; later runs only re-check that the build is current. Build output
goes to stderr, so the last line of stdout is always the program's JSON
result. Any failure to build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "nwbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build():
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "nwbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "nwbench")


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"nwbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    # A fresh child rather than exec: the build's compilers must not count
    # towards nwbench's own peak-RSS figures. Machine specs such as
    # configs/packing.cfg resolve against the root.
    return subprocess.run([exe] + sys.argv[1:] +
                          ["--out-dir", OUT, "--commit", commit()],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
