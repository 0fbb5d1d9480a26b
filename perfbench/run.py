#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload paper-comm --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe in dune's release profile into .bench_build
(dune's shared cache is disabled, so nothing is written outside the
checkout), then runs it. The last line of standard output is the
result as one JSON object; build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
# Sources whose content identifies the code under measurement.
SOURCE_ROOTS = ["dune-project", "dune", "lib", "bin", "perfbench"]


def source_digest():
    """SHA-256 over the paths and bytes of the measured sources."""
    h = hashlib.sha256()
    files = []
    for root in SOURCE_ROOTS:
        if os.path.isfile(root):
            files.append(root)
        for d, dirs, names in os.walk(root):
            dirs.sort()
            files.extend(os.path.join(d, n) for n in sorted(names))
    for f in files:
        h.update(f.encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    """The checkout's commit when it is a git work tree, else "none"."""
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-comm", "paper-kernel", "sweep-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a checkout of the "
                 "repository (no dune-project and lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune is not on PATH")

    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "--cache", "disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--commit", commit(), "--source-digest", source_digest()])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
