#!/usr/bin/env python3
"""Builds the benchmark binary from the checkout's sources and runs one
workload. Run from the root of the repository:

    python3 perfbench/run.py --workload advise --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-reference

The binary prints its metrics, one per line, and as its last line the JSON
result. With --trace 1 the Chrome trace of the run is written to
.bench_build/trace-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "nose_perfbench")
REFERENCE = os.path.join(HERE, "reference", "combinatorial.txt")
WORKLOADS = ("advise", "serve-browse", "serve-drift")


def build():
    """Configures once, then lets the build tool bring the binary up to date
    (a no-op when nothing changed). Build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("error: no program sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "nose_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-solve the random advise instances with the "
                             "certified BIP and rewrite the reference file")
    args = parser.parse_args()
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("error: build failed: %s" % e)
    if args.write_reference:
        cmd = [BINARY, "--write-reference", REFERENCE]
    else:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--reference", REFERENCE]
        if args.trace == "1":
            cmd += ["--trace-file", os.path.join(
                ROOT, ".bench_build",
                "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
