#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve_hot|serve_cold|sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under perfbench/; the last line of standard output is the
binary's JSON result. Exits non-zero, printing no result, when the sources
are missing or the build or run fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "antidote", "Verifier.h")):
        sys.exit("error: no antidote sources next to perfbench/")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        if cmd is configure and os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            continue
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("error: %s failed" % " ".join(cmd[:2]))
    return os.path.join(out, "antidote_perfbench")


def main(argv):
    out = build_dir()
    binary = build(out)
    args = [binary] + argv
    if "--selftest" not in argv:
        workload = argv[argv.index("--workload") + 1] if "--workload" in argv else "x"
        seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "0"
        args += ["--work-dir", os.path.join(out, "work-%d" % os.getpid()),
                 "--trace-out", os.path.join(out, "trace-%s-%s.tsv" % (workload, seed))]
    # The binary prints the result line itself; run it in the foreground
    # and wait for it, so no process outlives this one.
    return subprocess.call(args, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
