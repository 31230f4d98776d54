#!/usr/bin/env python3
"""Compare two google-benchmark JSON result sets and gate on regressions.

The CI `bench-regression` job feeds this the previous main run's
`BENCH_*.json` files (restored via actions/cache) and the current run's,
and fails the job when any gated benchmark slowed down by more than the
tolerance (default 25%). Output is a GitHub-flavoured markdown table
suitable for `$GITHUB_STEP_SUMMARY`.

Gated benchmarks are the families in `DEFAULT_PATTERNS`: the cache-hit
path, the frontier fan-out, the disk-store restart path, the SoA
kernels with the concrete/abstract bestSplit, restrict and Gini
benches they feed, the disjunctive frontier's bitset restrict# and
merge, and the label-flip verify.
Comparison uses *cpu_time* — wall clock on shared runners
is hostage to the neighbours, and every gated path's win is
CPU-visible — normalized through each entry's `time_unit`.

Exit codes: 0 = no regression (including "no baseline yet" and "bench
missing from baseline"), 1 = at least one gated benchmark regressed
past tolerance, 2 = usage error.

`--inject-slowdown F` multiplies every current time by F. It exists so
the gate itself can be verified end to end from the workflow-dispatch
input without committing a deliberate slowdown: dispatch with factor 2.0
and the job must go red.
"""

import argparse
import glob
import json
import os
import re
import sys

# One regex per gated family; everything else in the JSON is reported
# as informational only. The BM_Kernel / bestSplit / Gini / restrict
# families are the SoA-layout vectorized kernels; their stable
# measurements come from BENCH_kernels.json (rerun at a longer min
# time), which load_benchmarks' first-write-wins merge prefers over
# the quick full-sweep numbers.
DEFAULT_PATTERNS = [
    r"^BM_CacheHitRate",
    r"^BM_VerifyFrontierJobs",
    r"^BM_DiskStoreHitRate",
    r"^BM_Kernel",
    r"^BM_ConcreteBestSplit",
    r"^BM_AbstractBestSplit",
    r"^BM_AbstractRestrict",
    r"^BM_AbstractGini",
    r"^BM_FlipVerify",
    r"^BM_FrontierRestrict",
    r"^BM_FrontierMergeBits",
]
# (BM_AbstractGini was informational while it timed a single ~10 ns
# call — code layout alone moved that past the tolerance. It now sweeps
# 256 probability vectors per iteration, putting it at microsecond
# scale, steady enough to gate.)

UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(directory):
    """name -> cpu_time in ns, merged across every BENCH_*.json found."""
    merged = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"> :warning: skipping unreadable `{path}`: {err}")
            continue
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            cpu = bench.get("cpu_time")
            unit = bench.get("time_unit", "ns")
            if name is None or cpu is None or unit not in UNIT_TO_NS:
                continue
            # First write wins when a bench lands in two files: the
            # dedicated per-family files (BENCH_cache_hit_rate.json,
            # BENCH_disk_store.json — rerun at a longer min_time for
            # stability) sort before the full BENCH_micro.json sweep,
            # so the stable measurement is the one the gate compares.
            merged.setdefault(name, cpu * UNIT_TO_NS[unit])
    return merged


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.3g} {unit}"
    return f"{ns:.3g} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir", help="previous run's BENCH_*.json")
    parser.add_argument("current_dir", help="this run's BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown fraction (default 0.25)")
    parser.add_argument("--pattern", action="append", default=None,
                        metavar="REGEX",
                        help="gated benchmark name regex (repeatable; "
                             "default: the gated families listed above)")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        metavar="FACTOR",
                        help="multiply current times by FACTOR (gate "
                             "self-test; dispatch with 2.0 and the job "
                             "must fail)")
    args = parser.parse_args()
    if args.tolerance < 0 or args.inject_slowdown <= 0:
        parser.error("tolerance must be >= 0 and inject-slowdown > 0")
    patterns = [re.compile(p) for p in (args.pattern or DEFAULT_PATTERNS)]

    print("## Bench regression gate")
    print()
    if args.inject_slowdown != 1.0:
        print(f"> :warning: self-test mode: current times multiplied by "
              f"{args.inject_slowdown:g}")
        print()

    baseline = load_benchmarks(args.baseline_dir)
    current = load_benchmarks(args.current_dir)
    if not current:
        print(f"> :x: no `BENCH_*.json` under `{args.current_dir}` — the "
              f"bench run itself is broken.")
        return 1
    if not baseline:
        print(f"> :seedling: no baseline under `{args.baseline_dir}` yet "
              f"(first run on this cache key); gate passes, this run "
              f"seeds the baseline.")
        return 0

    gated = lambda name: any(p.search(name) for p in patterns)
    rows = []
    regressions = []
    for name in sorted(current):
        cur = current[name] * args.inject_slowdown
        base = baseline.get(name)
        if base is None:
            status = "new (no baseline)" if gated(name) else "info: new"
            rows.append((name, "—", fmt_ns(cur), "—", status))
            continue
        ratio = cur / base if base > 0 else float("inf")
        if not gated(name):
            status = "info"
        elif ratio > 1.0 + args.tolerance:
            status = ":x: **REGRESSION**"
            regressions.append((name, ratio))
        elif ratio < 1.0 - args.tolerance:
            status = ":zap: improved"
        else:
            status = ":white_check_mark: ok"
        rows.append((name, fmt_ns(base), fmt_ns(cur), f"{ratio:.2f}x",
                     status))
    # A gated bench present in the baseline but absent now is itself a
    # gate failure: google-benchmark drops entries that errored
    # (SkipWithError), so "the bench vanished" usually means the very
    # path the gate guards stopped working. A legitimate rename goes
    # red once and clears when main's baseline refreshes.
    for name in sorted(set(baseline) - set(current)):
        if gated(name):
            rows.append((name, fmt_ns(baseline[name]), "—", "—",
                         ":x: **gated bench disappeared**"))
            regressions.append((name, float("inf")))

    print(f"Tolerance: {args.tolerance:.0%} slowdown on gated benches "
          f"(cpu_time).")
    print()
    print("| benchmark | baseline | current | ratio | status |")
    print("|---|---|---|---|---|")
    for name, base, cur, ratio, status in rows:
        print(f"| `{name}` | {base} | {cur} | {ratio} | {status} |")
    print()

    if regressions:
        worst = ", ".join(
            f"`{n}` ({'gone' if r == float('inf') else f'{r:.2f}x'})"
            for n, r in regressions)
        print(f"**{len(regressions)} gated benchmark(s) regressed past "
              f"{args.tolerance:.0%}: {worst}.** If the slowdown is "
              f"intended (e.g. a correctness fix), refresh the baseline "
              f"by merging — the gate compares against the last main "
              f"run.")
        return 1
    print("No gated benchmark regressed past tolerance.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
