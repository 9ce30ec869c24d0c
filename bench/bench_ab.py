#!/usr/bin/env python3
"""Paired A/B timing of two perfbench builds on the same host.

Usage, from the repository root (or via `make bench-ab BASE=<rev>`):

    python3 bench/bench_ab.py --base <rev> [--workload signoff] [--pairs 10]
                              [--seed 201]

builds perfbench twice — A from `git archive <rev>` exported into a
temporary directory, B from the working tree — and runs them as
interleaved pairs with `--trace 0` for the run length BENCHMARK.json
sets (`run_seconds`), alternating which side runs first
(A B, B A, A B, ...), so slow drift of the host lands on both sides
alike. For every end-to-end metric of BENCHMARK.json it prints the median
of A with the distance between A's quartiles, the median of B, the median
of the per-pair ratios B/A, a distribution-free sign-test interval for
that median ratio (order statistics of the ratios, with the confidence
they reach for the number of pairs) and in how many pairs B was better.
The verdict column reads `better` or `worse` only when the interval
reaches 95% confidence (six pairs or more) and excludes 1. The
`pairs@5%` column is the number of pairs the observed spread of the
ratios needs to resolve a 5% effect (pairs_needed). After the
timed pairs it runs each side once with `--trace 1` and prints the work
counts of WORK_COUNTS side by side, each marked `same` or `CHANGED` by
exact comparison: a change that should only be faster must leave them
all `same`. A run that fails or reports failed items stops the script with
a non-zero exit.

The doctests run with `python3 -m doctest bench/bench_ab.py`.

A child's ru_maxrss starts from its parent's resident-set high-water mark,
so `peak_rss_mb` can read no lower than this script's own peak (about
14.6 MB; `perfbench/run.py` about 13.8 MB). The script therefore never
holds the archive in memory and imports `statistics` only once every run
is done.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile


# Work counts of a traced run: what the flow did, not how fast. Each is a
# deterministic function of the seed and the code, so an A/B of a pure
# speed change must leave every one unchanged.
WORK_COUNTS = ("sat.solves", "sat.conflicts_per_solve", "synth.nodes_out_ratio",
               "cec.sat_calls", "cec.merges", "gsim.events_per_vector",
               "sta.analyses_per_item", "spice.newton.solves_per_cell",
               "spice.newton.iters_per_solve.300K",
               "spice.newton.iters_per_solve.10K",
               "spice.solver.repivots_per_cell")


def go_env(cache_root):
    return dict(os.environ,
                GOCACHE=os.path.join(cache_root, "gocache"),
                GOPATH=os.path.join(cache_root, "gopath"),
                GOFLAGS="", GOTOOLCHAIN="local", GOPROXY="off",
                GOWORK="off", CGO_ENABLED="0")


def build(src, exe, env):
    print("bench-ab: building %s" % exe, file=sys.stderr, flush=True)
    subprocess.run(["go", "build", "-o", exe, "."], check=True,
                   cwd=os.path.join(src, "perfbench"), env=env,
                   stdout=sys.stderr)


def run(exe, args):
    done = subprocess.run([exe] + args, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench-ab: %s failed (exit %d)" % (exe, done.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("bench-ab: %s reported %d failed items" % (exe, res["failed"]))
    return {k: v["value"] for k, v in res["metrics"].items()}


def sign_interval(ratios, alpha=0.05):
    """Return (lo, hi, confidence) for the median of ratios: the k-th
    smallest and largest ratio, with the largest k whose two-sided
    binomial(n, 1/2) tail stays within alpha (k = 1 when none does).

    Ten pairs reach k = 2 at 97.9%; five pairs never reach 95%:

    >>> sign_interval([0.91, 0.84, 0.88, 0.80, 0.86, 0.83, 0.87, 0.85, 0.90, 0.89])
    (0.83, 0.9, 0.978515625)
    >>> sign_interval([1.02, 0.97, 1.00, 0.99, 1.05])
    (0.97, 1.05, 0.9375)
    """
    r = sorted(ratios)
    n = len(r)
    tail = lambda k: 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n
    k = 1
    while k < (n + 1) // 2 and tail(k + 1) <= alpha:
        k += 1
    return r[k - 1], r[n - k], 1 - tail(k)


def pairs_needed(ratios, effect=0.05):
    """Return how many pairs resolve an effect of the given size at the
    observed spread of the per-pair ratios: the fewest pairs n at which
    the 95% interval for the median ratio, 1.96 standard errors either
    side, is no wider than +-effect, and never fewer than the six a sign
    test needs to reach 95%. The spread is sigma = IQR / 1.349 (the
    normal sigma with the ratios' IQR), and the median of n ratios has a
    standard error of sqrt(pi/2) * sigma / sqrt(n). None for fewer than
    two ratios or an undefined one (a zero A value).

    A tight spread still needs the sign test's six pairs; ratios with an
    IQR of 0.0875 need 11; an IQR of 0.3 needs 120:

    >>> pairs_needed([0.91, 0.84, 0.88, 0.80, 0.86, 0.83, 0.87, 0.85, 0.90, 0.89])
    6
    >>> pairs_needed([0.90, 1.00, 0.95, 1.05, 0.92, 1.02, 0.97, 0.99])
    11
    >>> pairs_needed([0.8, 1.2, 0.9, 1.1, 1.0, 0.85, 1.15])
    120
    >>> pairs_needed([1.0]) is None, pairs_needed([1.0, math.nan]) is None
    (True, True)
    """
    import statistics  # only when called: see the module docstring
    if len(ratios) < 2 or any(math.isnan(r) for r in ratios):
        return None
    q = statistics.quantiles(ratios, n=4)
    sigma = (q[2] - q[0]) / 1.349
    return max(6, math.ceil((1.96 * math.sqrt(math.pi / 2) * sigma / effect) ** 2))


def count_rows(a, b):
    """Compare the work counts of one traced run per side exactly. Returns
    (name, A value, B value, mark) per WORK_COUNTS entry; a count a run
    did not report reads None.

    >>> rows = count_rows({"sat.solves": 502.35714285714283, "cec.merges": 0},
    ...                   {"sat.solves": 502.35714285714283, "cec.merges": 1})
    >>> rows[0]
    ('sat.solves', 502.35714285714283, 502.35714285714283, 'same')
    >>> rows[4]
    ('cec.merges', 0, 1, 'CHANGED')
    >>> rows[1]
    ('sat.conflicts_per_solve', None, None, 'same')
    >>> count_rows({"spice.newton.iters_per_solve.10K": 3.5},
    ...            {"spice.newton.iters_per_solve.10K": 3.25})[-2:]
    [('spice.newton.iters_per_solve.10K', 3.5, 3.25, 'CHANGED'), ('spice.solver.repivots_per_cell', None, None, 'same')]
    """
    return [(name, a.get(name), b.get(name),
             "same" if a.get(name) == b.get(name) else "CHANGED")
            for name in WORK_COUNTS]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision for side A")
    ap.add_argument("--workload", default="signoff")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=201)
    opt = ap.parse_args()
    if opt.pairs < 1:
        sys.exit("bench-ab: --pairs must be at least 1")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows, seconds = bench["end_to_end"], bench["run_seconds"]
    env = go_env(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    tmp = tempfile.mkdtemp(prefix="bench-ab-")
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", opt.base], cwd=root, check=True,
                             stdout=subprocess.PIPE, text=True).stdout.strip()
        src = os.path.join(tmp, "base")
        os.mkdir(src)
        subprocess.run(["git", "archive", "-o", src + ".tar", rev], cwd=root, check=True)
        subprocess.run(["tar", "-xf", src + ".tar", "-C", src], check=True)
        exes = (os.path.join(tmp, "perfbench-a"), os.path.join(tmp, "perfbench-b"))
        build(src, exes[0], env)
        build(root, exes[1], env)
        args = ["--workload", opt.workload, "--seed", str(opt.seed),
                "--seconds", str(seconds), "--trace"]
        runs = ([], [])
        for p in range(opt.pairs):
            for side in ((0, 1), (1, 0))[p % 2]:
                runs[side].append(run(exes[side], args + ["0"]))
            print("bench-ab: pair %d/%d wall_s A %.3f B %.3f" % (
                p + 1, opt.pairs, runs[0][-1]["wall_s"], runs[1][-1]["wall_s"]),
                file=sys.stderr, flush=True)
        traced = [run(exe, args + ["1"]) for exe in exes]
    finally:
        shutil.rmtree(tmp)

    import statistics  # only now: see the module docstring

    print("bench-ab: %s, %d pairs, seed %d, %g s; A = %s, B = working tree"
          % (opt.workload, opt.pairs, opt.seed, seconds, rev))
    print("%-12s %10s %9s %10s %8s %19s %6s %8s %9s  %s"
          % ("metric", "A median", "A IQR", "B median", "B/A", "sign interval", "conf",
             "B wins", "pairs@5%", "verdict"))
    for row in rows:
        name = row["name"]
        a = [r[name] for r in runs[0]]
        b = [r[name] for r in runs[1]]
        ratios = [y / x if x else math.nan for x, y in zip(a, b)]
        lo, hi, conf = sign_interval(ratios)
        lower = row["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        verdict = "~"
        if conf >= 0.95 and (lo > 1 or hi < 1):
            verdict = "better" if (hi < 1) == lower else "worse"
        q = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], a[0], a[0])
        need = pairs_needed(ratios)
        print("%-12s %10.4g %9.3g %10.4g %8.4f [%8.4f, %8.4f] %5.1f%% %5d/%-2d %9s  %s"
              % (name, statistics.median(a), q[2] - q[0], statistics.median(b),
                 statistics.median(ratios), lo, hi, 100 * conf, wins, opt.pairs,
                 "-" if need is None else need, verdict))

    print("\n%-32s %20s %20s  %s" % ("work count (--trace 1)", "A", "B", "B vs A"))
    show = lambda x: "-" if x is None else "%.12g" % x
    for name, x, y, mark in count_rows(*traced):
        print("%-32s %20s %20s  %s" % (name, show(x), show(y), mark))


if __name__ == "__main__":
    main()
