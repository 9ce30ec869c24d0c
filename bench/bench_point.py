#!/usr/bin/env python3
"""Record one benchmark point: every perfbench workload, untraced and traced.

Usage, from the repository root (or via `make bench-point N=<n>`):

    python3 bench/bench_point.py <n>

runs `python3 perfbench/run.py --workload <w> --seed 201 --seconds 25
--trace <t>` for each workload and t in {0, 1}, one run at a time, and
writes BENCH_<n>.json at the repository root:

    {"seed": 201, "seconds": 25,
     "workloads": {"<w>": {"trace0": <result>, "trace1": <result>,
                           "host": {"trace0": <host>, "trace1": <host>}}}}

<result> is the last line of the run's standard output (the result object)
and <host> the run's `host {...}` noise record, to which the script adds
the measured commit ("git_rev", from `git rev-parse HEAD`) and whether the
working tree differed from it ("git_dirty", from `git status --porcelain`).
A run that fails or prints no result stops the script with a non-zero exit
before anything is written.
"""
import json
import os
import subprocess
import sys

WORKLOADS = ("char2corner", "synth_fig3", "signoff")
SEED = 201
SECONDS = 25


def git_state(root):
    """Return (HEAD commit, whether the working tree has changes)."""
    def git(*args):
        return subprocess.run(("git",) + args, cwd=root, check=True,
                              stdout=subprocess.PIPE, text=True).stdout
    return git("rev-parse", "HEAD").strip(), git("status", "--porcelain") != ""


def run_one(root, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    print("bench-point: " + " ".join(cmd[1:]), file=sys.stderr, flush=True)
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench-point: %s --trace %d failed (exit %d)"
                 % (workload, trace, done.returncode))
    host = {}
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
    host["git_rev"], host["git_dirty"] = git_state(root)
    return json.loads(lines[-1]), host


def main():
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        sys.exit("usage: bench_point.py <n>")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    point = {"seed": SEED, "seconds": SECONDS, "workloads": {}}
    for w in WORKLOADS:
        entry = {"host": {}}
        for t in (0, 1):
            key = "trace%d" % t
            entry[key], entry["host"][key] = run_one(root, w, t)
        point["workloads"][w] = entry
    path = os.path.join(root, "BENCH_%s.json" % sys.argv[1])
    with open(path, "w") as f:
        json.dump(point, f, indent=1, sort_keys=True)
        f.write("\n")
    print("bench-point: wrote " + path, file=sys.stderr)


if __name__ == "__main__":
    main()
