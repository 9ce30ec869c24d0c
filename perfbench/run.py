#!/usr/bin/env python3
"""Build and run the cryo flow benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload char2corner --seed 1 --seconds 30 --trace 0

The Go program in perfbench/ is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache kept
there too, then run with the given arguments from the repository root. Its
last line of standard output is the result object. The exit code is the
build's when the build fails, else the benchmark's.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
