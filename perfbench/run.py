#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run it.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-scaled --seed 1 --seconds 30 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that builds
against the repository one directory up. Everything the build and the run
write stays inside the checkout, under .bench_build/: the Go build cache,
the binary, the persist temp directories and the span files. The build
runs to completion first; the benchmark binary then replaces this process,
so no child process is left running.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "go.mod")):
        print("perfbench: the repository's go.mod is not beside perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2

    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(out, d), exist_ok=True)

    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = [binary] + sys.argv[1:] + ["--scratch", os.path.join(out, "work")]
    os.execv(binary, args)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
