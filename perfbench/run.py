#!/usr/bin/env python3
"""Build the benchmark binary from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload point-http --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py compare parent.jsonl change.jsonl

Every file the build and the run write stays inside the checkout, under
.bench_build/ (Go build cache, temporary index containers, span dumps).
A failed build exits non-zero without printing a result line.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def main():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    env["GOPROXY"] = "off"
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    env["PERFBENCH_DIR"] = BUILD
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
