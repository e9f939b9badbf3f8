#!/usr/bin/env python3
"""Build and run the servebench benchmark from the root of a checkout.

    python3 servebench/run.py --workload chain-qos-1e4 --seed 1 --seconds 40 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 40 --trace 0

Builds servebench (a Go module of its own that imports the repository's
packages through a replace directive) into .bench_build/, then runs it
with the given arguments. Everything the build and the run write stays
under .bench_build/ in the checkout: the Go build cache, temporary
build files, the binary and the daemon's data directories. The exit
code is the benchmark's; a failed build exits non-zero without a
result. `--workload all` runs every workload BENCHMARK.json lists, each
in a process of its own, and fails if any fails.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "servebench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "servebench", "bin", "servebench")

# The benchmark must end within 180 s; leave room to stop the run.
RUN_TIMEOUT_S = 170
# A first build compiles the standard library into an empty cache.
BUILD_TIMEOUT_S = 840


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    # The module has no dependencies: never consult a proxy, a checksum
    # database, a newer toolchain or the user's go env file.
    env.update(GOENV="off", GOPROXY="off", GOSUMDB="off", GOTOOLCHAIN="local", GOFLAGS="-mod=mod")
    return env


def source_digest():
    """Names the source revision: the git commit when there is one,
    else a digest of the Go sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        # Only a repository rooted at the checkout names its revision.
        if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."], cwd=BENCH_DIR,
                               env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1
    argv = sys.argv[1:]
    extra = ["--commit", source_digest(), "--workdir", os.path.join(BUILD, "servebench", "runs")]
    i = argv.index("--workload") + 1 if "--workload" in argv else 0
    if 0 < i < len(argv) and argv[i] == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        return max([run_one([*argv[:i], name, *argv[i + 1:], *extra]) for name in names])
    return run_one([*argv, *extra])


def run_one(args):
    try:
        return abs(subprocess.run([BINARY, *args], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode)
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
