#!/usr/bin/env python3
"""Build the btmf benchmark from source and run one workload.

    python3 perfbench/run.py --workload reproduce|swarm|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the benchmark in Release into .bench_build/perfbench (the build
is not part of any metric); later runs only check that the build is up to
date. The workload then runs in its own process, which prints a metadata
line and, as its last line, the result object. A failed build, a failed
correctness check or a missing source tree exits non-zero without a result
line.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_run")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_once():
    """Configure (when needed) and build perfbench_run; True on success."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_run"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, env=env, check=False)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return os.path.isfile(BINARY)


def build():
    """Builds, starting over once from an empty build directory (a tree
    configured for another checkout path refuses to build here)."""
    if build_once():
        return True
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return build_once()


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=False)
        if result.returncode == 0 and result.stdout.strip():
            return result.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["reproduce", "swarm", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no btmf sources under {ROOT}; nothing to benchmark")
        return 2
    if not build():
        return 3

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", source_id()]
    # Set-up time runs from here: the child's clock (steady_clock) and
    # time.monotonic() are both CLOCK_MONOTONIC.
    command += ["--t0", repr(time.monotonic())]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            log(f"workload did not finish within {RUN_TIMEOUT_S} s")
            return 4
    if child.returncode != 0:
        # perfbench_run printed why on stderr; a failed run prints no result.
        log(f"workload exited with code {child.returncode}")
        return 1
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
