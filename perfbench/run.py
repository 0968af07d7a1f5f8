#!/usr/bin/env python3
"""Builds the TOSS request-path benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload select_http --seed 1 --seconds 20 --trace 0

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset; the first run compiles
the engine (about a minute on 4 cores), later runs only relink what changed.
After each build the benchmark's statistics test runs. The workload's
figures are the last line of standard output, one JSON object. Scratch
files (the durable database of ingest_mixed, the traced run's spans) go to
<build>/work.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(build_root, "perfbench"))
    jobs = str(os.cpu_count() or 1)

    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    steps.append([os.path.join(build, "perfbench_stats_test")])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: step failed: " + " ".join(step), file=sys.stderr)
            return 1

    run = [os.path.join(build, "perfbench"), *sys.argv[1:],
           "--work-dir", os.path.join(build, "work")]
    return subprocess.run(run).returncode


if __name__ == "__main__":
    sys.exit(main())
