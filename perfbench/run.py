#!/usr/bin/env python3
"""Build and run the ccr-sim benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <fig_sweep|cold_compile|server_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) in Release into the directory
named by $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary. The binary's stdout is passed through; its last line
is the JSON result. Full results and trace spans are written to
.bench_results/. Build output goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"fatal: benchmark build failed: {err}", file=sys.stderr)
        return 1

    # Simulator knobs read from the environment would change what is
    # measured; run with none of them set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCR_")}
    cmd = [os.path.join(build_dir, "ccr_perfbench"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"fatal: benchmark exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
