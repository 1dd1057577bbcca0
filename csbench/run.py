#!/usr/bin/env python3
"""Builds and runs the ConfigSynth end-to-end benchmark.

    python3 csbench/run.py --workload scale|sweep|serve|churn \
        --seed <n> --seconds <s> --trace 0|1

Builds the ConfigSynth libraries, configsynth_server and the csbench
program from source (RelWithDebInfo, CMake, this directory's
CMakeLists.txt) into $CARGO_TARGET_DIR/csbench (default
.bench_build/csbench), then runs one workload. Its last stdout
line is the result JSON. Exits non-zero, without a result, when the build
or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "csbench",
                      "configsynth_server", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("csbench: build failed (%s)\n" % log_path)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scale", "sweep", "serve", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "csbench"))
    if not build(build_dir):
        return 1
    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "csbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "configsynth_server"),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("csbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    if done.returncode != 0:
        # Pass csbench's own lines on, but never a result line.
        sys.stdout.write("".join(
            line for line in done.stdout.splitlines(True)
            if not line.startswith("{")))
        return done.returncode
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
