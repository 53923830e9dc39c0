#!/usr/bin/env python3
"""Builds and runs the Dash end-to-end benchmark.

    python3 perfbench/run.py --workload hot_topk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the engine from
src/) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.

The offered rate and latency limit of the zipf_sharded open loop come from
perfbench/calibration.json, next to this file.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot_topk", "zipf_sharded", "write_mix", "crawl")
RUN_TIMEOUT_S = 170  # one run must end within three minutes


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(targets):
    bdir = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)
    return bdir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    if args.selftest:
        bdir = build(["perfbench_selftest"])
        return subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    with open(os.path.join(HERE, "calibration.json")) as f:
        calibration = json.load(f)
    bdir = build(["dash_perfbench"])
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(bdir, "dash_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir]
    if args.workload == "zipf_sharded":
        zipf = calibration["zipf_sharded"]
        command += ["--rate", str(zipf["rate_per_s"]),
                    "--slo-us", str(zipf["latency_limit_us"])]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
