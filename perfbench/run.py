#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust package next to this file is built in release mode into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), then run with the
worker pool pinned to ``GPM_THREADS=1``. Its last line of standard output,
one JSON object, is checked for shape and printed as this script's last
line. Summaries and traced spans are written under ``.bench_out/``.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["fleet_churn", "chip_path"]
THREADS = "1"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(env):
    """Build the release binary; return its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return pathlib.Path(env["CARGO_TARGET_DIR"]) / "release" / "gpm-perfbench"


def valid(result):
    """Whether `result` is one JSON result object of the expected shape."""
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and all(set(m) == {"value", "unit"} for m in result["metrics"].values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build")).resolve())
    env["GPM_THREADS"] = THREADS
    exe = build(env)
    if exe is None:
        return 1
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", ".bench_out"]
    print(f"GPM_THREADS={THREADS} {' '.join(cmd)}", file=sys.stderr)
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as err:
        print(f"last line is not JSON: {err}", file=sys.stderr)
        return 1
    if not valid(result):
        print(f"result has the wrong shape: {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
