#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <lookup|ingest|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `perfbench` package (a cargo
workspace of its own, with path dependencies on the engine crates) in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), runs one
workload, and checks that the last line of its output is the result
object with exactly the metrics BENCHMARK.json lists for the mode:
`end_to_end` for --trace 0, `per_layer` for --trace 1. Any failure exits
non-zero without printing a result.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def trace_flag(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value
    return "0"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, want):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    if result["correct"] is not True:
        fail("the benchmark found wrong values")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} is not a finite number")


def main():
    argv = sys.argv[1:]
    manifest = os.path.join(HERE, "Cargo.toml")
    for crate in ("lsm", "io", "server", "workloads", "learned"):
        if not os.path.isfile(os.path.join(ROOT, "crates", crate, "Cargo.toml")):
            fail(f"engine crate crates/{crate} not found next to perfbench/")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary] + argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"the benchmark exited with code {run.returncode}")
    check_result(lines[-1], expected_metrics(trace_flag(argv)))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
