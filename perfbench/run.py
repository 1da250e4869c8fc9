#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark, then checks its result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it with the given arguments, and checks that
the last line of its output is one JSON object whose metric names and units
are exactly the `end_to_end` (`--trace 0`) or `per_layer` (`--trace 1`)
entries of `BENCHMARK.json`. Prints that line last and exits 0 only if the
build, the run and the check all succeed.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv):
    if "--trace" not in argv:
        fail("--trace <0|1> is required")
    trace = argv[argv.index("--trace") + 1] == "1"
    if not os.path.isdir(os.path.join(ROOT, "crates", "core")):
        fail("run from the repository root: crates/core is missing")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [binary, *argv], env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the run failed with exit code {run.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    want = declared(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}, or units")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
