#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. The script builds perfbench/ (its
CMakeLists.txt compiles the simulator library from src/ and the
benchmark program in perfbench/src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the workload for --seconds of
measured host time, and prints one JSON object as the last line of
stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 the per_layer metrics of a traced run
(the span trace is written under the build directory's work/). A
metric the workload does not exercise reads 1 (end to end) or 0 (per
layer); perfbench/README.md lists which workload measures what.

Exit status is 0 only when the build succeeded and every correctness
check passed. The default seed is 0; seed 7919 is held out for
confirming claims made on other seeds.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
DEFAULT_SEED = 0
# Placeholder values of metrics a workload does not exercise.
UNUSED_END_TO_END = 1.0
UNUSED_PER_LAYER = 0.0
# The program must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build(build_dir):
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def select(declared, produced, unused, kind):
    """Metrics in BENCHMARK.json order; units must match the spec."""
    unknown = sorted(set(produced) - {m["name"] for m in declared})
    if unknown:
        fail("%s metrics missing from BENCHMARK.json: %s"
             % (kind, ", ".join(unknown)))
    out = {}
    for m in declared:
        got = produced.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        value = got["value"] if got is not None else unused
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    program = build(build_dir)
    work_dir = os.path.join(build_dir, "work")

    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
    finally:
        for leftover in glob.glob(os.path.join(work_dir, "stream-*")):
            shutil.rmtree(leftover, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (args.workload,
                                                 proc.returncode))
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("unparsable result line: " + lines[-1])

    if args.trace:
        metrics = select(spec["per_layer"], raw["per_layer"],
                         UNUSED_PER_LAYER, "per-layer")
    else:
        metrics = select(spec["end_to_end"], raw["end_to_end"],
                         UNUSED_END_TO_END, "end-to-end")
    correct = proc.returncode == 0 and raw["failed"] == 0
    print("run.py: %s seed %d took %.1f s, sim fingerprint %s"
          % (args.workload, args.seed, time.monotonic() - started,
             raw["fingerprint"]), file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
