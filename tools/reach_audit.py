#!/usr/bin/env python3
"""Report which src/ lines and functions the workloads reach.

    python3 tools/reach_audit.py

Run from anywhere; paths are taken relative to the repository root.
The audit answers "which simulator code does any workload need?" with
an execution profile instead of a reading of the call graph:

1. Builds the tree (examples and bench mains) and perfbench/ with
   `--coverage -O0` under .reach_build/ (gitignored). The test
   binary is never built or run: code only a test reaches counts as
   unreached.
2. Runs, one at a time: the five examples; `serve_bench --smoke`;
   `infer_bench --smoke`; every other bench/ main except
   micro_kernels; and each perfbench workload for 1 s through
   perfbench/run.py, once at `--trace 0` and once at `--trace 1`.
3. Merges gcov's JSON over the instrumented objects of both builds.
   An object no run linked counts as instrumented and never executed.
4. Prints, for each src/ file, lines executed / instrumented, then
   every src/ function that no run called.

Needs only the Python standard library, cmake and gcov (GCC's). It
exits non-zero only when a build or a run fails; a low coverage
figure is a report, not an error. It is not a CI step: the Debug
coverage builds and the -O0 runs take several minutes.
"""

import argparse
import glob
import json
import os
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
BUILD_DIR = os.path.join(ROOT, ".reach_build")
TREE_DIR = os.path.join(BUILD_DIR, "tree")
PERF_DIR = os.path.join(BUILD_DIR, "perfbench")
PERF_SECONDS = "1"
JOBS = str(max(1, min(4, os.cpu_count() or 1)))
EXAMPLES = ["quickstart", "aes_demo", "cnn_inference", "llm_encoder",
            "serve_demo"]
SMOKE_BENCHES = ["serve_bench", "infer_bench"]
SKIPPED_BENCHES = {"micro_kernels"}
TEST_OBJECT_DIR = "darth_tests.dir"
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
                  "-DCMAKE_CXX_FLAGS=--coverage -O0"]


def fail(message):
    print("reach_audit.py: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, cwd=None, env=None):
    """Run a command with output to stderr; fail on non-zero exit."""
    print("reach_audit.py: $ " + " ".join(cmd), file=sys.stderr)
    if subprocess.run(cmd, cwd=cwd, env=env,
                      stdout=sys.stderr).returncode != 0:
        fail("command failed: " + " ".join(cmd))


def bench_mains():
    names = sorted(os.path.splitext(os.path.basename(p))[0]
                   for p in glob.glob(os.path.join(ROOT, "bench",
                                                   "*.cpp")))
    return [n for n in names if n not in SKIPPED_BENCHES]


def build():
    if not os.path.exists(os.path.join(TREE_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", ROOT, "-B", TREE_DIR] + COVERAGE_FLAGS)
    run(["cmake", "--build", TREE_DIR, "-j", JOBS, "--target"] +
        EXAMPLES + bench_mains())
    # perfbench/run.py configures a missing build directory as
    # Release; configuring it here first makes run.py run the
    # coverage configuration instead (its own build is then a no-op).
    if not os.path.exists(os.path.join(PERF_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
             PERF_DIR] + COVERAGE_FLAGS)
    run(["cmake", "--build", PERF_DIR, "-j", JOBS])


def remove_counts():
    """Drop earlier runs' counters so each audit starts from zero."""
    for path in glob.glob(os.path.join(BUILD_DIR, "**", "*.gcda"),
                          recursive=True):
        os.remove(path)


def run_workloads():
    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    for name in EXAMPLES:
        run([os.path.join(TREE_DIR, name)], cwd=work_dir)
    for name in bench_mains():
        args = ["--smoke"] if name in SMOKE_BENCHES else []
        run([os.path.join(TREE_DIR, name)] + args, cwd=work_dir)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    # run.py builds into $CARGO_TARGET_DIR/perfbench.
    env = dict(os.environ, CARGO_TARGET_DIR=BUILD_DIR)
    for name in workloads:
        for trace in ("0", "1"):
            run([sys.executable, os.path.join(ROOT, "perfbench",
                                              "run.py"),
                 "--workload", name, "--seconds", PERF_SECONDS,
                 "--trace", trace], cwd=ROOT, env=env)


def gcov_documents(gcno_paths):
    """gcov's JSON for each object; a missing .gcda reads as zero."""
    decoder = json.JSONDecoder()
    for path in gcno_paths:
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--demangled-names",
             "--object-directory", os.path.dirname(path), path],
            cwd=os.path.dirname(path), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            fail("gcov failed on " + path)
        text = proc.stdout
        pos = 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            doc, pos = decoder.raw_decode(text, pos)
            yield doc


def merge():
    """(line counts, function counts) per src/ file, summed."""
    gcno_paths = sorted(
        p for p in glob.glob(os.path.join(BUILD_DIR, "**", "*.gcno"),
                             recursive=True)
        if TEST_OBJECT_DIR not in p.split(os.sep))
    if not gcno_paths:
        fail("no instrumented objects under " + BUILD_DIR)
    lines = defaultdict(lambda: defaultdict(int))
    functions = defaultdict(lambda: defaultdict(int))
    for doc in gcov_documents(gcno_paths):
        cwd = doc.get("current_working_directory", "")
        for entry in doc.get("files", []):
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, ROOT)
            for line in entry.get("lines", []):
                lines[rel][line["line_number"]] += line["count"]
            for fn in entry.get("functions", []):
                key = (fn["start_line"],
                       fn.get("demangled_name", fn["name"]))
                functions[rel][key] += fn["execution_count"]
    return lines, functions


def report(lines, functions):
    total_hit = total = 0
    print("%-44s %9s %9s %7s" % ("src/ file", "executed", "lines",
                                 "cover"))
    for rel in sorted(lines):
        counts = lines[rel]
        hit = sum(1 for c in counts.values() if c > 0)
        total_hit += hit
        total += len(counts)
        print("%-44s %9d %9d %6.1f%%" % (rel, hit, len(counts),
                                         100.0 * hit / max(len(counts),
                                                           1)))
    print("%-44s %9d %9d %6.1f%%" % ("total", total_hit, total,
                                     100.0 * total_hit / max(total, 1)))
    print()
    uncalled = [(rel, start, name)
                for rel in sorted(functions)
                for (start, name), count in sorted(functions[rel].items())
                if count == 0]
    print("src/ functions no run called: %d" % len(uncalled))
    for rel, start, name in uncalled:
        print("  %s:%d  %s" % (rel, start, name))


def main():
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0]).parse_args()
    build()
    remove_counts()
    run_workloads()
    report(*merge())


if __name__ == "__main__":
    main()
