#!/usr/bin/env python3
"""Diff two bench JSON snapshots (BENCH_serve.json / BENCH_infer.json /
BENCH_paper.json).

The benches are deterministic, so a snapshot diff is a real behavior
change. This tool turns a raw JSON diff into the performance story:
per-experiment deltas of the metrics that matter (throughput,
latency percentiles, reject fractions, completion counts), plus any
self-check that changed verdict. It is what
tools/update_bench_snapshots.sh prints before replacing a snapshot,
and what CI runs to prove the checked-in snapshots match the tree.

Cells inside experiment arrays are matched by their identifying
fields (pool/policy/mix, granularity, depth, chips/load, class
name; a paper-ledger cell by figure/row/system), never by array
index, so reordering or inserting cells does not misattribute
deltas.

Exit status:
  0  no regression (deltas may exist; they are reported)
  1  regression: a self-check flipped ok->false, a cell/metric
     disappeared, or a direction-aware metric moved against goodness
     by more than --threshold percent
  2  usage error (missing/unparseable file)

Usage:
  tools/bench_diff.py OLD.json NEW.json [--threshold PCT]

Typical invocations:
  tools/bench_diff.py BENCH_serve.json new_serve.json
  tools/bench_diff.py BENCH_serve.json BENCH_serve.json   # self: silent, exit 0
"""

import argparse
import json
import sys

# Metrics where a move in the named direction is a regression, as
# (substring-of-metric-name, bad-direction). Anything else is
# reported as informational only.
REGRESSION_METRICS = [
    ("throughput_per_kns", "down"),
    ("latency_p95", "up"),
    ("latency_p99", "up"),
    ("reject_fraction", "up"),
]

# Host-side informational fields (wall-clock time, worker-thread
# count, peak resident set). These describe the machine the bench ran
# on, not the simulated system, so they are NEVER a regression gate —
# not on delta, and not when they appear in or disappear from a
# snapshot.
HOST_INFO_FIELDS = ("wall_ms", "threads", "max_rss_mb")


def is_host_info(path):
    """True for leaves whose final key is host-side informational."""
    leaf = path.rsplit(".", 1)[-1]
    return leaf in HOST_INFO_FIELDS

# Fields that identify a cell inside an experiment array (joined
# into a stable label, in this order).
IDENTITY_FIELDS = [
    "name", "pool", "policy", "mix", "granularity", "depth",
    "chips", "tenants", "load", "kind", "chip", "experiment",
    "figure", "row", "system",
]


def cell_label(obj):
    """Stable label of one dict cell from its identifying fields."""
    parts = []
    for field in IDENTITY_FIELDS:
        if field in obj and not isinstance(obj[field], (dict, list)):
            parts.append(f"{field}={obj[field]}")
    return ",".join(parts)


def flatten(node, prefix, out):
    """Collect numeric/bool leaves into {path: value}."""
    if isinstance(node, dict):
        label = cell_label(node)
        base = f"{prefix}[{label}]" if label else prefix
        for key, value in node.items():
            child = f"{base}.{key}" if base else key
            flatten(value, child, out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            if isinstance(value, dict) and cell_label(value):
                flatten(value, prefix, out)
            else:
                flatten(value, f"{prefix}[{index}]", out)
    elif isinstance(node, bool):
        out[prefix] = node
    elif isinstance(node, (int, float)):
        out[prefix] = float(node)
    # Strings (mode, checksums rendered as hex, names) are identity,
    # not metrics; checksum changes surface through the check leaves
    # and the numeric deltas they accompany.


def classify(path):
    """('down'|'up'|None): the direction that would be a regression."""
    for needle, bad in REGRESSION_METRICS:
        if needle in path:
            return bad
    return None


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench JSON snapshots.")
    parser.add_argument("old", help="baseline snapshot JSON")
    parser.add_argument("new", help="candidate snapshot JSON")
    parser.add_argument(
        "--threshold", type=float, default=5.0,
        help="regression threshold in percent for direction-aware "
             "metrics (default: 5)")
    args = parser.parse_args()

    try:
        with open(args.old) as f:
            old_doc = json.load(f)
        with open(args.new) as f:
            new_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2

    old_leaves, new_leaves = {}, {}
    flatten(old_doc, "", old_leaves)
    flatten(new_doc, "", new_leaves)

    regressions = []
    reports = []

    for path in sorted(old_leaves):
        if path not in new_leaves:
            line = (f"MISSING  {path} (was "
                    f"{old_leaves[path]}, now absent)")
            if is_host_info(path):
                reports.append("info     " + line)
            else:
                regressions.append(line)
            continue
        old_v, new_v = old_leaves[path], new_leaves[path]
        if isinstance(old_v, bool) or isinstance(new_v, bool):
            if old_v != new_v:
                line = f"CHECK    {path}: {old_v} -> {new_v}"
                if old_v and not new_v:
                    regressions.append(line)
                else:
                    reports.append(line)
            continue
        if old_v == new_v:
            continue
        delta = new_v - old_v
        pct = (100.0 * delta / abs(old_v)) if old_v != 0 else float("inf")
        line = (f"{path}: {old_v:g} -> {new_v:g} "
                f"({delta:+g}, {pct:+.1f}%)")
        if is_host_info(path):
            reports.append("info     " + line)
            continue
        bad = classify(path)
        is_regression = bad is not None and abs(pct) > args.threshold and (
            (bad == "down" and delta < 0) or (bad == "up" and delta > 0))
        if is_regression:
            regressions.append(
                f"REGRESS  {line} beyond {args.threshold:g}%")
        else:
            reports.append("delta    " + line)

    for path in sorted(set(new_leaves) - set(old_leaves)):
        reports.append(f"new      {path} = {new_leaves[path]}")

    for line in reports:
        print(line)
    if regressions:
        # Flipped checks and missing cells are regressions at any
        # threshold, so only REGRESS lines name it.
        print(f"\n{len(regressions)} regression(s):")
        for line in regressions:
            print("  " + line)
        return 1
    if not reports:
        print("bench_diff: snapshots identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
