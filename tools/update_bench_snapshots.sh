#!/usr/bin/env bash
# Refresh the checked-in bench trajectory snapshots.
#
# BENCH_serve.json and BENCH_infer.json (repo root) record the JSON
# emitted by `serve_bench --smoke` and `infer_bench --smoke`, and
# BENCH_paper.json the paper ledger `paper_bench` emits (it takes no
# arguments), at the commit that last touched performance-relevant
# code. They are the repo's performance trajectory: diffing a
# snapshot against its predecessor shows exactly which cycle counts,
# speedups, latencies and paper-figure cells a change moved. The
# benches are fully deterministic (fixed seeds, simulated cycles), so
# on one source tree the snapshots are bit-stable — any diff is a
# real behavior change.
#
# Usage: tools/update_bench_snapshots.sh [build-dir]   (default: build)
#
# Refresh the snapshots when a change legitimately moves the numbers,
# commit them together with the change, and explain the movement in
# the commit message. The script validates that each capture is
# parseable JSON before replacing anything.
set -eu

cd "$(dirname "$0")/.."
build=${1:-build}
benches="serve infer paper"

for bench in $benches; do
    exe="$build/${bench}_bench"
    if [ ! -x "$exe" ]; then
        echo "error: $exe not found or not executable" \
             "(build the '${bench}_bench' target first)" >&2
        exit 2
    fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

for bench in $benches; do
    out="$tmpdir/BENCH_${bench}.json"
    case $bench in
        paper) args= ;;
        *) args=--smoke ;;
    esac
    # The self-checks run inside each bench; a failed check exits
    # non-zero and aborts the refresh before anything is replaced.
    "./$build/${bench}_bench" $args > "$out"
    python3 -m json.tool "$out" > /dev/null || {
        echo "error: ${bench}_bench did not emit valid JSON" >&2
        exit 1
    }
done

# Show what each refresh changes before replacing anything. The diff
# is informational here — the point of this script is to accept a
# legitimate movement — so regressions are printed but do not abort.
# CI runs the same diff with its gating exit code. A snapshot whose
# diff holds only host `info` lines (wall_ms, max_rss_mb, threads) is
# kept as it is, so refreshing one snapshot leaves no host noise in
# the others.
for bench in $benches; do
    snapshot="BENCH_${bench}.json"
    fresh="$tmpdir/$snapshot"
    if [ -f "$snapshot" ]; then
        echo "--- $snapshot delta ---"
        status=0
        report=$(python3 tools/bench_diff.py "$snapshot" "$fresh") ||
            status=$?
        printf '%s\n' "$report"
        if [ "$status" -ne 0 ]; then
            echo "note: regression(s) above — refresh proceeds;" \
                 "justify them in the commit message"
        elif ! printf '%s\n' "$report" | grep -qv \
                -e '^info ' -e '^bench_diff: snapshots identical$'; then
            echo "kept $snapshot (no simulated field moved)"
            continue
        fi
    fi
    mv "$fresh" "$snapshot"
    echo "updated $snapshot"
done
