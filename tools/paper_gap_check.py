#!/usr/bin/env python3
"""Check perfbench's paper gaps against the paper ledger.

    python3 tools/paper_gap_check.py LEDGER RESULT

LEDGER is a paper_bench snapshot (BENCH_paper.json). RESULT is the
saved stdout of `python3 perfbench/run.py --workload paper_figures`,
whose last line is the run's JSON result.

perfbench builds its own Fig. 13 / Fig. 16 workloads and keeps its own
copies of the paper's values, so its fig13_gap / fig16_gap can drift
from the ledger unnoticed. This script recomputes both gaps from the
ledger: for each figure it takes the DARTH-PUM cells of AES, ResNet-20
and LLMEnc, forms r = measured / paper per cell, and takes the
geometric mean of max(r, 1/r) -- perfbench's formula. Exit status is 0
when both gaps agree within a relative difference of 1e-6, 1 when
either differs by more, and 2 on unreadable or incomplete input.
"""

import json
import math
import sys

FIGURES = (("fig13_gap", "Fig. 13"), ("fig16_gap", "Fig. 16"))
ROWS = ("AES", "ResNet-20", "LLMEnc")
SYSTEM = "DARTH-PUM"
TOLERANCE = 1e-6


def fail(message):
    print("paper_gap_check: " + message, file=sys.stderr)
    sys.exit(2)


def ledger_gap(cells, figure):
    """Geometric mean of max(r, 1/r) over the figure's three cells."""
    logs = []
    for row in ROWS:
        match = [c for c in cells if c.get("figure") == figure and
                 c.get("row") == row and c.get("system") == SYSTEM]
        if len(match) != 1 or "paper" not in match[0]:
            fail("ledger has no single %s %s %s cell with a paper value"
                 % (figure, row, SYSTEM))
        r = float(match[0]["measured"]) / float(match[0]["paper"])
        if not r > 0.0:
            fail("%s %s: measured/paper ratio %r is not positive"
                 % (figure, row, r))
        logs.append(abs(math.log(r)))
    return math.exp(sum(logs) / len(logs))


def main(argv):
    if len(argv) != 3:
        fail("usage: paper_gap_check.py LEDGER RESULT")
    try:
        with open(argv[1]) as f:
            cells = json.load(f)["cells"]
        with open(argv[2]) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        metrics = json.loads(lines[-1])["metrics"]
        gaps = {m: float(metrics[m]["value"]) for m, _ in FIGURES}
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        fail("cannot read input: %r" % e)

    drifted = []
    for metric, figure in FIGURES:
        want = ledger_gap(cells, figure)
        got = gaps[metric]
        rel = abs(got - want) / want
        print("%s: ledger %.12g, perfbench %.12g, relative difference "
              "%.2g" % (metric, want, got, rel))
        if not rel <= TOLERANCE:
            drifted.append(metric)
    if drifted:
        print("DRIFT: %s differ(s) from the ledger by more than %g"
              % (", ".join(drifted), TOLERANCE))
        return 1
    print("gaps agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
