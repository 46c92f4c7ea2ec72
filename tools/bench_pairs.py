"""Apply README's claim rule to paired runs of ``perfbench/run.py``.

Usage, from any directory:

    python3 tools/bench_pairs.py PARENT.jsonl CHANGE.jsonl [--claim METRIC]

Each file holds the last stdout line of one run per line (the JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``), in run order,
so line i of one file and line i of the other form pair i.  For every
end-to-end metric of ``BENCHMARK.json`` it prints the median and quartiles
per side and the number of pairs the change won, in the direction the
metric's ``better`` names.

``--claim METRIC`` holds when there are at least ten pairs, the change wins
at least nine in ten of them, and the change's median beats the parent's by
more than the parent's interquartile range.  Every other end-to-end metric
must stay within its bound: the change's median may be worse than the
parent's by at most ``bound`` times the parent's median.  When either
side's interquartile range is wider than that allowance, the medians cannot
show it, and the metric is ``unresolved`` unless every change run beats
every parent run.  The share of failed operations must not grow.  Quartiles
are ``statistics.quantiles`` with the inclusive method.  The last line is
PASS (exit status 0), FAIL when the claim, a bound or the failure share
does not hold (1), or UNRESOLVED when nothing fails but some metric is
unresolved (2).  ``BENCHMARK.json`` is only read.
"""

from __future__ import annotations

import argparse
import json
import operator
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _runs(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[dict], change: list[dict], end_to_end: list[dict],
          claim: str | None = None) -> tuple[list[str], str]:
    """Report lines and the verdict: PASS, FAIL or UNRESOLVED."""
    if len(parent) != len(change) or not parent:
        return [f"need the same number of runs on both sides, got {len(parent)} and "
                f"{len(change)}"], "FAIL"
    names = [m["name"] for m in end_to_end]
    if claim is not None and claim not in names:
        return [f"{claim} is no end-to-end metric of {BENCHMARK.name}: {names}"], "FAIL"
    lines, ok, unresolved = [f"{len(parent)} pairs"], True, False
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        beats = operator.lt if lower else operator.gt  # beats(change, parent)
        wins = sum(beats(y, x) for x, y in zip(a, b))
        (pa1, pa2, pa3), (pb1, pb2, pb3) = quartiles(a), quartiles(b)
        gain = (pa2 - pb2) if lower else (pb2 - pa2)
        lines.append(f"{name} [{metric['unit']}]: parent {pa2:.6g} ({pa1:.6g}-{pa3:.6g}), "
                     f"change {pb2:.6g} ({pb1:.6g}-{pb3:.6g}), change won {wins}/{len(a)}, "
                     f"median {100.0 * (pb2 - pa2) / pa2:+.1f}%")
        if name == claim:
            holds = (len(a) >= MIN_PAIRS and wins >= WIN_SHARE * len(a)
                     and gain > pa3 - pa1)
            lines.append(f"  claim {'holds' if holds else 'FAILS'}: needs >= {MIN_PAIRS} pairs, "
                         f">= {WIN_SHARE:.0%} won and a median gain {gain:.6g} "
                         f"> parent IQR {pa3 - pa1:.6g}")
            ok = ok and holds
        else:
            allowance = metric["bound"] * abs(pa2)
            spread = max(pa3 - pa1, pb3 - pb1)
            if spread > allowance and not all(beats(y, x) for x in a for y in b):
                lines.append(f"  unresolved: an interquartile range {spread:.6g} is wider "
                             f"than the bound's allowance {allowance:.6g} and the runs overlap")
                unresolved = True
            elif -gain > allowance:
                lines.append(f"  OUTSIDE its bound: worse by more than "
                             f"{metric['bound']:.0%} of the parent's median")
                ok = False
    shares = [sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
              for side in (parent, change)]
    lines.append(f"failed share: parent {shares[0]:.3g}, change {shares[1]:.3g}")
    if shares[1] > shares[0]:
        lines.append("  MORE operations failed with the change")
        ok = False
    verdict = "FAIL" if not ok else "UNRESOLVED" if unresolved else "PASS"
    lines.append(verdict)
    return lines, verdict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="jsonl of the parent's runs")
    parser.add_argument("change", help="jsonl of the change's runs, in the same pair order")
    parser.add_argument("--claim", help="the end-to-end metric claimed to improve")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines, verdict = judge(_runs(args.parent), _runs(args.change), end_to_end, args.claim)
    print("\n".join(lines))
    return {"PASS": 0, "FAIL": 1, "UNRESOLVED": 2}[verdict]


if __name__ == "__main__":
    sys.exit(main())
