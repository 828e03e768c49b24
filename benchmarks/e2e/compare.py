"""Compare two result files metric by metric against the bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are what ``run.py --out`` writes (all
workloads, or one). For every workload × end-to-end metric with a bound
in ``BENCHMARK.json`` this prints both values, B's relative gap to A in
the metric's *worse* direction, and the bound; it exits 1 when a gap
exceeds its bound. Two runs of one commit must agree under it; a later
change is read as B against its parent A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def by_workload(path: str) -> dict:
    data = json.loads(Path(path).read_text())
    return {data["workload"]: data} if "workload" in data else data


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if a == 0.0:
        return 0.0 if b == 0.0 else float("inf")
    gap = (b - a) / abs(a)
    return gap if better == "lower" else -gap


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    first, second = by_workload(argv[0]), by_workload(argv[1])
    bounds = json.loads(SPEC.read_text())["end_to_end"]
    exceeded = 0
    print(
        f"{'workload':14s} {'metric':26s} {'A':>12s} {'B':>12s} "
        f"{'worse by':>9s} {'bound':>6s}"
    )
    for workload in first:
        if workload not in second:
            print(f"{workload:14s} missing from {argv[1]}")
            exceeded += 1
            continue
        for declared in bounds:
            name = declared["name"]
            a = first[workload]["end_to_end"].get(name)
            b = second[workload]["end_to_end"].get(name)
            if a is None or b is None:
                print(f"{workload:14s} {name:26s} missing")
                exceeded += 1
                continue
            gap = worsening(a["value"], b["value"], declared["better"])
            over = gap > declared["bound"]
            exceeded += over
            print(
                f"{workload:14s} {name:26s} {a['value']:12.5g} {b['value']:12.5g} "
                f"{gap:+9.1%} {declared['bound']:6.0%}{'  EXCEEDED' if over else ''}"
            )
        for run in (first, second):
            if run[workload]["failed"]:
                print(f"{workload:14s} failed operations: {run[workload]['failed']}")
                exceeded += 1
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
