"""``benchmarks/results/e2e_trajectory.jsonl``: one line per PR that ran
the repo benchmark — the six end-to-end medians of each of the four
workloads, the commit, the seeds and the number of parent/change pairs —
so the perf history is a table, not prose inside CHANGES.md."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = ROOT / "benchmarks" / "results" / "e2e_trajectory.jsonl"


def test_every_line_names_every_workload_and_end_to_end_metric():
    workloads = {w["name"] for w in SPEC["workloads"]}
    metrics = {m["name"] for m in SPEC["end_to_end"]}
    lines = TRAJECTORY.read_text().splitlines()
    assert lines
    prs = []
    for line in lines:
        row = json.loads(line)
        prs.append(row["pr"])
        assert row["seeds"] and row["pairs"] >= 1 and "commit" in row
        assert set(row["workloads"]) == workloads
        for name, medians in row["workloads"].items():
            assert set(medians) == metrics, (row["pr"], name)
            assert all(value > 0 for value in medians.values())
    assert prs == sorted(prs)
