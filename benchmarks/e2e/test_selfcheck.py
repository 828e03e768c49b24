"""Self-check of the benchmark itself, on ``--scale tiny`` shapes.

Not part of tier-1 (``pytest.ini`` collects ``tests/`` only); run it
explicitly, it takes well under a minute::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import loadgen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py"), "--scale", "tiny"]


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One ``run.py`` over all four workloads, untraced then traced."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = subprocess.run(
        RUN + ["--seed", "5", "--seconds", "1.5", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def test_every_declared_metric_is_measured_with_its_unit(results):
    assert set(results) == {w["name"] for w in SPEC["workloads"]}
    for declared in SPEC["end_to_end"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", declared["name"])
        for workload, result in results.items():
            entry = result["end_to_end"][declared["name"]]
            assert entry["unit"] == declared["unit"], (workload, declared)
            assert entry["value"] > 0.0, (workload, declared)
    for declared in SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", declared["name"])
        entries = [
            {**r["end_to_end"], **r["per_layer"]}.get(declared["name"])
            for r in results.values()
        ]
        measured = [e for e in entries if e is not None]
        assert measured, f"{declared['name']} is declared but no workload emits it"
        assert all(e["unit"] == declared["unit"] for e in measured), declared


def test_workloads_stress_different_layers(results):
    for workload, result in results.items():
        assert result["failed"] == 0, (workload, result["errors"])
        assert result["checked"] > 0
        layer = result["per_layer"]
        assert abs(layer["obs.trace_self_sum_share"]["value"] - 1.0) <= 0.1
        assert result["trace"]["missing"] == []
        serving = layer.get("engine.serving.batch_size_mean", {"value": 0.0})
        storage = layer.get("storage.wal.bytes_per_row", {"value": 0.0})
        assert (serving["value"] > 0.0) == (workload == "served_open")
        assert (storage["value"] > 0.0) == (workload == "ingest_mixed")
    steps = results["served_open"]["steps"]
    assert len(steps) == len(inputs.LADDER_MULTIPLES)
    assert all(step["sent"] == steps[0]["sent"] for step in steps)


def _same_queries(a, b) -> bool:
    return [q.label() for q in a] == [q.label() for q in b]


def test_seed_fixes_tables_queries_and_arrivals():
    scale = inputs.SCALES["tiny"]
    first = inputs.build_inputs("ingest_mixed", scale, 7, 1.0)
    again = inputs.build_inputs("ingest_mixed", scale, 7, 1.0)
    other = inputs.build_inputs("ingest_mixed", scale, 8, 1.0)
    for name, column in first.ptable.table.columns.items():
        assert np.array_equal(column, again.ptable.table.columns[name])
    assert any(
        not np.array_equal(column, other.ptable.table.columns[name])
        for name, column in first.ptable.table.columns.items()
    )
    # The queries are one fixed workload (inputs.QUERY_SEED); the seed
    # moves the data under them and the order they are issued in.
    assert _same_queries(first.pool, again.pool)
    assert _same_queries(first.train, again.train)
    assert _same_queries(first.pool, other.pool)
    assert np.array_equal(inputs.pool_order(7, 16, 0), inputs.pool_order(7, 16, 0))
    assert not np.array_equal(inputs.pool_order(7, 16, 0), inputs.pool_order(8, 16, 0))
    assert all(
        np.array_equal(a["src_bytes"], b["src_bytes"])
        for a, b in zip(first.append_columns, again.append_columns)
    )
    assert not np.array_equal(
        first.append_columns[0]["src_bytes"], other.append_columns[0]["src_bytes"]
    )
    due, picks = inputs.arrival_schedule(7, 0, 40.0, 50, 16)
    due_again, picks_again = inputs.arrival_schedule(7, 0, 40.0, 50, 16)
    due_other, __ = inputs.arrival_schedule(8, 0, 40.0, 50, 16)
    assert np.array_equal(due, due_again) and np.array_equal(picks, picks_again)
    assert not np.array_equal(due, due_other)
    assert np.all(np.diff(due) > 0.0)


def test_corrupted_answer_is_reported_failed():
    done = subprocess.run(
        RUN + ["--workload", "scan_heavy", "--trace", "0", "--corrupt-answer"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


class _StallingFront:
    """A front end whose first ``submit`` blocks the generator."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def submit(self, query, budget_fraction):
        if self.calls == 0:
            time.sleep(self.stall)
        self.calls += 1
        future = Future()
        future.set_result(query)
        return future


def test_open_loop_times_from_due_time_and_reports_lateness():
    stall = 0.05
    due = np.array([0.0, 0.005, 0.010, 0.2])
    step = loadgen.open_loop_step(
        _StallingFront(stall), ["q"], 0.5, 100.0, due, np.zeros(4, dtype=int), 0.5
    )
    assert len(step.requests) == 4 and step.late_cancelled == 0
    # Requests two and three were due while the generator was stalled:
    # they are sent late, and the delay is charged to their latency.
    for request in step.requests[1:3]:
        assert request.sent - request.due >= stall / 2
        assert request.latency >= request.sent - request.due
    assert max(step.lateness) >= stall / 2
    assert step.lateness[3] < stall / 2  # the schedule is kept, not shifted
