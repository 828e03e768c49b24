"""Perf-regression smoke gate: every bench's invariants must self-report.

The smoke sweep (``test_bench_smoke.py``) proves each ``bench_perf_*.py``
still *runs*; this gate reads the reports those runs produce and asserts
the claims CI consumers rely on are still being made: every results row
carries a positive speedup column, the parity-gated benches still stamp
``bit_identical`` on every row, and the serving bench's obs microbench
keeps its disabled-path cost under its own published bounds. A refactor
that silently drops a parity check or a speedup column — while the bench
keeps running — goes red here, in tier-1, instead of surfacing weeks
later when someone reads a stale artifact.

Runs on the same tiny knobs as the smoke sweep, so no assertion here is
about *magnitude* (a 3-partition table proves nothing about speed); the
real bars live in each bench's own ``test_perf_*``, run out of band.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
PERF_BENCHES = sorted(BENCH_DIR.glob("bench_perf_*.py"))

TINY_KNOBS = {
    "PARTITION_COUNTS": (3,),
    "ROWS_PER_PARTITION": 20,
    "REPEATS": 1,
}

#: Benches whose speedup claims are conditional on bit-exact parity;
#: every results row they emit must carry ``bit_identical: true``.
PARITY_BENCHES = {
    "perf_recovery",
    "perf_sketch_plane",
}

#: Extra speedup columns beyond the common ``speedup`` field.
EXTRA_SPEEDUP_COLUMNS = {
    "perf_sketch_plane": ("cold_speedup", "mmap_speedup"),
}


def _run_tiny(path: Path, results_dir: Path) -> dict:
    name = f"bench_gate_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    patcher = pytest.MonkeyPatch()
    try:
        patcher.setenv("REPRO_RESULTS_DIR", str(results_dir))
        for knob, tiny in TINY_KNOBS.items():
            patcher.setattr(module, knob, tiny)
        if hasattr(module, "OBS_MICROBENCH_ITERATIONS"):
            patcher.setattr(module, "OBS_MICROBENCH_ITERATIONS", 2_000)
        return module.run()
    finally:
        patcher.undo()


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    """One tiny-knob run of every perf bench, keyed by report name.

    When ``REPRO_RESULTS_DIR`` is already set (as CI's perf-gate step
    does), the reports land there so the workflow can upload them as
    build artifacts; otherwise they go to a throwaway tmp dir.
    """
    preset = os.environ.get("REPRO_RESULTS_DIR")
    if preset:
        results_dir = Path(preset)
        results_dir.mkdir(parents=True, exist_ok=True)
    else:
        results_dir = tmp_path_factory.mktemp("perf-gate-results")
    collected = {}
    for path in PERF_BENCHES:
        report = _run_tiny(path, results_dir)
        collected[report["benchmark"]] = report
    return collected


def test_gate_covers_every_bench_on_disk(reports):
    assert len(reports) == len(PERF_BENCHES)
    assert set(reports) >= PARITY_BENCHES
    assert "perf_serving" in reports


def test_every_results_row_self_reports_a_speedup(reports):
    for name, report in reports.items():
        assert report["results"], name
        for row in report["results"]:
            assert row["speedup"] > 0.0, (name, row)


def test_parity_benches_still_stamp_bit_identical(reports):
    for name in PARITY_BENCHES:
        for row in reports[name]["results"]:
            assert row["bit_identical"] is True, (name, row)


def test_extra_speedup_columns_survive(reports):
    for name, columns in EXTRA_SPEEDUP_COLUMNS.items():
        for row in reports[name]["results"]:
            for column in columns:
                assert row[column] > 0.0, (name, column, row)


def test_serving_obs_overhead_within_published_bounds(reports):
    obs = reports["perf_serving"]["obs"]
    assert obs["disabled_counter_ns"] <= obs["max_disabled_counter_ns"], obs
    assert obs["disabled_span_ns"] <= obs["max_disabled_span_ns"], obs
    assert obs["disabled_histogram_ns"] <= obs["max_disabled_counter_ns"], obs
