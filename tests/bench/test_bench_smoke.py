"""Smoke tests: every perf benchmark's main path runs on a tiny table.

The ``benchmarks/bench_perf_*.py`` scripts live outside the test tree,
so nothing in tier-1 would notice if an executor/feature-plane refactor
broke their imports or ``run()`` paths until someone tried to reproduce
the numbers. This suite imports each perf bench from its file path,
shrinks its scale knobs (one tiny partition count, one repeat), points
``REPRO_RESULTS_DIR`` at a tmp dir, and runs it end to end — asserting
the report structure and emitted artifacts, not the speedups (a 3-
partition table proves nothing about performance; the real bars live in
the benches' own ``test_perf_*`` functions, run out of band).
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
PERF_BENCHES = sorted(BENCH_DIR.glob("bench_perf_*.py"))

#: Scale knobs shared by the perf benches, shrunk to smoke size.
TINY_KNOBS = {
    "PARTITION_COUNTS": (3,),
    "ROWS_PER_PARTITION": 20,
    "REPEATS": 1,
}


def _load_bench(path: Path):
    name = f"bench_smoke_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def test_perf_benches_exist():
    """The glob must keep matching; an empty sweep would test nothing."""
    names = [p.name for p in PERF_BENCHES]
    assert "bench_perf_feature_plane.py" in names
    assert "bench_perf_batch_executor.py" in names
    assert "bench_perf_sketch_plane.py" in names
    assert "bench_perf_recovery.py" in names
    assert "bench_perf_serving.py" in names


def test_every_perf_bench_has_smoke_entry():
    """Bench-rot guard: every perf bench on disk is in the smoke sweep.

    ``PERF_BENCHES`` drives the parametrization of
    ``test_perf_bench_main_path``; if it ever drifts from the files on
    disk (e.g. someone replaces the glob with a hand-maintained list), a
    new ``bench_perf_*.py`` could land unsmoked. CI runs this module
    explicitly as its bench-rot gate.
    """
    on_disk = sorted(p.name for p in BENCH_DIR.glob("bench_perf_*.py"))
    smoked = sorted(p.name for p in PERF_BENCHES)
    assert smoked, "no perf benches collected — the smoke sweep is empty"
    assert smoked == on_disk, (
        f"perf benches without a smoke entry: {set(on_disk) - set(smoked)}"
    )


@pytest.mark.parametrize("path", PERF_BENCHES, ids=lambda p: p.stem)
def test_perf_bench_main_path(path, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    module = _load_bench(path)
    for knob, tiny in TINY_KNOBS.items():
        assert hasattr(module, knob), (
            f"{path.name} lost its {knob} knob; update the smoke test "
            "along with the bench's scale interface"
        )
        monkeypatch.setattr(module, knob, tiny)
    if hasattr(module, "OBS_MICROBENCH_ITERATIONS"):
        monkeypatch.setattr(module, "OBS_MICROBENCH_ITERATIONS", 2_000)
    report = module.run()
    assert report["results"], report
    for row in report["results"]:
        assert row["partitions"] == 3
        assert row["speedup"] > 0.0
    bench_name = report["benchmark"]
    json_path = tmp_path / f"BENCH_{bench_name}.json"
    assert json_path.exists()
    persisted = json.loads(json_path.read_text())
    assert persisted["benchmark"] == bench_name
    assert (tmp_path / f"{bench_name}.txt").exists()
    if bench_name == "perf_serving":
        # The latency percentiles and the batching evidence must survive
        # schema drift (the speedup claim is meaningless without them).
        for row in persisted["results"]:
            assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["concurrency"] >= 1
            assert row["mean_batch"] > 0.0
            assert row["serving_qps"] > 0.0 and row["sequential_qps"] > 0.0
        # The overload scenario must keep reporting all three admission
        # policies with shed/degraded accounting that adds up. (Whether
        # the bound actually bites is a real-scale claim asserted in the
        # bench's own test_perf_serving, not on a 3-partition table.)
        overload = {row["policy"]: row for row in persisted["overload"]}
        assert set(overload) == {"off", "reject", "degrade"}
        for row in overload.values():
            assert row["answered"] + row["shed"] == row["offered"]
            assert 0.0 <= row["shed_rate"] <= 1.0
            assert 0.0 <= row["degraded_fraction"] <= 1.0
            assert row["p50_ms"] <= row["p99_ms"]
            assert row["queue_peak"] >= 0
        assert overload["off"]["shed"] == 0
        assert overload["reject"]["degraded"] == 0
        # The obs no-op microbench must keep reporting both paths and
        # its own bounds (the bench asserts them in-run; the schema is
        # what the CI artifact consumers read).
        obs = persisted["obs"]
        assert obs["iterations"] >= 1
        assert 0.0 < obs["disabled_counter_ns"] <= obs["max_disabled_counter_ns"]
        assert 0.0 < obs["disabled_span_ns"] <= obs["max_disabled_span_ns"]
        assert obs["enabled_counter_ns"] > 0.0
        assert obs["enabled_span_ns"] > 0.0
    if bench_name == "perf_sketch_plane":
        # Build and cold-start claims are all parity-gated; the flag,
        # the three cold-start timings, and the bytes-touched/RSS
        # footprint columns must survive schema drift.
        for row in persisted["results"]:
            assert row["bit_identical"] is True
            assert row["scalar_build_ms"] > 0.0
            assert row["vectorized_build_ms"] > 0.0
            assert row["cold_export_ms"] > 0.0 and row["cold_index_ms"] > 0.0
            assert row["cold_mmap_ms"] > 0.0
            assert row["cold_speedup"] > 0.0 and row["mmap_speedup"] > 0.0
            assert 0.0 < row["touched_mmap_kb"] < row["file_kb"]
            assert "rss_full_kb" in row and "rss_mmap_kb" in row
