"""Bench-rot guard: every ``benchmarks/bench_*.py`` still imports.

The paper's figure and table scripts live outside the test tree and run
out of band, so nothing else in tier-1 notices when a refactor removes a
public name one of them uses. Module import only — no fixture runs, no
training.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCHES = sorted(BENCH_DIR.glob("bench_*.py"))


def test_the_glob_matches_the_paper_benches():
    names = {path.name for path in BENCHES}
    assert {"bench_fig3_macro.py", "bench_tab5_picker_latency.py"} <= names


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.stem)
def test_bench_imports(path):
    spec = importlib.util.spec_from_file_location(f"bench_import_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
