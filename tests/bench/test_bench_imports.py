"""Bench-rot guard: every ``benchmarks/bench_*.py`` and the accuracy
gate's scorer, ``benchmarks/accuracy.py``, still import.

The paper's figure and table scripts live outside the test tree and run
out of band, so nothing else in tier-1 notices when a refactor removes a
public name one of them uses. The gate's scorer is otherwise imported
only by the ``slow`` suite ``tests/accuracy/test_accuracy_gate.py``, so
the names that suite reads from it are checked here too. Module import
only — no fixture runs, no training.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCHES = sorted(BENCH_DIR.glob("bench_*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_import_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_glob_matches_the_paper_benches():
    names = {path.name for path in BENCHES}
    assert {"bench_fig3_macro.py", "bench_tab5_picker_latency.py"} <= names


@pytest.mark.parametrize("path", BENCHES, ids=lambda p: p.stem)
def test_bench_imports(path):
    load(path)


def test_the_accuracy_gate_scorer_imports():
    accuracy = load(BENCH_DIR / "accuracy.py")
    assert callable(accuracy.score_dataset) and callable(accuracy.summarize)
    assert accuracy.GATE_PROFILE.budget_fractions
    assert accuracy.DATASETS and accuracy.MIN_QUERIES > 0
