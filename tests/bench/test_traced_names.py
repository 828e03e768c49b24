"""Every callable the repo benchmark traces still exists under its name.

``benchmarks/e2e/layers.py`` wraps a declared table of ``src/``
callables by module and attribute path; a renamed or moved one is only
listed in ``trace.missing`` and its time silently folds into its
parent's span. Installing the tracer here makes a rename a tier-1
failure instead of a benchmark-run surprise.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def test_tracer_finds_every_traced_callable():
    spec = importlib.util.spec_from_file_location("bench_e2e_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
