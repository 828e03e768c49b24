"""Benchmark harness shared by the per-figure/table benchmarks.

* :mod:`~repro.bench.profiles` — workload scales (quick for CI, default
  for reproduction runs), switchable via ``REPRO_BENCH_PROFILE``;
* :mod:`~repro.bench.runner` — :class:`ExperimentContext`, which builds a
  dataset + layout, trains PS3 and all baselines once, and evaluates any
  selection method across budgets with cached per-partition answers;
* :mod:`~repro.bench.reporting` — fixed-width tables and result files
  under ``benchmarks/results/``;
* :mod:`~repro.bench.simcluster` — the cost-model cluster simulator
  standing in for the paper's SCOPE clusters (Table 3);
* :mod:`~repro.bench.pickers` — Figure 4's lesioned pickers and Table
  6/7's HAC variants, subclasses of the one production picker;
* :mod:`~repro.bench.hac` — the hierarchical clustering they use.
"""

from repro.bench.profiles import BenchProfile, get_profile
from repro.bench.runner import ExperimentContext, get_context
from repro.bench.simcluster import ClusterSimulator

__all__ = [
    "BenchProfile",
    "ClusterSimulator",
    "ExperimentContext",
    "get_context",
    "get_profile",
]
