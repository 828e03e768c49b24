"""Importance grouping funnel (paper Algorithm 2 and Figure 2).

Partitions that pass the predicate filter enter a funnel of trained
regressors, each more selective than the last. A partition advances while
models keep scoring it positive; where it stops determines its importance
group. Requiring *every* earlier filter to pass limits the damage an
inaccurate later model can do.

The returned list orders groups least-important first (index 0 = passed
the filter but no model), matching what the budget allocator expects.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ml.gbrt import GBRTRegressor
from repro.ml.tree import CompiledForest


@lru_cache(maxsize=8)
def _fused(stages: tuple[CompiledForest, ...]) -> CompiledForest:
    """One table for the funnel, laid out once per model, not per pick
    (forests hash by identity, and a refit compiles new ones)."""
    return CompiledForest.fuse(list(stages))


def importance_groups(
    matrix: np.ndarray,
    candidates: np.ndarray,
    regressors: list[GBRTRegressor],
) -> list[np.ndarray]:
    """Sort ``candidates`` into ``len(regressors) + 1`` importance groups.

    ``matrix`` is the normalized feature matrix indexed by partition id.
    Empty groups are kept (as empty arrays) so group index always encodes
    importance rank. Every candidate is scored against every stage in one
    pass over the fused forest; the cascade then keeps a partition in the
    first group whose model does not score it positive (NaN included).
    """
    candidates = np.asarray(candidates, dtype=np.intp)
    if not regressors or candidates.size == 0:
        return [candidates] + [candidates[:0]] * len(regressors)
    matrix = np.asarray(matrix, dtype=np.float64)
    funnel = _fused(tuple(r.compiled_for(matrix) for r in regressors))
    groups: list[np.ndarray] = []
    alive = np.ones(candidates.size, dtype=bool)
    for scores in funnel.stage_scores(matrix, candidates):
        advancing = alive & (scores > 0.0)
        groups.append(candidates[alive & ~advancing])
        alive = advancing
    groups.append(candidates[alive])
    return groups
