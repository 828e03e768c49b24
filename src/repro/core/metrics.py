"""Error metrics (paper section 5.1.4).

Three complementary views, because a method can score a small absolute
error while missing every small group:

* **missed groups** — fraction of true groups absent from the estimate;
* **average relative error** — mean over (group, aggregate) of
  ``|est - true| / |true|``, counting missed groups as 1;
* **absolute error over true** — per aggregate, mean absolute error across
  groups divided by the mean absolute true value, averaged over aggregates.

Two entry points: :func:`evaluate_errors` walks ``FinalAnswer`` dicts
(the reference path), and :func:`evaluate_errors_grid` scores the array
form the :class:`~repro.engine.block_estimator.BlockEstimator` produces —
group rows addressed by code instead of key, presence as boolean
vectors — for a whole *batch* of estimates against one truth in a
handful of array passes (the sweep loops' shape: many candidate
selections, one exact answer). Both order groups canonically (ascending
group key, which is exactly the block's code order), so for the same
answers they return the same :class:`ErrorReport` bit for bit: the grid
form does its elementwise work over the stacked ``(candidates, groups,
aggregates)`` block and replays each float reduction on the candidate's
own 2-D slice, the exact chain the dict path's matrix core runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.combiner import FinalAnswer


@dataclass(frozen=True)
class ErrorReport:
    """The three error metrics for one (query, estimate) pair."""

    missed_groups: float
    avg_relative_error: float
    abs_over_true: float


#: Empty true answer, empty estimate: an exact approximation.
_EMPTY_TRUTH_EXACT = ErrorReport(0.0, 0.0, 0.0)
#: Empty true answer, non-empty estimate: every estimated group is
#: invented signal, the per-group analogue of a zero truth estimated
#: non-zero — one full relative error, no groups to miss or scale by.
_EMPTY_TRUTH_SPURIOUS = ErrorReport(0.0, 1.0, 0.0)


def _matrix_report(
    true_matrix: np.ndarray, est_matrix: np.ndarray, present: np.ndarray
) -> ErrorReport:
    """The three metrics over aligned (group, aggregate) matrices.

    ``present`` marks the true groups the estimate carries; absent rows
    of ``est_matrix`` are zero.
    """
    missed = float(1.0 - present.mean())

    # Average relative error: missed groups count as 1 per aggregate.
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(est_matrix - true_matrix) / np.abs(true_matrix)
    rel = np.where(np.abs(true_matrix) > 0.0, rel, np.abs(est_matrix) > 0.0)
    rel[~present] = 1.0
    avg_rel = float(rel.mean())

    # Absolute error over true, per aggregate then averaged.
    num_aggs = true_matrix.shape[1]
    abs_err = np.abs(est_matrix - true_matrix).mean(axis=0)
    true_scale = np.abs(true_matrix).mean(axis=0)
    ratios = np.divide(
        abs_err,
        true_scale,
        out=np.zeros(num_aggs, dtype=np.float64),
        where=true_scale > 0.0,
    )
    return ErrorReport(missed, avg_rel, float(ratios.mean()))


def evaluate_errors(truth: FinalAnswer, estimate: FinalAnswer) -> ErrorReport:
    """Compare an approximate answer against the exact answer.

    Groups present only in the estimate (possible when weighting scales a
    spurious partition) are ignored, matching the paper's metrics which
    are defined over the true answer's groups — except when the true
    answer has no groups at all, where a non-empty estimate is pure
    invented signal and scores one full relative error. Groups are
    iterated in sorted key order (every query's group keys are mutually
    comparable tuples), which pins the float summation order to the
    block path's ascending group-code order.
    """
    if not truth:
        return _EMPTY_TRUTH_SPURIOUS if estimate else _EMPTY_TRUTH_EXACT

    keys = sorted(truth)
    true_matrix = np.vstack([truth[k] for k in keys])
    est_matrix = np.zeros_like(true_matrix)
    present = np.zeros(len(keys), dtype=bool)
    for i, key in enumerate(keys):
        vec = estimate.get(key)
        if vec is not None:
            est_matrix[i] = vec
            present[i] = True
    return _matrix_report(true_matrix, est_matrix, present)


def evaluate_errors_grid(
    true_values: np.ndarray,
    true_present: np.ndarray,
    est_values: np.ndarray,
    est_present: np.ndarray,
) -> list[ErrorReport]:
    """Array twin of :func:`evaluate_errors`: many estimates, one truth.

    ``true_values`` is a ``(groups, aggregates)`` block addressed by one
    group-code dictionary (rows in ascending code order) with a boolean
    presence vector; ``est_values`` is a ``(candidates, groups,
    aggregates)`` block and ``est_present`` its ``(candidates, groups)``
    presence mask over the same codes. Rows absent from the truth are
    ignored (spurious groups), rows absent from an estimate score as
    missed. Returns one report per candidate, bit-identical to
    :func:`evaluate_errors` on that candidate's dict answer: the
    elementwise ops broadcast the truth across candidates in one pass,
    and each float reduction runs on the candidate's own 2-D slice so
    its IEEE-754 chain matches the matrix core exactly.
    """
    true_present = np.asarray(true_present, dtype=bool)
    est_present = np.asarray(est_present, dtype=bool)
    if len(est_present) == 0:
        return []
    if not true_present.any():
        return [
            _EMPTY_TRUTH_SPURIOUS if row.any() else _EMPTY_TRUTH_EXACT
            for row in est_present
        ]

    present = est_present[:, true_present]  # (candidates, true groups)
    true_matrix = np.asarray(true_values, dtype=np.float64)[true_present]
    est_block = np.where(
        present[:, :, None],
        np.asarray(est_values, dtype=np.float64)[:, true_present, :],
        0.0,
    )
    num_candidates = est_block.shape[0]
    missed = 1.0 - present.mean(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(est_block - true_matrix) / np.abs(true_matrix)
    rel = np.where(np.abs(true_matrix) > 0.0, rel, np.abs(est_block) > 0.0)
    rel[~present] = 1.0
    # The float *reductions* run per candidate on the 2-D slice — the
    # batched forms (``.mean(axis=1)`` on the 3-D block, row-wise means
    # of the reshaped grid) let numpy pick a different pairwise-summation
    # blocking than the per-candidate matrix reductions and drift by an
    # ulp. Each slice has exactly the reference path's shape, so its
    # chain is replayed verbatim; the expensive elementwise work above
    # stays fully batched.
    avg_rel = np.array([rel[k].mean() for k in range(num_candidates)])

    num_aggs = true_matrix.shape[1]
    diff = np.abs(est_block - true_matrix)
    abs_err = np.stack(
        [diff[k].mean(axis=0) for k in range(num_candidates)]
    )
    true_scale = np.abs(true_matrix).mean(axis=0)
    ratios = np.divide(
        abs_err,
        true_scale,
        out=np.zeros((num_candidates, num_aggs), dtype=np.float64),
        where=true_scale > 0.0,
    )
    abs_over_true = ratios.mean(axis=1)
    return [
        ErrorReport(float(missed[k]), float(avg_rel[k]), float(abs_over_true[k]))
        for k in range(num_candidates)
    ]


def mean_report(reports: list[ErrorReport]) -> ErrorReport:
    """Average the three metrics over a set of queries."""
    if not reports:
        return ErrorReport(0.0, 0.0, 0.0)
    return ErrorReport(
        float(np.mean([r.missed_groups for r in reports])),
        float(np.mean([r.avg_relative_error for r in reports])),
        float(np.mean([r.abs_over_true for r in reports])),
    )
