"""Array-native estimation plane: combine, finalize and score a grid.

The paper's section 2.4 estimator is a weighted linear combination of
per-partition answers: ``A~_g = sum_j w_j * A_{g, p_j}``.
:class:`BlockEstimator` evaluates it over a
:class:`~repro.engine.batch_executor.QueryAnswerBlock` for a whole *grid*
of candidate selections at once — the shape of every offline consumer
(the LSS stratum sweep, the feature-selection evaluator, the bench
runner's budget sweeps): many selections, one exact answer. An online
answer is a grid of one (:func:`repro.engine.combiner.combine_answers`);
both reduce with the one kernel, :func:`repro.engine.combiner
.weighted_sums`, byte for byte the dict walk the tests keep under
``tests/`` (the summation-order argument is in ``engine/combiner.py``).

The block is sparse in exactly the hot cases — under a sorted layout
each partition holds a handful of a high-cardinality group-by's groups —
so a grid is lowered in the block's *compacted* coordinates: the
selected partitions' live ``(group, totals)`` runs are gathered (``cuts``
range concatenation) candidate-major in selection order, scaled by their
weights, and reduced over the fused ids ``candidate * num_groups +
group``: work proportional to the selected partitions' occupied
segments, not ``partitions x groups``. Presence is tracked per group,
because a zero total is ambiguous between "no rows" and "rows summing to
zero" and the dict walk only carries present groups.

Finalize is elementwise over the ``(candidates, groups, aggregates)``
block, and the metrics (:func:`repro.core.metrics.evaluate_errors_grid`)
batch the elementwise work while replaying each float *reduction* on the
candidate's own 2-D slice — numpy's batched reductions may pick a
different pairwise-summation blocking than the standalone matrix and
drift by an ulp, so the per-candidate chains are preserved explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.engine.batch_executor import QueryAnswerBlock
from repro.engine.combiner import (
    FinalAnswer,
    WeightedChoice,
    finalize_values,
    weighted_sums,
)
from repro.obs import trace_span


def lower_grid(
    selections: list[list[WeightedChoice]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All candidates' ``(parts, weights)`` fused, plus candidate cuts.

    ``parts``/``weights`` concatenate every candidate's selection in
    candidate-major order; ``cand_cuts[k] : cand_cuts[k + 1]`` bounds
    candidate ``k``'s run.
    """
    choices = [choice for selection in selections for choice in selection]
    parts = np.array([choice.partition for choice in choices], dtype=np.intp)
    weights = np.array([choice.weight for choice in choices], dtype=np.float64)
    counts = [len(selection) for selection in selections]
    cand_cuts = np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))
    return parts, weights, cand_cuts


class BlockEstimator:
    """Combine/finalize/score candidate selections over one answer block.

    Reads the block in place: ``live_groups`` is the group code of each
    occupied (partition, group) segment, sorted partition-major;
    ``totals`` the ``(segments, components)`` float64 totals; ``cuts``
    the ``(partitions + 1,)`` bounds of each partition's segment run;
    and ``keys[g]`` the group-key tuple of code ``g``, ascending.
    """

    def __init__(self, block: QueryAnswerBlock) -> None:
        self.block = block
        self._truth: tuple[np.ndarray, np.ndarray] | None = None

    # -- the contraction -----------------------------------------------------

    def _combine(
        self, parts: np.ndarray, weights: np.ndarray, cand_cuts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(combined, present)`` of the lowered candidates: a
        ``(candidates, groups, components)`` float64 block and a
        ``(candidates, groups)`` presence mask."""
        block = self.block
        num_candidates = len(cand_cuts) - 1
        num_groups = block.num_groups
        # Concatenate the selected partitions' segment runs, candidate-
        # major, in selection order (the dict walk's visiting order).
        lo = block.cuts[parts]
        lens = block.cuts[parts + 1] - lo
        starts = np.cumsum(lens) - lens
        seq = np.arange(int(lens.sum())) - np.repeat(starts - lo, lens)
        values = block.totals[seq] * np.repeat(weights, lens)[:, None]
        # Segment count of each candidate: its selections' run lengths.
        seg_bounds = np.concatenate(([0], np.cumsum(lens, dtype=np.intp)))
        seg_counts = seg_bounds[cand_cuts[1:]] - seg_bounds[cand_cuts[:-1]]
        cand_ids = np.repeat(np.arange(num_candidates, dtype=np.intp), seg_counts)
        combined, present = weighted_sums(
            cand_ids * num_groups + block.live_groups[seq],
            values,
            num_candidates * num_groups,
        )
        return (
            combined.reshape(num_candidates, num_groups, block.num_components),
            present.reshape(num_candidates, num_groups),
        )

    # -- grids of selections -------------------------------------------------

    def combine_grid(
        self, selections: list[list[WeightedChoice]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Weighted component totals for a whole candidate grid.

        Row ``k`` is the dict walk's combination of ``selections[k]``
        byte for byte, groups in code order (see the module docstring
        for the summation-order argument).
        """
        return self._combine(*lower_grid(selections))

    def estimate_grid(
        self, selections: list[list[WeightedChoice]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Finalized ``(candidates, groups, aggregates)`` values and
        ``(candidates, groups)`` presence for a whole candidate grid."""
        combined, present = self.combine_grid(selections)
        return finalize_values(self.block.query, combined), present

    def truth(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact ``(values, present)``: one candidate, every
        partition at weight 1 (cached)."""
        if self._truth is None:
            n = self.block.num_partitions
            combined, present = self._combine(
                np.arange(n, dtype=np.intp),
                np.ones(n, dtype=np.float64),
                np.array([0, n], dtype=np.intp),
            )
            values = finalize_values(self.block.query, combined)
            self._truth = (values[0], present[0])
        return self._truth

    def score_grid(
        self,
        selections: list[list[WeightedChoice]],
        truth: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> list:
        """One :class:`~repro.core.metrics.ErrorReport` per candidate.

        ``truth`` defaults to the cached all-partitions exact answer;
        pass a ``(values, present)`` pair (a row of
        :meth:`estimate_grid`) to score against a reference selection
        instead.
        """
        # Imported here: core sits above engine in the layering; the
        # function itself only touches this estimator's arrays.
        from repro.core.metrics import evaluate_errors_grid

        with trace_span("engine.grid_score", candidates=len(selections)):
            true_values, true_present = (
                truth if truth is not None else self.truth()
            )
            est_values, est_present = self.estimate_grid(selections)
            return evaluate_errors_grid(
                true_values, true_present, est_values, est_present
            )

    # -- dict materialization (compatibility edges) --------------------------

    def as_final_answer(
        self, values: np.ndarray, present: np.ndarray
    ) -> FinalAnswer:
        """A ``(values, present)`` pair as the familiar FinalAnswer dict."""
        return {self.block.keys[g]: values[g] for g in np.flatnonzero(present)}

    def truth_answer(self) -> FinalAnswer:
        """The exact answer as a FinalAnswer dict (keys in code order)."""
        return self.as_final_answer(*self.truth())
