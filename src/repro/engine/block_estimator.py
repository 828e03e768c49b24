"""Array-native estimation plane: combine, finalize and score a grid.

The paper's section 2.4 estimator is a weighted linear combination of
per-partition answers: ``A~_g = sum_j w_j * A_{g, p_j}``. In matrix form
that is a single contraction — lower the selection ``S = {(p_j, w_j)}``
to a weight vector ``w`` over partitions and contract it with the dense
answer block ``T`` of shape ``(partitions, groups, components)``::

    combined[g, c] = sum_p w[p] * T[p, g, c]        # the paper's sum_j

followed by a vectorized finalize (AVG = elementwise SUM/COUNT with
zero-guarded division; SUM/COUNT pass through) across all groups at
once. :class:`BlockEstimator` implements that contraction over a
:class:`~repro.engine.batch_executor.QueryAnswerBlock` for a whole
*grid* of candidate selections at once — the shape of every offline
consumer (the LSS stratum sweep, the feature-selection evaluator, the
bench runner's budget sweeps): many selections, one exact answer. One
selection is a grid of one. The online answer path keeps the dict walk
of ``engine/combiner.py``, which is also the oracle the tests hold this
module to, report for report, bit for bit.

Lowering: compacted segments, not the dense grid
------------------------------------------------
``T`` is extremely sparse in exactly the hot cases — under a sorted
layout each partition holds a handful of a high-cardinality group-by's
groups — so the contraction is evaluated in the block's *compacted*
coordinates: the selected partitions' live ``(group, totals)`` runs are
gathered (``cuts`` range concatenation), scaled by their selection
weights, and reduced with one ``np.bincount`` per component over the
fused ids ``candidate * num_groups + group``. That is the same
``sum_p w[p] * T[p, g, c]``, but the work is proportional to the
occupied segments of the *selected* partitions — the quantity the dict
walk touches — rather than ``partitions x groups``.

Bit-compatibility with the dict walk
------------------------------------
The dict walk accumulates ``w_j * A_{g, p_j}`` sequentially in selection
order, so a BLAS matmul — which reassociates the float additions — would
drift at the last bit. ``np.bincount`` adds its weights in input order,
and the gathered segments are ordered (candidate, selection position,
group code) — exactly the order the dict walk visits each candidate
(each partition's dict iterates in ascending group-code order), so every
(candidate, group) total is the identical left-to-right float64 chain.
Starting the chain from bincount's ``+0.0`` accumulator leaves every
IEEE-754 sum unchanged (the only divergence is the sign of an
all-``-0.0`` total — invisible to ``==`` and to every error metric).
Presence is tracked per group, because a zero total is ambiguous between
"no rows" and "rows summing to zero" and the dict path only carries
present groups.

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
from repro.engine.combiner import FinalAnswer, WeightedChoice
from repro.obs import trace_span


def lower_grid(
    selections: list[list[WeightedChoice]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All candidates' ``(parts, weights)`` fused, plus candidate cuts.

    ``parts``/``weights`` concatenate every candidate's selection in
    candidate-major order; ``cand_cuts[k] : cand_cuts[k + 1]`` bounds
    candidate ``k``'s run.
    """
    counts = np.fromiter(
        (len(s) for s in selections), dtype=np.intp, count=len(selections)
    )
    total = int(counts.sum())
    parts = np.empty(total, dtype=np.intp)
    weights = np.empty(total, dtype=np.float64)
    i = 0
    for selection in selections:
        for choice in selection:
            parts[i] = choice.partition
            weights[i] = choice.weight
            i += 1
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
        num_groups, num_components = block.num_groups, block.num_components
        combined = np.zeros((num_candidates, num_groups, num_components))
        present = np.zeros((num_candidates, num_groups), dtype=bool)
        if parts.size == 0 or num_groups == 0:
            return combined, present
        # Concatenate the selected partitions' segment runs, candidate-
        # major, in selection order (the dict walk's visiting order).
        lo = block.cuts[parts]
        lens = block.cuts[parts + 1] - lo
        total = int(lens.sum())
        if total == 0:
            return combined, present
        starts = np.cumsum(lens) - lens
        seq = (
            np.arange(total, dtype=np.intp)
            - np.repeat(starts, lens)
            + np.repeat(lo, lens)
        )
        gids = block.live_groups[seq]
        values = block.totals[seq] * np.repeat(weights, lens)[:, None]
        # Segment count of each candidate: its selections' run lengths.
        seg_bounds = np.concatenate(([0], np.cumsum(lens, dtype=np.intp)))
        seg_counts = seg_bounds[cand_cuts[1:]] - seg_bounds[cand_cuts[:-1]]
        cand_ids = np.repeat(
            np.arange(num_candidates, dtype=np.intp), seg_counts
        )
        ids = cand_ids * num_groups + gids
        flat = combined.reshape(-1, num_components)
        for c in range(num_components):
            flat[:, c] = np.bincount(
                ids, weights=values[:, c], minlength=flat.shape[0]
            )
        present.reshape(-1)[ids] = True
        return combined, present

    def _finalize(self, combined: np.ndarray) -> np.ndarray:
        """``(candidates, groups, aggregates)`` values: each aggregate's
        ``finalize_block`` is elementwise over the whole plane."""
        query = self.block.query
        values = np.empty(
            combined.shape[:2] + (len(query.aggregates),), dtype=np.float64
        )
        for i, (agg, slots) in enumerate(
            zip(query.aggregates, query.component_index)
        ):
            values[..., i] = agg.finalize_block(
                [combined[..., s] for s in slots]
            )
        return values

    # -- grids of selections -------------------------------------------------

    def combine_grid(
        self, selections: list[list[WeightedChoice]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Weighted component totals for a whole candidate grid.

        Row ``k`` matches ``combiner.combine_answers`` on
        ``selections[k]`` bit for bit (see the module docstring for the
        summation-order argument).
        """
        return self._combine(*lower_grid(selections))

    def estimate_grid(
        self, selections: list[list[WeightedChoice]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Finalized ``(candidates, groups, aggregates)`` values and
        ``(candidates, groups)`` presence for a whole candidate grid."""
        combined, present = self.combine_grid(selections)
        return self._finalize(combined), present

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
            self._truth = (self._finalize(combined)[0], present[0])
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
