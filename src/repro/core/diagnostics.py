"""Error diagnostics: confidence intervals and failure-case detection.

Paper section 7 names two immediate-value gaps: PS3 ships no a-priori
error guarantee and no diagnostic for its known failure cases. This
module provides both, built on the machinery the paper already defines:

* :func:`estimate_with_confidence` — runs the *unbiased* cluster
  estimator (random exemplar, Appendix D.1) and spends a few extra probe
  reads per cluster to estimate within-cluster variance, yielding
  per-group normal-approximation confidence intervals via the stratified
  SRSWoR analysis of Appendix D;
* :func:`diagnose_query` — inspects a query and its feature matrix for
  the documented failure modes (Appendix B.1 / section 4.2): predicates
  too complex for feature-based clustering, highly selective predicates
  that make whole-partition features unrepresentative, and group-by
  columnsets too distinct for any sampling to preserve groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.variance import confidence_interval
from repro.engine.combiner import WeightedChoice
from repro.engine.executor import ComponentAnswer
from repro.engine.query import Query
from repro.errors import ConfigError
from repro.ml.kmeans import KMeans
from repro.stats.features import QueryFeatures


# --------------------------------------------------------------------------
# Confidence intervals for the unbiased cluster estimator
# --------------------------------------------------------------------------


@dataclass
class GroupInterval:
    """Per-aggregate estimates and CIs for one group."""

    estimate: np.ndarray
    variance: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class ConfidentAnswer:
    """An unbiased estimate with per-group confidence intervals.

    ``partitions_read`` counts exemplars plus probes — the CI costs real
    extra I/O, which is why it is opt-in.
    """

    query: Query
    groups: dict[tuple, GroupInterval]
    partitions_read: int
    level: float


def estimate_with_confidence(
    partition_answers: list[ComponentAnswer],
    query: Query,
    features: QueryFeatures,
    normalized: np.ndarray,
    budget: int,
    probes_per_cluster: int = 1,
    level: float = 0.95,
    seed: int = 0,
) -> ConfidentAnswer:
    """Unbiased cluster estimate with confidence intervals.

    Clusters the passing partitions into ``budget`` strata, draws one
    *random* exemplar per cluster (the unbiased estimator of Appendix
    D.1), and reads up to ``probes_per_cluster`` additional random
    members per multi-member cluster to estimate within-cluster variance.
    Component-level variances combine by stratified independence; CIs on
    AVG aggregates use a first-order (delta-method-free, conservative)
    SUM/COUNT interval combination.
    """
    if probes_per_cluster < 1:
        raise ConfigError("probes_per_cluster must be >= 1")
    rng = np.random.default_rng(seed)
    candidates = features.passing_partitions()
    if candidates.size == 0:
        return ConfidentAnswer(query, {}, 0, level)

    budget = min(budget, candidates.size)
    labels = KMeans(n_clusters=budget, seed=seed).fit_predict(
        normalized[candidates]
    )

    selection: list[WeightedChoice] = []
    read: set[int] = set()
    # cluster id -> (size, sampled member answers used for variance)
    cluster_probes: list[tuple[int, list[ComponentAnswer]]] = []
    for cluster_id in np.unique(labels):
        members = candidates[labels == cluster_id]
        exemplar = int(members[rng.integers(members.size)])
        selection.append(WeightedChoice(exemplar, float(members.size)))
        read.add(exemplar)
        probed = [partition_answers[exemplar]]
        others = members[members != exemplar]
        if others.size:
            count = min(probes_per_cluster, others.size)
            extra = rng.choice(others, size=count, replace=False)
            probed.extend(partition_answers[int(p)] for p in extra)
            read.update(int(p) for p in extra)
        cluster_probes.append((int(members.size), probed))

    # Combine in *component* space (SUM/COUNT totals per group) — the
    # slot-indexed CI math below needs components, not finalized
    # aggregates. Starting from ``-0.0`` adds nothing: ``-0.0 + x`` is
    # ``x``, sign included.
    combined: dict[tuple, np.ndarray] = {}
    for choice in selection:
        for key, vec in partition_answers[choice.partition].items():
            combined[key] = combined.get(key, -0.0) + choice.weight * vec

    # Per-group, per-component variance: sum over clusters of
    # s * sum((y - mean)^2) over the probed members (Appendix D.1's
    # stratified SRSWoR term, estimated from the probe sample).
    all_keys = set(combined)
    num_components = query.num_components
    variances = {key: np.zeros(num_components) for key in all_keys}
    for size, probed in cluster_probes:
        if size <= 1 or len(probed) <= 1:
            continue
        for key in all_keys:
            values = np.stack(
                [answer.get(key, np.zeros(num_components)) for answer in probed]
            )
            centered = values - values.mean(axis=0)
            sample_var = np.square(centered).sum(axis=0) / (len(probed) - 1)
            variances[key] += size * (size - 1) * sample_var

    groups: dict[tuple, GroupInterval] = {}
    for key in all_keys:
        agg_estimates = np.empty(len(query.aggregates))
        agg_variances = np.empty(len(query.aggregates))
        lower = np.empty(len(query.aggregates))
        upper = np.empty(len(query.aggregates))
        for i, (agg, slots) in enumerate(
            zip(query.aggregates, query.component_index)
        ):
            components = [combined[key][s] for s in slots]
            agg_estimates[i] = agg.finalize(components)
            if len(slots) == 1:
                variance = float(variances[key][slots[0]])
                agg_variances[i] = variance
                lower[i], upper[i] = confidence_interval(
                    agg_estimates[i], variance, level
                )
            else:
                # AVG = SUM/COUNT: bound by interval arithmetic over the
                # component CIs (conservative).
                sum_lo, sum_hi = confidence_interval(
                    components[0], float(variances[key][slots[0]]), level
                )
                count_lo, count_hi = confidence_interval(
                    components[1], float(variances[key][slots[1]]), level
                )
                count_lo = max(count_lo, 1e-12)
                corners = [
                    sum_lo / count_hi,
                    sum_lo / count_lo,
                    sum_hi / count_hi,
                    sum_hi / count_lo,
                ]
                lower[i], upper[i] = min(corners), max(corners)
                agg_variances[i] = float("nan")
        groups[key] = GroupInterval(agg_estimates, agg_variances, lower, upper)
    return ConfidentAnswer(query, groups, len(read), level)


# --------------------------------------------------------------------------
# Failure-case detection
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticThresholds:
    """Tunable cutoffs for the failure detectors."""

    max_clauses: int = 10  # Appendix B.1 clustering cutoff
    selective_upper: float = 0.01  # whole-partition features unrepresentative
    groups_per_partition: float = 4.0  # group-by too distinct to sample


@dataclass
class QueryDiagnostics:
    """Detected failure modes and the recommended mitigations."""

    complex_predicate: bool = False
    highly_selective: bool = False
    distinct_group_by: bool = False
    estimated_groups: float = 0.0
    max_partition_selectivity: float = 1.0
    recommendations: list[str] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not (
            self.complex_predicate
            or self.highly_selective
            or self.distinct_group_by
        )


def diagnose_query(
    query: Query,
    features: QueryFeatures,
    thresholds: DiagnosticThresholds | None = None,
) -> QueryDiagnostics:
    """Check a query against PS3's documented failure cases.

    Cheap: uses only the already-computed feature matrix (selectivity
    estimates and distinct-value statistics), no data reads.
    """
    thresholds = thresholds or DiagnosticThresholds()
    schema = features.schema
    out = QueryDiagnostics()

    clauses = query.num_predicate_clauses()
    if clauses > thresholds.max_clauses:
        out.complex_predicate = True
        out.recommendations.append(
            f"predicate has {clauses} clauses (> {thresholds.max_clauses}): "
            "clustering falls back to uniform sampling; expect weaker gains"
        )

    upper = features.selectivity_upper
    passing = upper[upper > 0.0]
    out.max_partition_selectivity = float(passing.max()) if passing.size else 0.0
    if passing.size and out.max_partition_selectivity < thresholds.selective_upper:
        out.highly_selective = True
        out.recommendations.append(
            "predicate matches a tiny fraction of every partition: "
            "whole-partition features are unrepresentative; consider a "
            "larger budget or exact execution"
        )

    if query.group_by:
        # Upper-bound distinct groups by the product of the per-column
        # maximum distinct-value estimates across partitions.
        estimated = 1.0
        for column in query.group_by:
            if column not in schema.stat_offsets:
                continue
            block = schema.stat_slice(column)
            dv_column = features.matrix[:, block.start + 9]  # dv_count slot
            estimated *= max(float(dv_column.max()), 1.0)
        out.estimated_groups = estimated
        limit = thresholds.groups_per_partition * features.num_partitions
        if estimated > limit:
            out.distinct_group_by = True
            out.recommendations.append(
                f"group-by may produce ~{estimated:.0f} groups across "
                f"{features.num_partitions} partitions: sampling will miss "
                "groups; narrow the group-by or read everything"
            )
    return out
