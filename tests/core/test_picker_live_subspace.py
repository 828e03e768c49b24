"""The picker clusters in the query's live subspace: differential and
robustness tests for that step.

The reference is composed here, not kept in ``src``: every
``cluster_sample`` call a pick makes is repeated on the same block
scattered back into the full feature width (dead columns zero, live
columns at their true positions) — what the picker clustered before it
gathered the live columns. Memberships and weights must be identical;
exemplars too, except where the tie rule of
:mod:`repro.core.cluster_sampler` says the choice was a tie, and any
other difference is printed with its distance gap.

Every recorded call is also held to the budget-use contract of a pick
(``spends_its_budget``): the weights sum to the passing count, and a
group that clusters yields ``min(group budget, distinct rows)``
exemplars, so a k-means fit that leaves a cluster empty, and reads fewer
partitions than it was given, fails here; duplicate-heavy synthetic
blocks are held to it too (``TestBudgetUseOnDuplicateHeavyBlocks``).
"""

import numpy as np
import pytest

import repro.core.cluster_sampler as sampler_module
import repro.core.picker as picker_module
from repro.api import PS3
from repro.core.cluster_sampler import TIE_RTOL, cluster_sample
from repro.core.picker import PickerConfig, PS3Picker
from repro.datasets.registry import get_dataset
from repro.engine.layout import partition_evenly
from repro.engine.table import Table
from repro.workload.generator import QueryGenerator


@pytest.fixture(scope="module")
def kdd_system():
    dataset = get_dataset("kdd")
    ptable = dataset.build(4_800, 48, seed=5)
    generator = QueryGenerator(dataset.workload(), ptable.table, seed=5)
    train, test = generator.train_test_split(12, 320)
    return PS3(ptable, dataset.workload()).fit(train), test


@pytest.fixture(scope="module")
def tpch_system(trained_ps3, tpch_ptable, tpch_workload):
    generator = QueryGenerator(tpch_workload, tpch_ptable.table, seed=23)
    return trained_ps3, generator.sample_queries(240)


def labelled(monkeypatch, *args, **kwargs):
    """``cluster_sample(...)`` and the cluster labels it formed."""
    seen = []
    original = sampler_module._cluster_labels

    def recording(*inner):
        seen.append(original(*inner))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(sampler_module, "_cluster_labels", recording)
        selection = cluster_sample(*args, **kwargs)
    return selection, seen[0] if seen else None


def median_distance(block, members, partition):
    """``partition``'s distance to the element-wise median of its cluster."""
    cluster = block[members]
    gap = block[partition] - np.median(cluster, axis=0)
    return float(np.sqrt(gap @ gap))


def distinct_rows(block: np.ndarray, members: np.ndarray) -> int:
    """Distinct feature rows among ``members``, non-finite entries as
    ``cluster_sample`` clusters them (as ``0.0``)."""
    sub = block[members]
    return np.unique(np.where(np.isfinite(sub), sub, 0.0), axis=0).shape[0]


def spends_its_budget(block, members, budget, chosen) -> bool:
    """Asserts the budget-use contract of one group; whether it clustered."""
    partitions = [c.partition for c in chosen]
    assert len(set(partitions)) == len(partitions)
    assert set(partitions) <= set(members.tolist())
    assert sum(c.weight for c in chosen) == members.size
    if budget >= members.size:
        assert len(chosen) == members.size
        return False
    assert len(chosen) == min(budget, distinct_rows(block, members))
    return True


def compare_picks(system, queries, budgets, monkeypatch):
    """Counts of (cluster_sample calls, clusters, exemplars that differ on
    a tie); raises on any other difference."""
    picker = PS3Picker(system.model, PickerConfig(seed=2))
    builder = system.model.feature_builder
    dimension = builder.schema.dimension
    calls = []
    original = picker_module.cluster_sample

    def recording(matrix, members, budget, **kwargs):
        calls.append((matrix, np.array(members), budget, kwargs))
        return original(matrix, members, budget, **kwargs)

    monkeypatch.setattr(picker_module, "cluster_sample", recording)
    compared = clusters = ties = 0
    problems = []
    for query in queries:
        features = builder.features_for_query(query)
        live, passing = features.live_columns, features.passing_partitions().size
        for budget in budgets:
            del calls[:]
            picked = picker.select(query, budget).selection
            assert sum(c.weight for c in picked) == passing
            for block, members, group_budget, kwargs in calls:
                assert block.shape[1] == live.size < dimension
                padded = np.zeros((block.shape[0], dimension))
                padded[:, live] = block
                narrow, labels = labelled(
                    monkeypatch, block, members, group_budget, **kwargs
                )
                wide, wide_labels = labelled(
                    monkeypatch, padded, members, group_budget, **kwargs
                )
                spends_its_budget(block, members, group_budget, narrow)
                compared += 1
                clusters += len(narrow)
                if labels is not None and not np.array_equal(labels, wide_labels):
                    problems.append(f"memberships differ: {query.label()}")
                    continue
                if [c.weight for c in narrow] != [c.weight for c in wide]:
                    problems.append(f"weights differ: {query.label()}")
                    continue
                for cluster_id, (a, b) in enumerate(zip(narrow, wide)):
                    if a.partition == b.partition:
                        continue
                    cluster = members[labels == cluster_id]
                    near = median_distance(block, cluster, a.partition)
                    far = median_distance(block, cluster, b.partition)
                    if abs(near - far) <= TIE_RTOL * min(near, far):
                        ties += 1
                    else:
                        problems.append(
                            f"exemplar {a.partition} (distance {near!r}) vs "
                            f"{b.partition} ({far!r}), gap {abs(near - far)!r}, "
                            f"cluster of {cluster.size}: {query.label()}"
                        )
    print("\n".join(problems))
    assert problems == []
    return compared, clusters, ties


class TestLiveBlockAgainstFullWidth:
    def test_kdd_picks(self, kdd_system, monkeypatch):
        system, queries = kdd_system
        compared, clusters, __ = compare_picks(system, queries, (2, 5, 14), monkeypatch)
        assert compared >= 400 and clusters >= 1000

    def test_tpch_picks(self, tpch_system, monkeypatch):
        system, queries = tpch_system
        compared, clusters, __ = compare_picks(system, queries, (3, 6, 10), monkeypatch)
        assert compared >= 300 and clusters >= 800

    def test_the_corpus_is_as_large_as_it_says(self, kdd_system, tpch_system):
        assert len(kdd_system[1]) + len(tpch_system[1]) >= 500
        assert len(set(kdd_system[1])) + len(set(tpch_system[1])) >= 400


def fan(rng, width):
    """A duplicate-heavy block whose rows tie in projection: a few equal
    far rows set the KMeans seed direction along column 0, and the other
    rows, drawn with repetition from a few spokes and mirrored, differ
    only across it. Returns the block and the far rows' positions."""
    spokes = rng.normal(0.0, 1.0, (int(rng.integers(2, 9)), width))
    spokes[:, 0] = 0.0
    drawn = spokes[rng.integers(spokes.shape[0], size=int(rng.integers(4, 50)))]
    far = np.zeros((int(rng.integers(2, 6)), width))
    far[:, 0] = 40.0
    rows = np.vstack([drawn, -drawn, far])
    order = rng.permutation(rows.shape[0])
    return rows[order], np.flatnonzero(order >= 2 * drawn.shape[0])


class TestBudgetUseOnDuplicateHeavyBlocks:
    """The picker's default, KMeans (ward HAC merges down to exactly the
    budget and may split equal rows)."""

    @pytest.mark.parametrize("seed", range(16))
    def test_every_exemplar_is_spent(self, seed):
        rng = np.random.default_rng(seed)
        rows, far = fan(rng, int(rng.integers(2, 9)))
        block = np.zeros((rows.shape[0] + 5, rows.shape[1]))
        candidates = rng.permutation(block.shape[0])[: rows.shape[0]]
        block[candidates] = rows
        block[candidates[far[:2]], -1] = np.nan  # clusters as 0.0, as they are
        clustered = 0
        for budget in (2, 3, 5, 8, 13, 21, rows.shape[0] - 1):
            chosen = cluster_sample(block, candidates, budget)
            clustered += spends_its_budget(block, candidates, budget, chosen)
        assert clustered >= 6


class TestNonFiniteStatistics:
    """One NaN in a numeric column gives that partition NaN / inf measure
    features; every pick that clustered on the column died in k-means++
    seeding with an untyped ``ValueError: Probabilities contain NaN``."""

    @pytest.fixture(scope="class")
    def poisoned(self):
        dataset = get_dataset("kdd")
        clean = dataset.build(1_200, 24, seed=9).table
        columns = dict(clean.columns)
        columns["duration"] = columns["duration"].copy()
        columns["duration"][3] = np.nan
        ptable = partition_evenly(Table(clean.schema, columns), 24)
        generator = QueryGenerator(dataset.workload(), clean, seed=9)
        train, test = generator.train_test_split(10, 250)
        on_duration = [q for q in test if "duration" in q.columns()]
        assert len(on_duration) >= 20
        return PS3(ptable, dataset.workload()).fit(train), on_duration

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_picks_succeed_and_account_for_every_passing_partition(self, poisoned):
        system, queries = poisoned
        builder = system.model.feature_builder
        clustered = 0
        for query in queries:
            features = builder.features_for_query(query)
            passing = features.passing_partitions().size
            for budget in (2, 4, 7):
                answer = system.query(query, budget_partitions=budget)
                chosen = answer.selection.selection
                assert len(chosen) <= budget
                assert sum(c.weight for c in chosen) == pytest.approx(passing)
                clustered += answer.selection.used_clustering and budget < passing
        assert clustered >= 30

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_budget_that_covers_the_passing_partitions_is_exact(self, poisoned):
        system, queries = poisoned
        for query in queries[:40]:
            answer = system.query(query, budget_fraction=1.0)
            exact = system.execute_exact(query)
            assert answer.groups.keys() == exact.keys()
            for key, values in exact.items():  # summation order may differ
                np.testing.assert_allclose(answer.groups[key], values, rtol=1e-9)
