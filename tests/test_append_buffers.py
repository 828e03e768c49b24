"""Appends grow buffer-held state in place, and growing equals building.

Every structure an append extends — the table's columns, the columnar
index's row arrays and histogram probe rows, the feature builder's
static block, the picker's normalized copy of it, the fused view's row
ids and dictionary codes — is a prefix view of buffers with spare rows
(:mod:`repro.rowbuffers`). Pinned here, for each of them:

* a second append writes into the first one's spare (the arrays share
  memory), while the first append, onto arrays no buffer holds, copies;
* two appends onto one generation fork: each lands exactly its own rows,
  as a fresh build of its own table would, and neither sees the other's;
* what a query read before an append reads the same after it;
* after appends that regrow every buffer — a wider histogram, a new
  category and a NaN / ``-0.0`` column among them — every index array,
  probe field, static and normalized row, view id and code, row count,
  size and running heavy hitter equals a fresh build over the same
  partitions.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from sketch_oracle import assert_entries_identical, assert_indexes_identical

from repro.api import PS3, answer_with_selection
from repro.core.picker import PS3Picker
from repro.datasets.registry import get_dataset
from repro.engine.batch_executor import FusedTableView, fused_view
from repro.sketches.builder import build_dataset_statistics
from repro.sketches.columnar import ColumnarSketchIndex, ColumnIndex
from repro.stats.features import FeatureBuilder
from repro.workload import QueryGenerator

ROWS = 300
BUDGET = 3
#: Columns a query encodes in the fused view (group-by and IN columns).
ENCODED = ("service", "flag", "protocol_type")


@pytest.fixture
def system():
    """A fitted kdd system on 8 partitions and queries over it."""
    dataset = get_dataset("kdd")
    ptable = dataset.build(8 * ROWS, 8, seed=21)
    workload = dataset.workload()
    generator = QueryGenerator(workload, ptable.table, seed=5)
    train, test = generator.train_test_split(8, 6)
    return PS3(ptable, workload).fit(train), test


def _rows_like(system, part: int) -> dict:
    """A batch copying one partition: every histogram keeps its width."""
    return dict(system.ptable[part].columns)


def _derive(system, queries, probes: bool = True) -> None:
    """What a generation's first queries derive: picks (the normalized
    block), encodings and, with ``probes``, every column's probe rows."""
    for query in queries:
        system.query(query, BUDGET)
    for name in ENCODED:
        fused_view(system.ptable).encoded(name)
    if probes:
        for column in system.statistics.index.columns.values():
            column.hist.fraction_leq(0.0)


def _row_arrays(system) -> dict:
    """Every buffer-held array of the system's newest generation."""
    out = {"static": system.feature_builder.static_matrix}
    out["normalized"] = system.picker._normalized_static
    view = fused_view(system.ptable)
    out["ids"] = view.partition_ids
    for name in ENCODED:
        out[f"codes.{name}"] = view.encoded(name)[1]
    for name, column in system.statistics.index.columns.items():
        for key in ColumnIndex.ROW_FIELDS:
            out[f"{name}.{key}"] = column._field(key)
        probe = column.hist._probe
        for key in ("highs", "cum", "mass", "first", "offsets"):
            out[f"{name}.probe.{key}"] = getattr(probe, key)
    out["num_rows"] = system.statistics.num_rows
    out["sizes"] = system.statistics.sizes
    return out


def _twin(system):
    """A second system on ``system``'s newest generation: the same table,
    index columns, static block, normalized block and probe rows, so
    appending to both forks every buffer-held structure."""
    twin = copy.copy(system)
    stats = copy.copy(system.statistics)
    stats.index = ColumnarSketchIndex(dict(stats.index.columns), stats.num_partitions)
    stats.running_heavy_hitters = copy.deepcopy(stats.running_heavy_hitters)
    builder = copy.copy(system.feature_builder)
    builder.dataset, builder._index = stats, stats.index
    model = copy.copy(system.model)
    model.feature_builder = builder
    picker = copy.copy(system.picker)
    picker.model, picker._memo = model, {}
    twin.statistics, twin.feature_builder, twin.model = stats, builder, model
    twin._picker = picker
    return twin


def assert_matches_a_fresh_build(system) -> None:
    """Everything the appends grew equals a build over the same table."""
    live = system.statistics
    fresh = build_dataset_statistics(system.ptable, live.config)
    fresh.global_heavy_hitters = live.global_heavy_hitters  # frozen at build
    assert_indexes_identical(fresh.index, live.index)
    for name, column in fresh.index.columns.items():
        expected = vars(column.hist._probe)
        actual = vars(live.index.columns[name].hist._probe)
        assert expected.keys() == actual.keys(), name
        for key, value in expected.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == actual[key].dtype, (name, key)
                assert value.tobytes() == actual[key].tobytes(), (name, key)
            elif key == "ends":
                assert value.keys() == actual[key].keys()
                for end, array in value.items():
                    other = actual[key][end]
                    assert (array is None) == (other is None), (name, end)
                    if array is not None:
                        assert array.tobytes() == other.tobytes(), (name, end)
            else:
                assert (value is None) == (actual[key] is None), (name, key)
                if not isinstance(value, np.ndarray) and value is not None:
                    assert value == actual[key], (name, key)
    assert live.num_rows.tobytes() == fresh.num_rows.tobytes()
    assert live.sizes.tobytes() == fresh.sizes.tobytes()
    for name, sketch in fresh.running_heavy_hitters.items():
        assert_entries_identical(sketch, live.running_heavy_hitters[name], name)
    builder = FeatureBuilder(fresh, system.workload.groupby_universe)
    static = system.feature_builder.static_matrix
    assert static.tobytes() == builder.static_matrix.tobytes()
    model = copy.copy(system.model)
    model.feature_builder = builder
    normalized = PS3Picker(model, system.picker_config)._normalized_static
    assert system.picker._normalized_static.tobytes() == normalized.tobytes()
    view, built = fused_view(system.ptable), FusedTableView.build(system.ptable)
    assert view.partition_ids.tobytes() == built.partition_ids.tobytes()
    for name in ENCODED:
        for mine, theirs in zip(view.encoded(name), built.encoded(name)):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestGenerationsKeepTheirRows:
    def test_a_second_append_writes_into_the_first_ones_spare(self, system):
        system, queries = system
        _derive(system, queries)
        before = _row_arrays(system)
        system.append(_rows_like(system, 0))
        _derive(system, queries)
        first = _row_arrays(system)
        # The first append copies: nothing held arrays with spare rows.
        assert not np.shares_memory(first["static"], before["static"])
        system.append(_rows_like(system, 1))
        _derive(system, queries)
        second = _row_arrays(system)
        for key, array in second.items():
            assert np.shares_memory(array, first[key]), key
            assert len(array) > len(first[key]), key

    def test_two_appends_onto_one_generation_fork(self, system):
        system, queries = system
        system.append(_rows_like(system, 0))
        _derive(system, queries)
        twin = _twin(system)
        dataset = get_dataset("kdd")
        left = dict(dataset.generate(ROWS, 31).columns)
        right = dict(dataset.generate(ROWS, 32).columns)
        right["service"] = np.where(
            np.arange(ROWS) % 7 == 0, "twin_only", right["service"]
        )
        system.append(left)
        twin.append(right)
        for each in (system, twin):
            _derive(each, queries)
        ours, theirs = _row_arrays(system), _row_arrays(twin)
        for key, array in ours.items():
            assert not np.shares_memory(array, theirs[key]), key
        assert "twin_only" not in fused_view(system.ptable).encoded("service")[0]
        assert_matches_a_fresh_build(system)
        assert_matches_a_fresh_build(twin)

    def test_what_a_query_read_before_an_append_reads_the_same(self, system):
        system, queries = system
        system.append(_rows_like(system, 0))
        query = next(q for q in queries if q.group_by)
        answer = system.query(query, BUDGET)
        ptable = system.ptable
        features = system.feature_builder.features_for_query(query)
        held = {key: array.copy() for key, array in _row_arrays(system).items()}
        arrays = _row_arrays(system)
        for seed in (41, 42):
            system.append(dict(get_dataset("kdd").generate(ROWS, seed).columns))
            _derive(system, queries)
        for key, array in arrays.items():
            assert array.tobytes() == held[key].tobytes(), key
        matrix = np.zeros_like(features.matrix)
        static = features.live_columns[: -features.selectivity.shape[1]]
        matrix[:, static] = held["static"][:, static]
        matrix[:, system.feature_builder.schema.selectivity_slice()] = (
            features.selectivity
        )
        assert features.matrix.tobytes() == matrix.tobytes()
        again = answer_with_selection(ptable, query, answer.selection.selection)
        assert repr(again) == repr(answer.groups)


class TestAppendingEqualsBuilding:
    def test_after_every_buffer_regrew(self, system):
        """12 appends onto 8 partitions regrow every buffer (spare for 13
        after the first, 21 after the sixth); probe rows are derived on
        two generations of three, so they grow both from the newest
        generation's rows and from an older one's."""
        system, queries = system
        dataset = get_dataset("kdd")
        index = system.statistics.index
        for k in range(12):
            batch = dict(dataset.generate(ROWS, 100 + k).columns)
            if k == 3:  # more distinct values than any held histogram
                batch["urgent"] = np.arange(ROWS, dtype=np.float64)
            if k == 5:  # a category no partition held, wider than the column
                batch["service"] = np.where(
                    np.arange(ROWS) % 3 == 0, "brand_new_service", batch["service"]
                )
            if k == 7:  # sealed alone: NaN and -0.0
                values = batch["serror_rate"].copy()
                values[::5], values[1::5] = np.nan, -0.0
                batch["serror_rate"] = values
            width = index.columns["urgent"].hist.edges.shape[1]
            system.append(batch)
            _derive(system, queries, probes=k % 3 != 1)
            if k == 3:
                assert index.columns["urgent"].hist.edges.shape[1] > width
        assert_matches_a_fresh_build(system)
