"""Structural pins that would otherwise only fail in slower jobs.

* No public callable of the query-answering planes takes a ``batched``
  parameter: there is one way to answer a selection, so there is nothing
  for such a flag to choose between (PR 15 removed four of them).
* Nor does any callable of ``repro.engine`` take an ``encoded=`` /
  ``dictionary=`` style switch: execution on dictionary codes replaced
  the string path (PR 17), it did not fork it, so there is no mode to
  select.
* Nor does any callable of ``repro.core`` / ``repro.stats`` / ``repro.ml``
  take a ``live_only=`` / ``full_width=`` style switch: the picker
  normalizes and clusters the query's live columns and nothing else
  (PR 18); ``Normalizer.transform(matrix, live=...)`` takes the mask as
  data, and the full-width computation exists only as a composition
  inside the differential tests.
* No callable of ``repro.sketches.builder`` takes a ``vectorized``
  parameter, and ``_Entry`` / ``from_distinct_counts`` /
  ``_heavy_hitter_for_segment`` no longer resolve: partitions are sealed
  by one segmented lossy-counting kernel on arrays (PR 20), which
  replaced the scalar plane, the single-block fast path and the
  per-value entry objects instead of sitting beside them. The scalar
  reference is a composition inside the differential tests.
* No callable of ``repro.ml`` / ``repro.core.training`` takes a
  ``levelwise=`` / ``histogram=`` / ``per_node=`` / ``prebinned=`` style
  switch, and ``repro.ml.tree`` no longer resolves ``_best_split`` /
  ``_NodeTask``: trees grow level by level over codes binned once
  (PR 21), which replaced the per-node split search instead of sitting
  beside it. The per-node builder is ``tests/ml/per_node_reference.py``.
  ``ml/tree.py`` + ``ml/gbrt.py`` stay within the 540 lines they had
  before it.
* No callable of ``repro.engine`` / ``repro.core`` / ``repro.stats`` /
  ``repro.baselines`` takes a ``vectorized`` / ``estimation_path`` /
  ``path`` mode parameter, ``repro.engine.workload_executor`` no longer
  imports, and ``WorkloadExecutor`` / ``AnswerMatrix`` /
  ``LazyPartitionAnswers`` / ``selection_scorer`` /
  ``evaluate_errors_block`` are gone: ``BatchExecutor.partition_answers``
  is the one producer of per-partition answers and its array block the
  one form (PR 22), scored by one grid contraction. The dict oracle and
  the scalar featurizer are compositions inside the tests
  (``tests/conftest.py``). File-system ``path`` arguments live in
  ``repro.storage``, which is not in scope.
* No callable of ``repro.storage`` takes ``mmap`` / ``mapped`` and
  ``repro.storage.atomic`` no longer resolves ``mmap_with_retry``; no
  callable of ``repro.sketches`` / ``repro.api`` / ``repro.bench`` takes
  ``n_jobs`` / ``sketch_n_jobs`` and ``REPRO_SKETCH_N_JOBS`` appears
  nowhere under ``src/``; ``find_outliers`` has no default for ``index``
  (PR 23): a bundle loads one way, partitions seal in the calling
  process, outliers group by the index's signature codes. Each was a
  selector between two paths with identical output whose other side no
  production caller took.
* ``PS3Picker.__init__`` takes no ``dataset``; ``repro.cli`` imports none
  of ``PS3Picker`` / ``answer_selections`` / ``true_answer`` /
  ``replay_batch_into_statistics``; ``repro.storage.wal`` imports none of
  ``build_partition_statistics`` / ``Table`` / ``PartitionedTable``;
  ``FeatureBuilder`` has no ``_tail``; ``PS3.__init__`` takes no
  ``statistics`` / ``index`` / ``model`` (PR 24): a batch is validated by
  ``validate_batch`` and sealed by ``seal_appended_columns`` wherever it
  comes from, persisted state becomes a system through ``PS3.open`` and
  nowhere else, and the CLI is one more caller of ``PS3.query``.
* ``save_statistics``, ``StatisticsStore.checkpoint`` and
  ``PS3.checkpoint`` take no ``index`` (nor ``plan_cache_keys``, which
  nothing read), ``StatisticsBundle`` holds the statistics and the
  journal stamp only, and ``load_statistics_bundle`` takes a path and
  the fault seam: a v4 bundle stores the statistics once, as the
  columnar index arrays queries read, and loads one way. A v1 / v2
  bundle is refused with a typed error.
* One statistics representation: no module under ``src/repro``
  defines or imports ``ColumnStatistics`` / ``PartitionStatistics`` or
  calls a sketch's ``to_bytes``; ``ColumnIndex.build``,
  ``column_stat_vector``, ``HistogramArrays.build`` and
  ``ColumnarSketchIndex.build`` / ``.extend`` are gone (the seal writes
  the index rows); ``from_bytes`` is called only by the v3 upgrade, on
  heavy-hitter payloads. The object layer and the transposition are
  ``tests/sketch_oracle.py``.
* ``PS3Picker.__init__``, ``PS3Picker.select`` and ``PickerConfig`` take
  no parameter naming a memo or a cache: pure picks are memoized per
  statistics generation always, under a constant bound.
* No ``ServingConfig`` field names a hold, a window or a wait: the
  serving worker answers the request it dequeues and never waits for
  another, so there is no timer to set.
* The serving worker has no batch: ``ServingFrontEnd`` has no
  ``_admit`` drain loop, ``ServingStats`` no ``note_batch``,
  ``largest_batch`` or ``batched_queries``, and the test tree's
  ``ServingFaults`` no ``on_batch``. One request per loop iteration is
  answered through ``PS3.query``.
* ``repro.engine.executor``, ``repro.core.diagnostics`` and
  ``repro.obs.profiling`` no longer import, ``CombinedAnswer`` has no
  ``of``, and ``repro.engine`` / ``repro.core`` / ``repro.obs`` export
  none of what they held: ``PS3.execute_exact`` is the weight-1 case of
  the path every answer takes (``BatchExecutor.partition_answers`` →
  ``combine_answers`` → ``finalize_answer``), so ``src/`` has one
  executor and one section 2.4 kernel. The scalar executor and the dict
  contribution walk are ``tests/scalar_oracle.py``, and no module under
  ``src/repro`` imports from the tests.
* No ``ServingConfig`` field names a retry or a backoff, ``ServingStats``
  counts no ``sweep_retries``, the test tree's ``ServingFaults`` has no
  ``on_sweep`` and ``repro.engine.serving`` keeps no transient errno set:
  execution runs on in-memory arrays, so its one real error is a
  deterministic ``ExecutionError``, which fails its own request and no
  other. ``repro.engine.faults`` no longer imports (the serving fault
  plane is ``tests/serving_faults.py``).
* A setting nothing outside the tests sets is a constant, not a field:
  ``ServingConfig`` keeps its one capacity setting, the queue bound (no
  degrade controller, no config-default deadline, no batch size),
  ``PickerConfig`` has no outlier share or
  clause limit, ``TrainingConfig`` no label scale, ``ApproximateAnswer``
  no ``degraded``, and no bundle writer takes ``plan_cache_keys``, which
  a bundle written by an older tree may still carry and which loads
  ignore.
* Serving runs on the standard library's one-thread executor:
  ``ServingFrontEnd`` has no ``_supervise`` / ``_run`` / ``_drain_queue``,
  ``repro.engine.serving`` no ``_SHUTDOWN`` sentinel and no
  ``MAX_WORKER_RESTARTS``, and ``ServingStats`` counts no
  ``worker_restarts``: an answer that raises fails its own future and
  the worker keeps serving, so there is nothing to restart.
* Every ``(module, attribute path)`` the benchmark's tracer patches
  (``TRACED`` in ``benchmarks/e2e/layers.py``, read here, never edited)
  resolves the way the tracer resolves it. A rename would otherwise show
  up only as ``obs.trace_missing`` in the ~20 s self-check job.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
import repro.baselines
import repro.bench
import repro.core
import repro.engine
import repro.ml
import repro.obs
import repro.sketches
import repro.stats
import repro.storage

LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def _modules_of(*packages):
    return [
        info.name
        for package in packages
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
    ]


PLANES = ["repro.api", "repro.core.training"] + _modules_of(repro.engine)


def _public_callables(module):
    """Functions, and methods of classes, defined in ``module``."""
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(member):
            yield name, member
        elif inspect.isclass(member):
            for attr, value in vars(member).items():
                value = getattr(value, "__func__", value)  # static/classmethod
                if inspect.isfunction(value) and (
                    not attr.startswith("_") or attr == "__init__"
                ):
                    yield f"{name}.{attr}", value


def _takers(module_name, banned):
    """Public callables of the module that take a parameter in ``banned``."""
    module = importlib.import_module(module_name)
    return [
        f"{module_name}.{name}({', '.join(sorted(modes))})"
        for name, fn in _public_callables(module)
        if (modes := banned & set(inspect.signature(fn).parameters))
    ]


@pytest.mark.parametrize("module_name", PLANES)
def test_no_callable_takes_batched(module_name):
    assert _takers(module_name, {"batched"}) == []


#: Spellings a "run on codes or on strings" switch would plausibly take.
ENCODING_MODES = {
    "encoded",
    "encode",
    "dictionary",
    "dictionaries",
    "use_dictionary",
    "use_codes",
    "on_codes",
}


@pytest.mark.parametrize(
    "module_name", [name for name in PLANES if name.startswith("repro.engine.")]
)
def test_no_engine_callable_takes_an_encoding_mode(module_name):
    assert _takers(module_name, ENCODING_MODES) == []


#: Spellings a "cluster the live columns or all of them" switch would take.
SUBSPACE_MODES = {
    "live_only",
    "use_live",
    "subspace",
    "use_subspace",
    "live_subspace",
    "full_width",
    "fullwidth",
    "narrow",
    "padded",
}

PICKER_PLANES = _modules_of(repro.core, repro.stats, repro.ml)


@pytest.mark.parametrize("module_name", PICKER_PLANES)
def test_no_picker_callable_takes_a_subspace_mode(module_name):
    assert _takers(module_name, SUBSPACE_MODES) == []


def test_sketch_builder_has_one_plane():
    assert _takers("repro.sketches.builder", {"vectorized", "batched"}) == []
    import repro.sketches.builder as builder
    import repro.sketches.heavy_hitter as heavy_hitter

    # The guard is only a guard if the walk reaches the entry point.
    assert "build_dataset_statistics" in dict(_public_callables(builder))
    assert not hasattr(heavy_hitter, "_Entry")
    assert not hasattr(heavy_hitter.HeavyHitterSketch, "from_distinct_counts")
    assert not hasattr(builder, "_heavy_hitter_for_segment")
    assert not hasattr(builder, "_lossy_counting_width")


#: Spellings a "level-wise or per-node split search" switch would take.
TREE_MODES = {
    "levelwise",
    "level_wise",
    "histogram",
    "per_node",
    "pernode",
    "prebinned",
    "pre_binned",
}
ML_SOURCES = Path(repro.ml.__file__).resolve().parent


@pytest.mark.parametrize(
    "module_name",
    ["repro.core.training"] + [n for n in PICKER_PLANES if n.startswith("repro.ml.")],
)
def test_no_training_callable_takes_a_tree_mode(module_name):
    assert _takers(module_name, TREE_MODES) == []


def test_tree_builder_has_one_split_search():
    import repro.ml.gbrt as gbrt
    import repro.ml.tree as tree

    # The guard is only a guard if the walk reaches the entry points.
    assert "TreeBuilder.build" in dict(_public_callables(tree))
    assert {"GBRTRegressor.fit", "GBRTRegressor.fit_binned", "bin_features"} <= set(
        dict(_public_callables(gbrt))
    )
    assert not hasattr(tree, "_NodeTask")
    assert not hasattr(tree, "_best_split")
    assert not hasattr(tree.TreeBuilder, "_best_split")
    lines = sum(
        len((ML_SOURCES / name).read_text().splitlines())
        for name in ("tree.py", "gbrt.py")
    )
    assert lines <= 540, lines


#: The switches PR 22 removed: which featurizer, which estimation plane.
ANSWER_MODES = {"vectorized", "estimation_path", "path"}
ANSWER_PLANES = _modules_of(
    repro.engine, repro.core, repro.stats, repro.baselines
)


@pytest.mark.parametrize("module_name", ANSWER_PLANES)
def test_no_callable_takes_an_answer_path_mode(module_name):
    assert _takers(module_name, ANSWER_MODES) == []


def test_one_executor_one_answer_form():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.engine.workload_executor")
    import repro.core.metrics as metrics
    import repro.engine.batch_executor as batch_executor
    import repro.engine.block_estimator as block_estimator

    for module in (repro.engine, batch_executor, block_estimator, metrics):
        for name in (
            "WorkloadExecutor",
            "AnswerMatrix",
            "LazyPartitionAnswers",
            "selection_scorer",
            "evaluate_errors_block",
        ):
            assert not hasattr(module, name), (module.__name__, name)
    # The guard is only a guard if the walk reaches the entry points the
    # switches sat on.
    seen = {
        f"{module_name}.{name}"
        for module_name in ANSWER_PLANES
        for name, __ in _public_callables(importlib.import_module(module_name))
    }
    assert {
        "repro.stats.features.FeatureBuilder.__init__",
        "repro.stats.features.FeatureBuilder.features_for_query",
        "repro.stats.plan.PlanCache.__init__",
        # Dataclass fields are ``__init__`` parameters (``estimation_path``).
        "repro.baselines.lss.LSSSampler.__init__",
        "repro.core.feature_selection.ClusteringErrorEvaluator.__init__",
        "repro.engine.block_estimator.BlockEstimator.score_grid",
        "repro.engine.batch_executor.BatchExecutor.partition_answers",
    } <= seen
    from repro.stats.plan import PlanCache

    assert set(inspect.signature(PlanCache).parameters) == {"limit"}


STORAGE_MODULES = _modules_of(repro.storage)
SEAL_MODULES = ["repro.api"] + _modules_of(repro.sketches, repro.bench)


@pytest.mark.parametrize("module_name", STORAGE_MODULES)
def test_no_storage_callable_takes_a_load_mode(module_name):
    assert _takers(module_name, {"mmap", "mapped"}) == []


@pytest.mark.parametrize("module_name", SEAL_MODULES)
def test_no_callable_takes_a_seal_schedule(module_name):
    assert _takers(module_name, {"n_jobs", "sketch_n_jobs"}) == []


def test_one_bundle_load_one_seal_schedule_one_outlier_grouping():
    import repro.storage.atomic as atomic
    from repro.core.outliers import find_outliers

    assert not hasattr(atomic, "mmap_with_retry")
    assert not hasattr(atomic.FileIO, "mmap_bytes")
    sources = Path(repro.__file__).resolve().parent
    assert [
        str(path)
        for path in sorted(sources.rglob("*.py"))
        if "REPRO_SKETCH_N_JOBS" in path.read_text()
    ] == []
    index = inspect.signature(find_outliers).parameters["index"]
    assert index.default is inspect.Parameter.empty
    # Each ban is only a guard if its walk reaches the callables that
    # used to take the parameter.
    seen = {
        f"{module_name}.{name}"
        for module_name in STORAGE_MODULES + SEAL_MODULES
        for name, __ in _public_callables(importlib.import_module(module_name))
    }
    assert {
        "repro.storage.stats_io.load_statistics_bundle",
        "repro.storage.atomic.read_with_retry",
        "repro.storage.faults.FaultyIO.read_bytes",
        "repro.sketches.builder.build_dataset_statistics",
        "repro.api.PS3.__init__",
        # Dataclass fields are ``__init__`` parameters (``sketch_n_jobs``).
        "repro.bench.profiles.BenchProfile.__init__",
        "repro.bench.runner.ExperimentContext.build",
    } <= seen


def test_one_append_plane_one_way_back_from_disk():
    import repro.api as api
    import repro.cli as cli
    import repro.storage.wal as wal
    from repro.core.picker import PS3Picker
    from repro.stats.features import FeatureBuilder

    assert set(inspect.signature(PS3Picker).parameters) == {"model", "config"}
    for name in (
        "PS3Picker",
        "answer_selections",
        "true_answer",
        "replay_batch_into_statistics",
    ):
        assert not hasattr(cli, name), name
    for name in ("build_partition_statistics", "Table", "PartitionedTable"):
        assert not hasattr(wal, name), name
    assert "_tail" not in inspect.getsource(FeatureBuilder)
    assert not {"statistics", "index", "model"} & set(
        inspect.signature(api.PS3).parameters
    )
    # Each ban is only a guard if the walk reaches the callables it is
    # about, and the single implementations are where the doc says.
    seen = {
        f"{module_name}.{name}"
        for module_name in (
            "repro.api",
            "repro.core.picker",
            "repro.engine.layout",
            "repro.sketches.builder",
            "repro.storage.wal",
        )
        for name, __ in _public_callables(importlib.import_module(module_name))
    }
    assert {
        "repro.api.PS3.__init__",
        "repro.api.PS3.open",
        "repro.api.PS3.append",
        "repro.core.picker.PS3Picker.__init__",
        "repro.engine.layout.validate_batch",
        "repro.sketches.builder.seal_appended_columns",
        "repro.sketches.builder.append_partition_statistics",
        "repro.storage.wal.replay_batch_into_statistics",
        "repro.storage.wal.StatisticsStore.load_statistics",
    } <= seen


def test_pick_memo_has_no_switch():
    from repro.core.picker import PickerConfig, PS3Picker

    for taker in (PS3Picker.__init__, PS3Picker.select, PickerConfig):
        switches = [
            name
            for name in inspect.signature(taker).parameters
            if "memo" in name or "cache" in name
        ]
        assert switches == [], (taker, switches)


def test_serving_admission_has_no_timer():
    from repro.engine.serving import ServingConfig

    timers = [
        name
        for name in inspect.signature(ServingConfig).parameters
        if "hold" in name or "window" in name or "wait" in name
    ]
    assert timers == []


def test_serving_config_has_no_dedup():
    """A served request picks and executes on its own, as ``query_many``
    would: no knob shares a pick or an execution between batch-mates."""
    from repro.engine.serving import ServingConfig, ServingStats

    names = list(inspect.signature(ServingConfig).parameters)
    names += vars(ServingStats())
    assert [name for name in names if "dedup" in name] == []


def test_serving_sweep_has_no_retry():
    """A served request's execution runs once: an error fails that
    request's future, with no retry, backoff or batch-wide failure."""
    import repro.engine.serving as serving
    from serving_faults import ServingFaults

    names = list(inspect.signature(serving.ServingConfig).parameters)
    assert [name for name in names if "retr" in name or "backoff" in name] == []
    assert "sweep_retries" not in vars(serving.ServingStats())
    assert not hasattr(ServingFaults, "on_sweep")
    assert not hasattr(serving, "_TRANSIENT_ERRNOS")


def test_serving_has_no_batch():
    """The worker answers one request per loop iteration through
    ``PS3.query``: nothing drains the queue into a batch, counts batch
    sizes or hooks a batch start."""
    import repro.engine.serving as serving
    from serving_faults import ServingFaults

    stats = vars(serving.ServingStats())
    assert "queries" in stats  # the guard sees the instruments
    for name in ("largest_batch", "batched_queries"):
        assert name not in stats, name
        assert not hasattr(serving.ServingStats, name), name
    assert not hasattr(serving.ServingFrontEnd, "_admit")
    assert not hasattr(serving.ServingStats, "note_batch")
    assert not hasattr(ServingFaults, "on_batch")


def test_serving_runs_on_the_stdlib_executor():
    """No hand-rolled worker loop, shutdown sentinel or crash
    supervisor beside the executor."""
    import repro.engine.serving as serving

    for name in ("_supervise", "_run", "_drain_queue"):
        assert not hasattr(serving.ServingFrontEnd, name), name
    for name in ("_SHUTDOWN", "MAX_WORKER_RESTARTS"):
        assert not hasattr(serving, name), name
    assert "worker_restarts" not in vars(serving.ServingStats())


def test_one_value_in_use_is_a_constant():
    """Values nothing outside the tests set are constants, not fields."""
    import repro.engine.serving as serving
    from repro.api import ApproximateAnswer
    from repro.core.labels import labels_for_query
    from repro.core.picker import PickerConfig
    from repro.core.training import TrainingConfig
    from repro.storage.stats_io import StatisticsBundle, save_statistics
    from repro.storage.wal import StatisticsStore

    def fields(cls):
        return {field.name for field in dataclasses.fields(cls)}

    assert fields(serving.ServingConfig) == {"max_queue_depth"}
    assert fields(PickerConfig) == {
        "alpha",
        "clustering_algorithm",
        "exemplar",
        "use_clustering",
        "use_outliers",
        "use_regressors",
        "seed",
    }
    assert fields(TrainingConfig) == {
        "num_models",
        "top_fraction",
        "gbrt_trees",
        "gbrt_depth",
        "gbrt_learning_rate",
        "gbrt_colsample",
        "seed",
    }
    assert list(inspect.signature(labels_for_query).parameters) == [
        "contributions",
        "threshold",
    ]
    for name in ("_pressure", "_degraded_budget"):
        assert not hasattr(serving.ServingFrontEnd, name), name
    assert "degraded" not in vars(serving.ServingStats())
    assert "degraded" not in fields(ApproximateAnswer)
    assert "plan_cache_keys" not in fields(StatisticsBundle)
    for writer in (save_statistics, StatisticsStore.checkpoint):
        assert "plan_cache_keys" not in inspect.signature(writer).parameters


def test_one_bundle_load_refuses_v1_and_v2():
    """The frozen v2 fixture (which carries plan keys) and its v1 sibling
    are refused; a bundle loads one way."""
    from repro.errors import UnsupportedBundleError
    from repro.storage import StatisticsBundle, load_statistics_bundle

    fixtures = TESTS / "storage" / "fixtures"
    for name in ("v1.ps3stats", "v2.ps3stats"):
        with pytest.raises(UnsupportedBundleError):
            load_statistics_bundle(fixtures / name)
    assert {field.name for field in dataclasses.fields(StatisticsBundle)} == {
        "statistics",
        "wal_applied_seq",
    }
    assert set(inspect.signature(load_statistics_bundle).parameters) == {
        "path",
        "io",
    }


def _calls_of(sources: Path, method: str) -> set[str]:
    """``module.function`` of every ``<expr>.<method>(...)`` call (a call
    outside any function counts as ``module.<module>``), ``int.<method>``
    aside: ``int.from_bytes`` decodes a digest, not a sketch."""
    callers = set()
    for path in sorted(sources.rglob("*.py")):
        module = path.relative_to(sources).with_suffix("").as_posix()

        def visit(node, owner):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and not (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "int"
                )
            ):
                callers.add(f"{module}.{owner}")
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text()), "<module>")
    return callers


def test_one_bundle_format_no_checkpoint_switch(tmp_path):
    import repro.api as api
    import repro.storage.stats_io as stats_io
    import repro.storage.wal as wal

    checkpoints = (
        stats_io.save_statistics,
        wal.StatisticsStore.checkpoint,
        api.PS3.checkpoint,
    )
    assert [set(inspect.signature(fn).parameters) for fn in checkpoints] == [
        {"stats", "path", "wal_applied_seq", "io"},
        {"self", "stats"},
        {"self"},
    ]
    # Each pin is only a guard if its walk reaches what it is about: the
    # public-callable walk the three checkpoints, the call walk every call
    # site — nested, in a method, or at module level.
    seen = {
        f"{module_name}.{name}"
        for module_name in ("repro.api", *STORAGE_MODULES)
        for name, __ in _public_callables(importlib.import_module(module_name))
    }
    assert {
        "repro.storage.stats_io.save_statistics",
        "repro.storage.wal.StatisticsStore.checkpoint",
        "repro.api.PS3.checkpoint",
    } <= seen
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "HEADER = SKETCH.to_bytes()\n"
        "class Writer:\n"
        "    def save(self, sketches):\n"
        "        def one(s):\n"
        "            return s.from_bytes(s)\n"
        "        return [one(s) for s in sketches]\n"
    )
    assert _calls_of(tmp_path, "to_bytes") == {"pkg/mod.<module>"}
    assert _calls_of(tmp_path, "from_bytes") == {"pkg/mod.one"}


def _names_used(sources: Path) -> dict[str, set[str]]:
    """Module -> every class defined and every name imported under
    ``sources``."""
    used: dict[str, set[str]] = {}
    for path in sorted(sources.rglob("*.py")):
        names = used.setdefault(path.relative_to(sources).as_posix(), set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.split(".")[-1] for alias in node.names}
    return used


def test_one_statistics_representation():
    """The seal writes the columnar index; no sketch object outlives it."""
    from repro.sketches.columnar import (
        ColumnarSketchIndex,
        ColumnIndex,
        HistogramArrays,
    )
    from repro.stats.features import FeatureBuilder

    sources = Path(repro.__file__).resolve().parent
    objects = {"ColumnStatistics", "PartitionStatistics"}
    used = _names_used(sources)
    assert "sketches/builder.py" in used and "DatasetStatistics" in used[
        "sketches/builder.py"
    ]
    assert {module for module, names in used.items() if names & objects} == set()
    assert _calls_of(sources, "to_bytes") == set()
    assert _calls_of(sources, "from_bytes") == {"storage/stats_io._v3_arrays"}
    import repro.sketches.columnar as columnar

    assert not hasattr(columnar, "column_stat_vector")
    for owner, name in (
        (ColumnIndex, "build"),
        (HistogramArrays, "build"),
        (ColumnarSketchIndex, "build"),
        (ColumnarSketchIndex, "extend"),
    ):
        assert name not in vars(owner), (owner.__name__, name)
    assert "index" in inspect.signature(FeatureBuilder).parameters


def test_one_way_to_grow_what_appends_extend():
    """Appends grow buffer-held state through ``repro.rowbuffers.grow``
    alone: the index types have no ``concat``, the seal no per-column
    ``block``, the table no ``_Tail`` of its own, and no module an
    append runs through stacks with ``vstack``."""
    import repro.engine.layout as layout
    from repro.sketches.builder import SealedSegments
    from repro.sketches.columnar import (
        ColumnIndex,
        HistogramArrays,
        KeyedFrequencyTable,
        SubstringTable,
    )

    for owner in (ColumnIndex, HistogramArrays, KeyedFrequencyTable, SubstringTable):
        assert "concat" not in vars(owner), owner.__name__
    assert "block" not in vars(SealedSegments)
    assert not {"_Tail", "_SPARE_SHARE"} & set(vars(layout))
    growing = {
        "api",
        "core/picker",
        "engine/batch_executor",
        "engine/layout",
        "sketches/builder",
        "sketches/columnar",
        "sketches/heavy_hitter",
        "stats/features",
    }
    sources = Path(repro.__file__).resolve().parent
    stacked = {caller.rsplit(".", 1)[0] for caller in _calls_of(sources, "vstack")}
    assert stacked & growing == set()


def test_walk_sees_the_callables_a_subspace_mode_would_land_on():
    seen = {
        f"{module_name}.{name}"
        for module_name in PICKER_PLANES
        for name, __ in _public_callables(importlib.import_module(module_name))
    }
    assert {
        "repro.core.picker.PS3Picker.select",
        "repro.core.cluster_sampler.cluster_sample",
        "repro.core.outliers.find_outliers",
        "repro.core.importance.importance_groups",
        "repro.core.allocation.allocate_samples",
        "repro.stats.features.FeatureBuilder.features_for_query",
        "repro.stats.normalization.Normalizer.transform",
        "repro.ml.kmeans.KMeans.fit",
    } <= seen
    # The mask itself travels as data.
    from repro.stats.normalization import Normalizer

    assert "live" in inspect.signature(Normalizer.transform).parameters


def test_walk_sees_the_callables_that_used_to_take_it():
    """The walk above is only a guard if it reaches these."""
    seen = {
        f"{module_name}.{name}"
        for module_name in PLANES
        for name, __ in _public_callables(importlib.import_module(module_name))
    }
    assert {
        "repro.api.PS3.query",
        "repro.api.answer_with_selection",
        "repro.core.training.compute_training_data",
        "repro.core.training.train_picker_model",
        "repro.engine.serving.answer_selections",
        "repro.engine.batch_executor.BatchExecutor.partition_answers",
        "repro.engine.batch_executor.QueryAnswerBlock.contributions",
        # ...and the ones an encoding switch would most likely land on.
        "repro.engine.batch_executor.FusedTableView.build",
        "repro.engine.batch_executor.FusedTableView.mask",
        "repro.engine.batch_executor.factorize",
        "repro.engine.batch_executor.fused_view",
    } <= seen


def _traced():
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def test_benchmark_still_traces_execution_and_view_extension():
    """The two names this layer must keep patchable: the execution step
    of every online answer, and the append-time view (and dictionary)
    extension, patched where ``PS3.append`` looks ``fused_view`` up."""
    traced = {(name, module, path) for name, module, path in _traced()}
    assert (
        "engine.execute",
        "repro.engine.batch_executor",
        "BatchExecutor.partition_answers",
    ) in traced
    assert ("engine.fused_view.extend", "repro.api", "fused_view") in traced


@pytest.mark.parametrize(
    "module_name, path", sorted({(module, path) for __, module, path in _traced()})
)
def test_traced_name_resolves(module_name, path):
    """Mirror of ``Tracer.install``: walk the parents by ``getattr``,
    find the last attribute in the owner's own ``__dict__``, and refuse
    static/class methods (the tracer cannot wrap them)."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attribute in vars(owner), f"{module_name}.{path} would be trace.missing"
    assert not isinstance(vars(owner)[attribute], (staticmethod, classmethod))


#: What the one-executor change and the serving fault move removed, by
#: the package that exported it.
REMOVED = {
    repro.engine: (
        "execute_on_columns",
        "execute_on_partition",
        "execute_on_table",
        "true_answer",
        "ComponentAnswer",
        "FaultyPicker",
        "ServingFaults",
        "SimulatedWorkerCrash",
    ),
    repro.core: (
        "partition_contributions",
        "diagnose_query",
        "estimate_with_confidence",
        "confidence_interval",
    ),
    repro.obs: ("Profiler", "StageProfiler", "wrap_stage"),
}
TESTS = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.engine.executor",
        "repro.engine.faults",
        "repro.core.diagnostics",
        "repro.obs.profiling",
    ],
)
def test_removed_plane_does_not_import(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def test_packages_export_none_of_the_removed_names():
    import repro.core.contribution as contribution
    import repro.core.variance as variance
    from repro.engine.combiner import CombinedAnswer

    for package, names in REMOVED.items():
        for name in names:
            assert not hasattr(package, name), (package.__name__, name)
            assert name not in package.__all__, (package.__name__, name)
    assert not hasattr(contribution, "partition_contributions")
    assert not hasattr(variance, "confidence_interval")
    assert not hasattr(CombinedAnswer, "of")


def _imported_roots(sources: Path) -> set[str]:
    """Top-level names of every module imported under ``sources``."""
    roots = set()
    for path in sorted(sources.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                roots.add(node.module.split(".")[0])
    return roots


def test_no_source_module_imports_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.rglob("*.py")}
    # The guard is only a guard if it knows the oracles' names.
    assert {"scalar_oracle", "dict_walk", "per_node_reference"} <= test_modules
    sources = Path(repro.__file__).resolve().parent
    assert _imported_roots(sources) & test_modules == set()


def test_execute_exact_reaches_the_batch_executor(trained_ps3, monkeypatch):
    """Control: the exact answer is read from the one executor's block."""
    from repro.engine.aggregates import count_star
    from repro.engine.batch_executor import BatchExecutor
    from repro.engine.query import Query

    calls = []
    real = BatchExecutor.partition_answers

    def spy(self, query, partitions=None):
        calls.append(partitions)
        return real(self, query, partitions)

    monkeypatch.setattr(BatchExecutor, "partition_answers", spy)
    assert trained_ps3.execute_exact(Query([count_star()]))
    assert calls == [None]
