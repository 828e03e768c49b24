"""High-level PS3 facade: build statistics, train once, query many times.

Typical use::

    from repro import PS3
    from repro.engine import Query
    ...
    ps3 = PS3(ptable, workload_spec)
    ps3.fit(train_queries)                 # offline, one-time
    answer = ps3.query(some_query, budget_fraction=0.05)
    print(answer.groups, answer.selection.partitions)

``PS3`` owns the statistics builder, feature builder, trained picker
model, and the online picker; :class:`ApproximateAnswer` carries the
per-group estimates plus the weighted selection and its budgets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.feature_selection import (
    ClusteringErrorEvaluator,
    greedy_feature_selection,
)
from repro.core.metrics import ErrorReport, evaluate_errors
from repro.core.picker import PickerConfig, PickerSelection, PS3Picker
from repro.core.training import (
    PickerModel,
    TrainingConfig,
    TrainingData,
    train_picker_model,
)
from repro.engine.batch_executor import BatchExecutor, fused_view
from repro.engine.combiner import (
    FinalAnswer,
    WeightedChoice,
    combine_answers,
    finalize_answer,
)
from repro.engine.layout import append_rows, validate_batch
from repro.engine.query import Query
from repro.engine.serving import (
    ServingConfig,
    ServingFrontEnd,
    answer_selections,
    check_budget_shape,
)
from repro.engine.table import PartitionedTable
from repro.errors import ConfigError, NotFittedError
from repro.sketches.builder import SketchConfig, build_dataset_statistics
from repro.stats.features import FeatureBuilder
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class StalenessReport:
    """Drift accumulated through appends since the model was trained.

    ``needs_retraining`` trips when appended partitions exceed 20% of the
    dataset or the global heavy hitters of any column have drifted by
    more than 0.5 Jaccard distance — the "substantial change" retraining
    trigger of paper section 7.
    """

    partitions_added: int
    fraction_new: float
    heavy_hitter_drift: float
    needs_retraining: bool


@dataclass
class ApproximateAnswer:
    """An approximate query answer with full provenance.

    ``budget`` is the resolved request budget the pick ran with.
    """

    query: Query
    groups: FinalAnswer
    selection: PickerSelection
    budget: int
    num_partitions: int

    @property
    def effective_budget(self) -> int:
        """The budget the pick ran with: always ``budget``."""
        return self.budget

    def aggregate_labels(self) -> tuple[str, ...]:
        return tuple(a.label() for a in self.query.aggregates)


class PS3:
    """End-to-end system: statistics builder + trained partition picker."""

    def __init__(
        self,
        ptable: PartitionedTable,
        workload: WorkloadSpec,
        sketch_config: SketchConfig | None = None,
        picker_config: PickerConfig | None = None,
    ) -> None:
        workload.validate_against(ptable.schema)
        # Offline: one chunked pass per column across all partitions.
        statistics = build_dataset_statistics(ptable, sketch_config)
        builder = FeatureBuilder(statistics, workload.groupby_universe)
        self._bind(ptable, workload, picker_config, builder)

    def _bind(self, ptable, workload, picker_config, feature_builder) -> None:
        self.ptable = ptable
        self.workload = workload
        self.picker_config = picker_config or PickerConfig()
        self.statistics = feature_builder.dataset
        self.feature_builder = feature_builder
        self.model: PickerModel | None = None
        self.training_data: TrainingData | None = None
        self._picker: PS3Picker | None = None
        # Partitions the model has seen: staleness counts from here.
        self._trained_on = self.statistics.num_partitions
        self._store = None  # StatisticsStore, bound via attach_store / open
        self._serving_registry = None  # latest serve()'s MetricsRegistry
        # Serializes mutations of the shared serving state (table,
        # statistics, picker, feature builder) against picks. Picks and
        # appends hold it; execution runs on a table snapshot outside it
        # (appends build a new table object, so a snapshot's fused view
        # is never torn by a concurrent append). Reentrant so locked
        # callers can use the public query path.
        self._state_lock = threading.RLock()

    @classmethod
    def open(
        cls,
        ptable: PartitionedTable,
        workload: WorkloadSpec,
        directory,
        model_path,
        *,
        picker_config: PickerConfig | None = None,
        io=None,
    ) -> PS3:
        """Reopen a persisted system: the one way back from disk.

        ``directory`` is the :class:`~repro.storage.StatisticsStore` a
        previous system checkpointed into, ``model_path`` its
        ``save_model`` file, ``ptable`` the table as of that checkpoint.
        Statistics, columnar index and model are bound as they load
        (nothing is re-sketched or retrained), the journal tail is
        replayed through the in-memory half of :meth:`append` (growing
        the table too; nothing is journaled again) and the store stays
        attached, so ``query`` / ``serve`` / ``append`` / ``checkpoint``
        continue the pre-crash timeline; :meth:`staleness` counts from
        the partitions the model was trained on (from the checkpoint for
        a model file that predates that record) and reads the running
        global heavy hitters the bundle carries, as the live system did.
        A table of another partition count, a model for other statistics
        or another workload, or a missing model file is a
        :class:`ConfigError`; damage a ``StorageError``.
        """
        from repro.storage import StatisticsStore, load_model

        workload.validate_against(ptable.schema)
        store = StatisticsStore(directory, io=io)
        bundle, batches = store.load()
        statistics = bundle.statistics
        if ptable.num_partitions != statistics.num_partitions:
            raise ConfigError(
                f"the checkpoint in {directory} covers {statistics.num_partitions} "
                f"partitions but the table has {ptable.num_partitions}"
            )
        try:
            model = load_model(model_path, statistics, io=io)
        except FileNotFoundError:
            raise ConfigError(f"no picker model at {model_path}") from None
        groupby = model.feature_builder.schema.groupby_columns
        if groupby != tuple(workload.groupby_universe):
            raise ConfigError(
                f"the model in {model_path} was trained for the group-by "
                f"universe {groupby}, not {tuple(workload.groupby_universe)}"
            )
        system = cls.__new__(cls)
        system._bind(ptable, workload, picker_config, model.feature_builder)
        if model.trained_partitions is not None:
            system._trained_on = model.trained_partitions
        system.model = model
        system._picker = PS3Picker(model, system.picker_config)
        system._store = store
        for batch in batches:
            system._apply(batch.columns)
        return system

    # -- durability -------------------------------------------------------------

    def attach_store(self, directory, *, io=None):
        """Bind a crash-safe :class:`~repro.storage.StatisticsStore`.

        Once attached, every :meth:`append` batch is validated, journaled
        to the store's write-ahead log and only then applied in memory,
        and :meth:`checkpoint` folds the journal into a fresh atomic
        bundle. After a crash, :meth:`open` on the directory recovers a
        system bit-identical to the pre-crash state.
        """
        from repro.storage import StatisticsStore

        self._store = StatisticsStore(directory, io=io)
        return self._store

    @property
    def store(self):
        if self._store is None:
            raise ConfigError(
                "no statistics store attached (call PS3.attach_store first)"
            )
        return self._store

    def checkpoint(self) -> int:
        """Fold journaled appends into a fresh atomic statistics bundle.

        Returns the journal sequence number the bundle is stamped with.
        Holds the state lock, as :meth:`append` does from validation to
        apply: a batch journaled while the bundle is written would be in
        neither the bundle nor the truncated journal.
        """
        with self._state_lock:
            return self.store.checkpoint(self.statistics)

    # -- training --------------------------------------------------------------

    def fit(
        self,
        train_queries: list[Query],
        training_config: TrainingConfig | None = None,
        feature_selection_rounds: int = 0,
    ) -> PS3:
        """Train the picker on a workload sample (one-time, offline).

        ``feature_selection_rounds > 0`` additionally runs Algorithm 3 to
        prune clustering features (slower training, better clustering).
        """
        self.model, self.training_data = train_picker_model(
            self.ptable, self.feature_builder, train_queries, training_config
        )
        if feature_selection_rounds > 0:
            evaluator = ClusteringErrorEvaluator(
                self.feature_builder.schema, self.training_data
            )
            self.model.excluded_families = greedy_feature_selection(
                self.feature_builder.schema,
                evaluator,
                rounds=feature_selection_rounds,
            )
        self._picker = PS3Picker(self.model, self.picker_config)
        self._trained_on = self.statistics.num_partitions
        return self

    @property
    def picker(self) -> PS3Picker:
        if self._picker is None:
            raise NotFittedError("call PS3.fit before querying")
        return self._picker

    # -- querying ----------------------------------------------------------------

    def _resolve_budget(
        self, budget_partitions: int | None, budget_fraction: float | None
    ) -> int:
        return resolve_budget(
            self.ptable.num_partitions, budget_partitions, budget_fraction
        )

    def query(
        self,
        query: Query,
        budget_partitions: int | None = None,
        budget_fraction: float | None = None,
    ) -> ApproximateAnswer:
        """Answer ``query`` reading at most the budgeted partitions.

        ``query(q)`` *is* ``query_many([q])[0]``: execution touches only
        the selected partitions (the online I/O saving), as one fused
        subset pass.

        A repeat at the same budget reuses a pure pick until the next
        append (:mod:`repro.core.picker`). Thread-safe: the pick runs
        under the state lock (the picker's rng, memo and caches are
        shared), execution on a table snapshot — so concurrent
        ``query``/``append`` calls each see one consistent table
        generation, never a torn view.
        """
        return self.query_many([query], budget_partitions, budget_fraction)[0]

    def query_many(
        self,
        queries,
        budget_partitions: int | None = None,
        budget_fraction: float | None = None,
    ) -> list[ApproximateAnswer]:
        """Answer several queries, picked under one state-lock hold.

        Partitions are picked per query, sequentially in input order
        (exactly the selections back-to-back :meth:`query` calls would
        make) on one table generation; each query then executes on its
        own selected partitions outside the lock and is combined with
        its own weights (:func:`~repro.engine.serving.answer_selections`,
        the same call every online route makes). ``budget`` applies to
        each query individually. The picks share the picker's rng and
        memo, hence the lock. The serving front end calls :meth:`query`
        once per request.
        """
        queries = list(queries)
        with self._state_lock:
            budget = self._resolve_budget(budget_partitions, budget_fraction)
            ptable = self.ptable
            picked = [(q, self.picker.select(q, budget)) for q in queries]
        finals = answer_selections(
            ptable, [(q, sel.selection) for q, sel in picked]
        )
        return [
            ApproximateAnswer(
                query=q,
                groups=groups,
                selection=sel,
                budget=budget,
                num_partitions=ptable.num_partitions,
            )
            for (q, sel), groups in zip(picked, finals)
        ]

    def serve(
        self, config: ServingConfig | None = None, *, faults=None
    ) -> ServingFrontEnd:
        """Start a serving front end over this system.

        Returns the started :class:`~repro.engine.serving
        .ServingFrontEnd`; call its ``submit``/``query``/``submit_async``
        from any number of client threads or asyncio tasks, and ``stop``
        it (or use it as a context manager) when done. Its worker
        answers one request at a time through :meth:`query`, so a
        served answer is the one :meth:`query` gives. ``faults`` takes
        an object with an ``on_scatter`` hook for deterministic
        fault-injection tests (see :class:`ServingFrontEnd`).
        """
        self.picker  # noqa: B018 - fail fast with NotFittedError
        front = ServingFrontEnd(self, config, faults=faults).start()
        self._serving_registry = front.registry
        return front

    def execute_exact(self, query: Query) -> FinalAnswer:
        """The exact answer for ground-truth comparison: the full read's
        own answer, every partition at weight 1 through the one executor
        and combine, so it equals ``query(q, budget_fraction=1.0).groups``
        byte for byte."""
        ptable = self.ptable
        block = BatchExecutor.for_table(ptable).partition_answers(query)
        everything = [WeightedChoice(p, 1.0) for p in range(ptable.num_partitions)]
        return finalize_answer(query, combine_answers(block, everything))

    def evaluate(self, query: Query, answer: ApproximateAnswer) -> ErrorReport:
        """Score an approximate answer against the exact one."""
        return evaluate_errors(self.execute_exact(query), answer.groups)

    # -- append-only ingest ----------------------------------------------------

    def append(self, new_columns: dict) -> int:
        """Seal appended rows as a new partition and update statistics.

        Matches the paper's append-only deployment (section 2.1): the new
        partition gets sketches immediately and becomes selectable by the
        *existing* trained picker (feature schema frozen). Returns the new
        partition's index. Check :meth:`staleness` to decide when the
        accumulated appends warrant retraining (section 7).

        Validate (``validate_batch``: ``ConfigError`` / ``SchemaError``),
        journal, apply — in that order: a rejected batch changes nothing,
        on disk or in memory.
        """
        with self._state_lock:
            batch = validate_batch(self.ptable.schema, new_columns)
            if self._store is not None:
                # Write-ahead: the batch is fsynced to the journal before
                # any in-memory state changes. A crash after this line
                # replays the batch; a crash before it loses only the call.
                self._store.log_append(batch)
            return self._apply(batch)

    def _apply(self, batch: dict) -> int:
        """The in-memory half of an append: what a live call runs after
        the journal write and what :meth:`open` runs per replayed batch."""
        from repro.sketches.builder import append_partition_statistics

        prior_view = getattr(self.ptable, "_fused_view", None)
        self.ptable = append_rows(self.ptable, batch)
        # Carry the fused executor view over incrementally: only the
        # new partition's row ids are materialized and rows encoded
        # (mirrors the sketch index). Queries picked before this point
        # keep executing on their snapshot table — append_rows builds
        # new objects; the old table, view and encodings are never written.
        fused_view(self.ptable, prior=prior_view)
        partition = self.ptable[self.ptable.num_partitions - 1]
        append_partition_statistics(self.statistics, partition)
        self.feature_builder.refresh()
        return partition.index

    def staleness(self) -> StalenessReport:
        """How far the dataset has drifted since the model was trained."""
        from repro.sketches.builder import recompute_global_heavy_hitters

        added = self.statistics.num_partitions - self._trained_on
        fraction_new = added / max(self.statistics.num_partitions, 1)
        # The running global sketch has merged every sealed partition, the
        # checkpointed and replayed ones included.
        fresh = recompute_global_heavy_hitters(self.statistics)
        drifts = []
        for column, frozen in self.statistics.global_heavy_hitters.items():
            current = fresh.get(column, ())
            union = set(frozen) | set(current)
            if not union:
                continue
            overlap = len(set(frozen) & set(current)) / len(union)
            drifts.append(1.0 - overlap)
        drift = max(drifts) if drifts else 0.0
        return StalenessReport(
            partitions_added=added,
            fraction_new=fraction_new,
            heavy_hitter_drift=drift,
            needs_retraining=fraction_new > 0.2 or drift > 0.5,
        )

    # -- introspection -------------------------------------------------------

    def storage_overhead_bytes(self) -> float:
        """Average per-partition sketch footprint in bytes (paper Table 4):
        the encoded size of every sketch the seal computed."""
        totals = self.statistics.sizes.sum(axis=1)
        return float(totals.mean()) if totals.size else 0.0

    def metrics(self) -> dict:
        """A point-in-time, JSON-serializable observability snapshot.

        Merges the process-wide registry (engine sweeps / grid scoring,
        plan-cache hit rates, WAL append/fsync latency,
        checkpoint duration — everything the engine and storage planes
        record via :func:`repro.obs.get_registry`) with the most recent
        :meth:`serve` front end's private registry (``serving.*``
        counters, admission-wait and ``serving.answer`` histograms).
        Instrument names are plane-prefixed, so the merge is
        collision-free. Feed two snapshots to
        :func:`repro.obs.snapshot_delta` for interval views.
        """
        from repro.obs import get_registry

        snap = get_registry().snapshot()
        if self._serving_registry is not None:
            serving = self._serving_registry.snapshot()
            for kind in ("counters", "gauges", "histograms"):
                snap[kind].update(serving[kind])
        return snap


def resolve_budget(
    num_partitions: int,
    budget_partitions: int | None = None,
    budget_fraction: float | None = None,
) -> int:
    """The partition count a request may read, validated
    (:func:`~repro.engine.serving.check_budget_shape`); a
    ``budget_fraction`` reads at least one partition.
    """
    check_budget_shape(budget_partitions, budget_fraction)
    if budget_fraction is not None:
        return max(1, int(round(budget_fraction * num_partitions)))
    return int(budget_partitions)


def answer_with_selection(
    ptable: PartitionedTable, query: Query, selection
) -> FinalAnswer:
    """Weighted answer for an explicit selection (baseline evaluation).

    Executes only the *selected* partitions, so evaluating a k-partition
    selection costs O(k) partition scans, not a full-table pass.
    """
    return answer_selections(ptable, [(query, list(selection))])[0]
