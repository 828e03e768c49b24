"""Shared experiment context for the benchmark suite.

Building a dataset, sketching every partition, and training PS3 + LSS is
the expensive part of every experiment, and many figures share a (dataset,
layout) pair — so contexts are cached process-wide. Test-query answers are
precomputed once per context: evaluating a selection method then reduces
to weighted sums, which keeps full budget sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.filtered_random import FilteredRandomSampler
from repro.baselines.lss import LSSSampler
from repro.baselines.oracle import OraclePicker
from repro.baselines.random_sampling import RandomSampler
from repro.bench.profiles import BenchProfile, get_profile
from repro.core.metrics import ErrorReport, mean_report
from repro.core.picker import PickerConfig, PS3Picker
from repro.core.training import (
    PickerModel,
    TrainingConfig,
    TrainingData,
    train_picker_model,
)
from repro.datasets.registry import get_dataset
from repro.engine.batch_executor import BatchExecutor, QueryAnswerBlock, fused_view
from repro.engine.block_estimator import BlockEstimator
from repro.engine.combiner import WeightedChoice
from repro.engine.query import Query
from repro.engine.table import PartitionedTable
from repro.sketches.builder import DatasetStatistics, build_dataset_statistics
from repro.stats.features import FeatureBuilder
from repro.workload.generator import QueryGenerator
from repro.workload.spec import WorkloadSpec


@dataclass
class PreparedQuery:
    """A test query with everything needed to score any selection."""

    query: Query
    answers: QueryAnswerBlock  # also the per-partition answer-dict sequence
    truth: dict
    true_selectivity: float  # fraction of rows passing the predicate
    estimator: BlockEstimator  # scores selections dict-free over ``answers``

    def evaluate(self, selection: list[WeightedChoice]) -> ErrorReport:
        return self.estimator.score_grid([selection])[0]


@dataclass
class ExperimentContext:
    """One (dataset, layout, profile) with trained PS3 and baselines."""

    dataset_name: str
    layout: str
    profile: BenchProfile
    ptable: PartitionedTable = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    workload: WorkloadSpec = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    statistics: DatasetStatistics = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    feature_builder: FeatureBuilder = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    model: PickerModel = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    training_data: TrainingData = field(  # type: ignore[assignment]
        repr=False, default=None
    )
    train_queries: list[Query] = field(repr=False, default_factory=list)
    prepared: list[PreparedQuery] = field(repr=False, default_factory=list)
    lss: LSSSampler = field(  # type: ignore[assignment]
        repr=False, default=None
    )

    @classmethod
    def build(
        cls,
        dataset_name: str,
        layout: str | None = None,
        profile: BenchProfile | None = None,
        training_config: TrainingConfig | None = None,
    ) -> ExperimentContext:
        profile = profile or get_profile()
        spec = get_dataset(dataset_name)
        layout = layout or spec.default_layout
        ctx = cls(dataset_name=dataset_name, layout=layout, profile=profile)
        ctx.ptable = spec.build(
            profile.num_rows, profile.num_partitions, layout, seed=profile.seed
        )
        ctx.workload = spec.workload()
        generator = QueryGenerator(
            ctx.workload, ctx.ptable.table, seed=profile.seed + 1
        )
        ctx.train_queries, test_queries = generator.train_test_split(
            profile.train_queries, profile.test_queries
        )
        ctx.statistics = build_dataset_statistics(ctx.ptable)
        ctx.feature_builder = FeatureBuilder(
            ctx.statistics, ctx.workload.groupby_universe
        )
        ctx.model, ctx.training_data = train_picker_model(
            ctx.ptable, ctx.feature_builder, ctx.train_queries, training_config
        )
        ctx.lss = LSSSampler(ctx.feature_builder, seed=profile.seed + 2).fit(
            ctx.training_data, budget_fractions=profile.budget_fractions
        )
        ctx.prepared = [ctx.prepare_query(q) for q in test_queries]
        return ctx

    # -- query preparation -----------------------------------------------------

    def prepare_query(self, query: Query) -> PreparedQuery:
        # Every budget-sweep evaluation scores through the block
        # estimator (a dict is built only if a consumer indexes
        # ``answers``); the truth dict is kept for compatibility.
        answers = BatchExecutor.for_table(self.ptable).partition_answers(query)
        estimator = BlockEstimator(answers)
        truth = estimator.truth_answer()
        if query.predicate is None:
            selectivity = 1.0
        else:
            # One mask over the fused columns instead of a partition loop.
            view = fused_view(self.ptable)
            passing = int(query.predicate.mask(view.columns).sum())
            selectivity = passing / self.ptable.num_rows
        return PreparedQuery(query, answers, truth, selectivity, estimator)

    @property
    def num_partitions(self) -> int:
        return self.ptable.num_partitions

    # -- method constructors -----------------------------------------------------

    def ps3_picker(self, config: PickerConfig | None = None) -> PS3Picker:
        return PS3Picker(self.model, config or PickerConfig(seed=self.profile.seed))

    def oracle_picker(self, config: PickerConfig | None = None) -> OraclePicker:
        return OraclePicker(
            self.model, self.ptable, config or PickerConfig(seed=self.profile.seed)
        )

    def random_sampler(self, seed_offset: int = 0) -> RandomSampler:
        return RandomSampler(self.num_partitions, seed=self.profile.seed + seed_offset)

    def filtered_sampler(self, seed_offset: int = 0) -> FilteredRandomSampler:
        return FilteredRandomSampler(
            self.feature_builder, seed=self.profile.seed + seed_offset
        )

    # -- evaluation ---------------------------------------------------------------

    def evaluate_method(
        self,
        select_fn,
        budgets: list[int] | None = None,
        runs: int = 1,
        queries: list[PreparedQuery] | None = None,
    ) -> dict[int, ErrorReport]:
        """Average errors per budget for a ``select_fn(query, budget, run)``.

        ``select_fn`` returns a list of :class:`WeightedChoice` (or an
        object with a ``selection`` attribute, like ``PickerSelection``).
        Randomized methods pass ``runs > 1`` and should derive their seed
        from the run index.
        """
        budgets = budgets or self.profile.budgets()
        queries = queries if queries is not None else self.prepared
        out: dict[int, ErrorReport] = {}
        for budget in budgets:
            reports: list[ErrorReport] = []
            for run in range(runs):
                for prepared in queries:
                    selection = select_fn(prepared.query, budget, run)
                    if hasattr(selection, "selection"):
                        selection = selection.selection
                    reports.append(prepared.evaluate(selection))
            out[budget] = mean_report(reports)
        return out

    def standard_methods(self) -> dict[str, tuple]:
        """The Figure 3 method suite: name -> (select_fn, runs)."""
        runs = self.profile.random_runs
        random_samplers = [self.random_sampler(seed_offset=10 + r) for r in range(runs)]
        filtered_samplers = [
            self.filtered_sampler(seed_offset=20 + r) for r in range(runs)
        ]
        ps3 = self.ps3_picker()
        lss = self.lss

        return {
            "random": (
                lambda q, n, run: random_samplers[run].select(q, n),
                runs,
            ),
            "random+filter": (
                lambda q, n, run: filtered_samplers[run].select(q, n),
                runs,
            ),
            "lss": (lambda q, n, run: lss.select(q, n), 1),
            "ps3": (lambda q, n, run: ps3.select(q, n), 1),
        }


_CONTEXT_CACHE: dict[tuple[str, str, str], ExperimentContext] = {}


def get_context(
    dataset_name: str,
    layout: str | None = None,
    profile: BenchProfile | None = None,
) -> ExperimentContext:
    """Process-wide cached contexts so benchmarks share training costs."""
    profile = profile or get_profile()
    spec = get_dataset(dataset_name)
    layout = layout or spec.default_layout
    key = (dataset_name, layout, profile.name)
    if key not in _CONTEXT_CACHE:
        _CONTEXT_CACHE[key] = ExperimentContext.build(dataset_name, layout, profile)
    return _CONTEXT_CACHE[key]
