"""Where an append's time goes, and whether it grows with the table.

One append at ``ingest_mixed``'s shape (kdd, 2 500-row partitions, a
journaled store, a 10 % budget) timed stage by stage at several table
sizes: the table is built at N partitions, fit on 16 training queries
and given a statistics store, then takes ``--appends`` appends of fresh
shuffled kdd rows, each followed by one query — the first of the new
generation, which is where per-generation derived state is paid for.

The program does not time itself. Each stage is timed by wrapping the
module-level name the append calls through:

* ``wal``: ``StatisticsStore.log_append`` (the fsynced journal write);
* ``table``: ``repro.api.append_rows`` (the columns' spare rows);
* ``view``: ``repro.api.fused_view`` (row ids and carried codes);
* ``seal``: ``repro.sketches.builder.build_column_statistics_batch``
  (the seal kernel);
* ``index``: ``ColumnarSketchIndex.append`` (the index rows' write);
* ``fold``: ``repro.sketches.builder.merge_pairwise`` (the running
  heavy hitters);
* ``refresh``: ``FeatureBuilder.refresh`` (the static feature rows).

``append`` is the whole ``PS3.append`` call, ``rest`` what the stages
leave of it, ``query`` the first query after it. Medians in ms over the
timed appends; the first ``--warmup`` appends onto each table are not
timed (allocator and cache warm-up), so the table grows by ``--warmup``
partitions before the first timed one.

Run::

    PYTHONPATH=src python benchmarks/bench_perf_append.py \\
        [--partitions 64 256 512] [--appends 20] [--warmup 5] [--seed 4111]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from contextlib import ExitStack, contextmanager

import numpy as np

import repro.api as api
import repro.sketches.builder as builder
from repro.api import PS3
from repro.datasets.registry import get_dataset
from repro.engine.layout import shuffle_table
from repro.sketches.columnar import ColumnarSketchIndex
from repro.stats.features import FeatureBuilder
from repro.storage.wal import StatisticsStore
from repro.workload import QueryGenerator

ROWS_PER_PARTITION = 2_500
BUDGET_FRACTION = 0.1
TRAIN_QUERIES = 16
QUERY_SEED = 2020
#: (stage, owner, attribute): the names an append calls through.
STAGES = (
    ("wal", StatisticsStore, "log_append"),
    ("table", api, "append_rows"),
    ("view", api, "fused_view"),
    ("seal", builder, "build_column_statistics_batch"),
    ("index", ColumnarSketchIndex, "append"),
    ("fold", builder, "merge_pairwise"),
    ("refresh", FeatureBuilder, "refresh"),
)
COLUMNS = ("append", *(stage for stage, __, __ in STAGES), "rest", "query")


@contextmanager
def timed_stages(spent: dict[str, float]):
    """Wrap every stage so each call adds its seconds to ``spent``."""

    def wrap(stage, original):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - started

        return timed

    with ExitStack() as stack:
        for stage, owner, attribute in STAGES:
            original = vars(owner)[attribute]
            setattr(owner, attribute, wrap(stage, original))
            stack.callback(setattr, owner, attribute, original)
        yield


def measure(
    partitions: int, appends: int, seed: int, warmup: int = 0
) -> dict[str, float]:
    """Median ms per stage over ``appends`` appends onto ``partitions``
    (and ``warmup`` untimed ones before them)."""
    dataset = get_dataset("kdd")
    ptable = dataset.build(partitions * ROWS_PER_PARTITION, partitions, seed=seed)
    spec = dataset.workload()
    generator = QueryGenerator(spec, dataset.generate(20_000, QUERY_SEED), QUERY_SEED)
    train, pool = generator.train_test_split(TRAIN_QUERIES, appends)
    total = warmup + appends
    fresh = shuffle_table(
        dataset.generate(total * ROWS_PER_PARTITION, seed + 1),
        np.random.default_rng(seed + 1),
    )
    ps3 = PS3(ptable, spec).fit(train)
    rows: dict[str, list[float]] = {column: [] for column in COLUMNS}
    with tempfile.TemporaryDirectory() as directory:
        ps3.attach_store(directory)
        ps3.checkpoint()
        for i in range(total):
            batch = {
                name: column[i * ROWS_PER_PARTITION : (i + 1) * ROWS_PER_PARTITION]
                for name, column in fresh.columns.items()
            }
            spent = dict.fromkeys(COLUMNS, 0.0)
            with timed_stages(spent):
                started = time.perf_counter()
                ps3.append(batch)
                spent["append"] = time.perf_counter() - started
            started = time.perf_counter()
            ps3.query(pool[i % len(pool)], budget_fraction=BUDGET_FRACTION)
            spent["query"] = time.perf_counter() - started
            staged = sum(spent[stage] for stage, __, __ in STAGES)
            spent["rest"] = spent["append"] - staged
            if i >= warmup:
                for column in COLUMNS:
                    rows[column].append(spent[column] * 1e3)
    return {column: float(np.median(values)) for column, values in rows.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--partitions", type=int, nargs="+", default=[64, 256, 512])
    parser.add_argument("--appends", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=5)
    parser.add_argument("--seed", type=int, default=4111)
    args = parser.parse_args(argv)
    print(
        f"median ms over {args.appends} appends after {args.warmup} untimed, "
        f"seed {args.seed}"
    )
    print(f"{'N':>5} " + " ".join(f"{column:>8}" for column in COLUMNS))
    for partitions in args.partitions:
        medians = measure(partitions, args.appends, args.seed, args.warmup)
        cells = " ".join(f"{medians[column]:8.2f}" for column in COLUMNS)
        print(f"{partitions:>5} {cells}", flush=True)


if __name__ == "__main__":
    main()
