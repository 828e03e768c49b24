"""Command-line interface for the PS3 reproduction.

Because every dataset in this repository is a seeded synthetic generator,
a *deployment* is fully described by a small manifest (dataset name, row
count, partition count, layout, seed) plus the persisted statistics and
model files. The CLI manages that lifecycle::

    ps3-repro info
    ps3-repro train --dataset tpch --rows 20000 --partitions 64 \
        --train-queries 32 --out ./deploy
    ps3-repro query --deploy ./deploy --budget 0.1 \
        "SELECT SUM(l_extendedprice), COUNT(*) GROUP BY l_returnflag"
    ps3-repro evaluate --deploy ./deploy --budget 0.1 --queries 10
    ps3-repro append --deploy ./deploy --rows 1000
    ps3-repro checkpoint --deploy ./deploy
    ps3-repro metrics --deploy ./deploy --queries 5

``train`` writes ``manifest.json``, ``stats.ps3stats`` and
``model.json``; ``query``, ``evaluate`` and ``metrics`` rebuild the table
from the manifest, reopen the system with ``PS3.open`` and answer through
``PS3.query`` like any other caller. ``append`` journals a
synthetic batch to the write-ahead log (``stats.ps3wal``) before
anything else changes, and ``checkpoint`` folds the journal into a
fresh atomic statistics bundle — every command recovers cleanly from a
crash at any point in between (see README, "Durability & recovery").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.api import PS3, resolve_budget
from repro.core.metrics import mean_report
from repro.core.picker import PickerConfig
from repro.core.training import TrainingConfig
from repro.datasets.registry import DATASETS, get_dataset
from repro.engine.layout import append_rows
from repro.engine.sql import parse_query
from repro.errors import ConfigError, ReproError
from repro.storage import (
    StatisticsStore,
    recover_statistics_bundle,
    save_model,
    save_statistics,
)
from repro.storage.atomic import atomic_write_bytes
from repro.storage.wal import STATS_NAME
from repro.workload.generator import QueryGenerator

_MANIFEST = "manifest.json"
_MODEL = "model.json"


def _cmd_info(args: argparse.Namespace) -> int:
    print("datasets:")
    for name, spec in DATASETS.items():
        workload = spec.workload()
        print(
            f"  {name:6s} layouts={', '.join(spec.layout_names())} "
            f"(default {spec.default_layout}); "
            f"{len(workload.groupby_universe)} group-by columns, "
            f"{len(workload.aggregate_columns)} aggregate columns"
        )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = TrainingConfig(seed=args.seed)  # a bad seed fails before the build
    spec = get_dataset(args.dataset)
    layout = args.layout or spec.default_layout
    print(
        f"building {args.dataset} ({args.rows} rows, {args.partitions} "
        f"partitions, layout={layout}, seed={args.seed})..."
    )
    ptable = spec.build(args.rows, args.partitions, layout, seed=args.seed)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=args.seed + 1)
    train_queries = generator.sample_queries(args.train_queries)
    print(f"training on {len(train_queries)} workload queries...")
    system = PS3(ptable, workload).fit(train_queries, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_statistics(system.statistics, out / STATS_NAME)
    save_model(system.model, out / _MODEL)
    (out / _MANIFEST).write_text(
        json.dumps(
            {
                "dataset": args.dataset,
                "rows": args.rows,
                "partitions": args.partitions,
                "layout": layout,
                "seed": args.seed,
                "train_queries": args.train_queries,
            },
            indent=2,
        )
    )
    size_kb = system.storage_overhead_bytes() / 1024
    print(f"saved deployment to {out} ({size_kb:.1f} KB statistics/partition)")
    return 0


def _append_batch_columns(spec, manifest: dict, rows: int, seed: int) -> dict:
    """Deterministically (re)generate one appended batch's columns."""
    batch = spec.build(rows, 1, manifest["layout"], seed=seed)
    return dict(batch.table.columns)


def _load_deployment(deploy: str):
    """Reopen a deployment: rebuild its table, then ``PS3.open``.

    The table as of the checkpoint is the manifest's seeded base plus
    the appended batches already folded into the bundle, regenerated
    from the manifest's ``appends`` entries (every batch is a seeded
    synthetic sample, so regeneration is exact). Batches not yet folded
    are in the journal, rows included; ``PS3.open`` replays them into
    table and statistics alike. The bundle is read twice: here for the
    journal stamp that says where the folded batches end, then by it.
    """
    directory = Path(deploy)
    manifest = json.loads((directory / _MANIFEST).read_text())
    spec = get_dataset(manifest["dataset"])
    ptable = spec.build(
        manifest["rows"],
        manifest["partitions"],
        manifest["layout"],
        seed=manifest["seed"],
    )
    folded = recover_statistics_bundle(directory / STATS_NAME).wal_applied_seq
    for entry in manifest.get("appends", ()):
        if entry["seq"] <= folded:
            ptable = append_rows(
                ptable,
                _append_batch_columns(
                    spec, manifest, entry["rows"], entry["seed"]
                ),
            )
    config = PickerConfig(seed=manifest["seed"])
    system = PS3.open(
        ptable, spec.workload(), directory, directory / _MODEL, picker_config=config
    )
    return manifest, system


def _cmd_append(args: argparse.Namespace) -> int:
    directory = Path(args.deploy)
    manifest = json.loads((directory / _MANIFEST).read_text())
    spec = get_dataset(manifest["dataset"])
    appends = manifest.setdefault("appends", [])
    seed = (
        args.seed
        if args.seed is not None
        else manifest["seed"] + 1000 + len(appends)
    )
    columns = _append_batch_columns(spec, manifest, args.rows, seed)
    store = StatisticsStore(directory)
    # Journal first (fsynced), then record the regeneration recipe in
    # the manifest. A crash in between is safe: recovery replays the
    # rows from the journal itself until a checkpoint reconciles the
    # manifest (see _cmd_checkpoint).
    seq = store.log_append(columns, meta={"rows": args.rows, "seed": seed})
    appends.append({"rows": args.rows, "seed": seed, "seq": seq})
    atomic_write_bytes(
        directory / _MANIFEST, json.dumps(manifest, indent=2).encode("utf-8")
    )
    print(
        f"journaled {args.rows} rows (seed={seed}) as WAL record {seq}; "
        "run `checkpoint` to fold the journal into the statistics bundle"
    )
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    directory = Path(args.deploy)
    manifest = json.loads((directory / _MANIFEST).read_text())
    store = StatisticsStore(directory)
    bundle, batches = store.load()  # for the batches' seq and meta
    statistics, __ = store.load_statistics()
    # Reconcile the manifest before truncating the journal: an append
    # that crashed between its WAL record and its manifest entry must
    # get the entry now, while the batch metadata is still journaled.
    appends = manifest.setdefault("appends", [])
    known = {entry["seq"] for entry in appends}
    for batch in batches:
        if batch.seq not in known and {"rows", "seed"} <= set(batch.meta):
            appends.append(
                {
                    "rows": batch.meta["rows"],
                    "seed": batch.meta["seed"],
                    "seq": batch.seq,
                }
            )
    # And the converse hole: an entry whose journal record did not
    # survive (bit-rot tore the tail, or the WAL was lost wholesale)
    # references a batch that exists nowhere. Left in place it would
    # collide with the next append to reuse its sequence number, so
    # prune anything beyond what this checkpoint actually folds.
    folded = max([bundle.wal_applied_seq, *(b.seq for b in batches)])
    orphans = [entry for entry in appends if entry["seq"] > folded]
    if orphans:
        appends[:] = [e for e in appends if e["seq"] <= folded]
        print(
            f"dropped {len(orphans)} append entries whose journal "
            "records were lost "
            f"(seqs {[e['seq'] for e in orphans]})"
        )
    appends.sort(key=lambda entry: entry["seq"])
    atomic_write_bytes(
        directory / _MANIFEST, json.dumps(manifest, indent=2).encode("utf-8")
    )
    applied = store.checkpoint(statistics)
    print(
        f"folded {len(batches)} journaled batches into {store.stats_path} "
        f"(stamped wal_applied_seq={applied}); journal truncated"
    )
    return 0


def _resolve_budget(budget: float, num_partitions: int) -> int:
    """``--budget``: a fraction of partitions below 1, a count from 1 up."""
    if not math.isfinite(budget):
        raise ConfigError(f"--budget must be a finite number, got {budget}")
    if budget >= 1.0:
        # A whole number is a count; ``2.7`` reaches the check as a float.
        count = int(budget) if budget.is_integer() else budget
        return resolve_budget(num_partitions, budget_partitions=count)
    return resolve_budget(num_partitions, budget_fraction=budget)


def _workload_queries(manifest: dict, system: PS3, count: int) -> list:
    generator = QueryGenerator(
        system.workload, system.ptable.table, seed=manifest["seed"] + 999
    )
    return generator.sample_queries(count)


def _cmd_query(args: argparse.Namespace) -> int:
    __, system = _load_deployment(args.deploy)
    query = parse_query(args.sql, system.ptable.schema)
    budget = _resolve_budget(args.budget, system.ptable.num_partitions)
    started = time.perf_counter()
    answer = system.query(query, budget_partitions=budget)
    query_ms = (time.perf_counter() - started) * 1e3
    picked = answer.selection
    print(
        f"read {len(picked.selection)}/{answer.num_partitions} partitions "
        f"({len(picked.outliers)} outliers) in {query_ms:.1f} ms"
    )
    print("\t".join(["group", *answer.aggregate_labels()]))
    for key in sorted(answer.groups, key=repr):
        rendered = [repr(key)] + [f"{v:.4f}" for v in answer.groups[key]]
        print("\t".join(rendered))
    if args.exact:
        report = system.evaluate(query, answer)
        print(
            f"vs exact: avg rel err {report.avg_relative_error:.4f}, "
            f"missed groups {report.missed_groups:.4f}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    manifest, system = _load_deployment(args.deploy)
    queries = _workload_queries(manifest, system, args.queries)
    budget = _resolve_budget(args.budget, system.ptable.num_partitions)
    answers = system.query_many(queries, budget_partitions=budget)
    mean = mean_report(
        [system.evaluate(query, answer) for query, answer in zip(queries, answers)]
    )
    print(
        f"{len(queries)} random workload queries @ {budget} partitions: "
        f"avg rel err {mean.avg_relative_error:.4f}, "
        f"missed groups {mean.missed_groups:.4f}, "
        f"abs/true {mean.abs_over_true:.4f}"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    manifest, system = _load_deployment(args.deploy)
    if args.queries > 0:
        # Drive the engine plane so the snapshot shows live counters and
        # latency histograms, not just the load-time storage metrics.
        queries = _workload_queries(manifest, system, args.queries)
        budget = _resolve_budget(args.budget, system.ptable.num_partitions)
        system.query_many(queries, budget_partitions=budget)
    print(json.dumps(system.metrics(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ps3-repro",
        description="PS3 (VLDB'20) reproduction: train and query deployments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list datasets, layouts, and workloads")

    train = sub.add_parser("train", help="build statistics and train a picker")
    train.add_argument("--dataset", required=True, choices=sorted(DATASETS))
    train.add_argument("--rows", type=int, default=20_000)
    train.add_argument("--partitions", type=int, default=64)
    train.add_argument("--layout", default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--train-queries", type=int, default=32)
    train.add_argument("--out", required=True, help="deployment directory")

    query = sub.add_parser("query", help="answer one SQL query approximately")
    query.add_argument("--deploy", required=True)
    query.add_argument(
        "--budget",
        type=float,
        default=0.1,
        help="fraction (<1) or absolute number (>=1) of partitions",
    )
    query.add_argument("--exact", action="store_true", help="also report error")
    query.add_argument("sql")

    evaluate = sub.add_parser(
        "evaluate", help="average error over random workload queries"
    )
    evaluate.add_argument("--deploy", required=True)
    evaluate.add_argument("--budget", type=float, default=0.1)
    evaluate.add_argument("--queries", type=int, default=10)

    append = sub.add_parser(
        "append",
        help="journal a synthetic batch of appended rows (WAL, crash-safe)",
    )
    append.add_argument("--deploy", required=True)
    append.add_argument("--rows", type=int, default=1000)
    append.add_argument(
        "--seed",
        type=int,
        default=None,
        help="batch generator seed (default: derived from the manifest)",
    )

    checkpoint = sub.add_parser(
        "checkpoint",
        help="fold journaled appends into a fresh atomic statistics bundle",
    )
    checkpoint.add_argument("--deploy", required=True)

    metrics = sub.add_parser(
        "metrics",
        help="print a JSON observability snapshot for a deployment",
    )
    metrics.add_argument("--deploy", required=True)
    metrics.add_argument(
        "--queries",
        type=int,
        default=0,
        help="answer this many generated queries first, so engine/picker "
        "metrics appear alongside the load-time storage metrics",
    )
    metrics.add_argument("--budget", type=float, default=0.1)
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "train": _cmd_train,
    "query": _cmd_query,
    "evaluate": _cmd_evaluate,
    "append": _cmd_append,
    "checkpoint": _cmd_checkpoint,
    "metrics": _cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
