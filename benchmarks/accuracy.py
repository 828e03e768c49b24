"""Accuracy gate: how far each method's answers are from the truth.

``benchmarks/e2e/`` times the system; this script scores its answers.
For each of the four datasets it builds one
:class:`~repro.bench.runner.ExperimentContext` at :data:`GATE_PROFILE`
(96 training queries), keeps the held-out queries whose true answer has
at least one group (an empty truth scores 0 or 1 whatever is read), and
scores PS3, random, random+filter, LSS and the oracle funnel at budgets
of 1, 3, 10 and 25 % of the partitions. A query's error is the paper's
average relative error (section 5.1.4); a randomized method's is the
mean over its runs. Per dataset, budget and method it reports

* ``rel_error_{median,mean,p90,max}`` over the queries;
* ``budget_ratio_vs_random``: the budget random sampling needs to reach
  the method's median error, over the method's budget (the paper's
  Figure 3 statistic). It is read off random's median-error curve,
  linear in log budget, whose last point is the full read (error 0);
  a method that random already matches at the smallest budget reads
  that budget over its own;
* ``oracle_gap``: the method's median minus the oracle funnel's.

``tests/accuracy/test_accuracy_gate.py`` bounds PS3's median and p90.
Every input is seeded, so a run is deterministic.

    PYTHONPATH=src python benchmarks/accuracy.py [--datasets kdd tpch]
        [--out TABLE.txt]
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from repro.bench.profiles import BenchProfile
from repro.bench.reporting import format_table
from repro.bench.runner import ExperimentContext

DATASETS = ("kdd", "tpch", "tpcds", "aria")
METHODS = ("ps3", "random", "random+filter", "lss", "oracle")
#: 200 partitions keep the 1 % budget at two partitions; 96 training
#: queries keep the slowest build (tpcds) near half a minute. 140
#: held-out queries leave at least 100 with a non-empty truth on every
#: dataset.
GATE_PROFILE = BenchProfile(
    name="gate",
    num_rows=120_000,
    num_partitions=200,
    train_queries=96,
    test_queries=140,
    budget_fractions=(0.01, 0.03, 0.10, 0.25),
    random_runs=5,
)
MIN_QUERIES = 100
STATS = ("rel_error_median", "rel_error_mean", "rel_error_p90", "rel_error_max")


def score_dataset(dataset: str) -> dict:
    """``{"queries": n, "partitions": N, "budgets": [...], "errors":
    {method: (n, budgets)}}``: ``errors[method][i, j]`` is the error of
    held-out query ``i`` at budget ``j``."""
    ctx = ExperimentContext.build(dataset, profile=GATE_PROFILE)
    prepared = [p for p in ctx.prepared if p.truth]
    methods = ctx.standard_methods()
    oracle = ctx.oracle_picker()
    methods["oracle"] = (lambda q, n, run: oracle.select(q, n), 1)
    budgets = GATE_PROFILE.budgets(ctx.num_partitions)
    errors = {name: np.zeros((len(prepared), len(budgets))) for name in METHODS}
    for i, item in enumerate(prepared):
        for name in METHODS:
            select_fn, runs = methods[name]
            for j, budget in enumerate(budgets):
                picks = [select_fn(item.query, budget, run) for run in range(runs)]
                picks = [getattr(p, "selection", p) for p in picks]
                reports = item.estimator.score_grid(picks)
                errors[name][i, j] = np.mean([r.avg_relative_error for r in reports])
    return {
        "queries": len(prepared),
        "partitions": ctx.num_partitions,
        "budgets": budgets,
        "errors": errors,
    }


def summarize(scored: dict) -> dict:
    """``{(method, budget %): {metric: value}}`` for one scored dataset."""
    num_partitions = scored["partitions"]
    budgets = scored["budgets"]
    errors = scored["errors"]
    medians = {name: np.median(errors[name], axis=0) for name in METHODS}
    out = {}
    for j, budget in enumerate(budgets):
        for name in METHODS:
            column = errors[name][:, j]
            out[(name, 100 * budget / num_partitions)] = {
                "rel_error_median": float(medians[name][j]),
                "rel_error_mean": float(column.mean()),
                "rel_error_p90": float(np.percentile(column, 90)),
                "rel_error_max": float(column.max()),
                "budget_ratio_vs_random": _random_budget(
                    medians["random"], budgets, num_partitions, medians[name][j]
                )
                / budget,
                "oracle_gap": float(medians[name][j] - medians["oracle"][j]),
            }
    return out


def _random_budget(
    random_medians: np.ndarray, budgets: list[int], n: int, target: float
) -> float:
    """Partitions random sampling needs for a median error of ``target``."""
    xs = [math.log(b) for b in budgets] + [math.log(n)]
    ys = list(random_medians) + [0.0]
    if ys[0] <= target:
        return float(budgets[0])
    for k in range(1, len(ys)):
        if ys[k] <= target:
            share = (ys[k - 1] - target) / (ys[k - 1] - ys[k])
            return math.exp(xs[k - 1] + share * (xs[k] - xs[k - 1]))
    return float(n)  # unreachable: the full read's error is 0


def render(dataset: str, queries: int, summary: dict) -> str:
    headers = ["budget %", "method", *STATS, "budget_ratio_vs_random", "oracle_gap"]
    rows = [
        [f"{pct:g}", name, *values.values()]
        for (name, pct), values in sorted(summary.items(), key=lambda kv: kv[0][1])
    ]
    title = f"{dataset}: {queries} held-out queries with a non-empty truth"
    return format_table(headers, rows, title=title)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", nargs="+", default=list(DATASETS))
    parser.add_argument("--out", help="also write the tables here")
    args = parser.parse_args(argv)
    tables = []
    for dataset in args.datasets:
        start = time.perf_counter()
        scored = score_dataset(dataset)
        summary = summarize(scored)
        tables.append(render(dataset, scored["queries"], summary))
        print(tables[-1], f"\n({time.perf_counter() - start:.1f} s)\n", flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n\n".join(tables) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
