"""Persistent catalog: save a trained PS3 deployment and reopen it.

Production-shaped lifecycle: statistics are built when partitions seal
and live next to the data; the trained model is a separate artifact that
only changes on retraining. This example:

1. trains PS3 on the TPC-DS*-style table, checkpoints its statistics
   into a catalog directory and saves the model next to them;
2. journals one more appended partition, then "crashes" (drops the
   system) before the next checkpoint;
3. reopens with ``PS3.open`` — no retraining, no re-sketch, the journaled
   partition replayed — and answers SQL-text queries on the reopened
   system, scoring one against the exact answer;
4. appends new partitions to the reopened system and watches the
   staleness tracker trip.

Run:  python examples/persistent_catalog.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import PS3
from repro.datasets import get_dataset
from repro.engine.sql import parse_query
from repro.storage import save_model
from repro.workload import QueryGenerator


def main() -> None:
    spec = get_dataset("tpcds")
    print("Training PS3 on TPC-DS* (24k rows, 64 partitions)...")
    ptable = spec.build(num_rows=24_000, num_partitions=64, seed=17)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=23)
    ps3 = PS3(ptable, workload).fit(generator.sample_queries(32))

    catalog = Path(tempfile.mkdtemp(prefix="ps3_catalog_"))
    model_path = catalog / "tpcds.model.json"
    store = ps3.attach_store(catalog)
    ps3.checkpoint()
    save_model(ps3.model, model_path)
    print(f"Saved catalog to {catalog}")
    print(f"  statistics: {store.stats_path.stat().st_size / 1024:.0f} KB")
    print(f"  model:      {model_path.stat().st_size / 1024:.0f} KB")

    ps3.append(dict(spec.generate(400, seed=999).columns))
    print("Journaled one appended partition, then lost the process...")
    del ps3

    print("\nReopening (as a fresh process would)...")
    reopened = PS3.open(ptable, workload, catalog, model_path)
    print(
        f"  {reopened.ptable.num_partitions} partitions: the checkpoint's "
        f"{ptable.num_partitions} + the journal's replayed tail"
    )

    sql = (
        "SELECT SUM(cs_net_profit), COUNT(*) "
        "WHERE cs_quantity > 50 AND i_category IN ('category#01', 'category#02') "
        "GROUP BY cd_gender"
    )
    query = parse_query(sql, reopened.ptable.schema)
    print(f"\nSQL: {sql}")

    answer = reopened.query(query, budget_partitions=8)
    picked = answer.selection
    print(
        f"read {len(picked.selection)}/{answer.num_partitions} partitions "
        f"({len(picked.outliers)} outliers):"
    )
    for key in sorted(answer.groups, key=repr):
        total, count = answer.groups[key]
        print(f"  {key}: SUM(cs_net_profit) = {total:,.0f}, COUNT(*) = {count:,.0f}")

    report = reopened.evaluate(query, answer)
    print(
        f"error vs the exact answer: avg relative {report.avg_relative_error:.3f}, "
        f"missed groups {report.missed_groups:.2f}"
    )

    print("\nAppending 5 new partitions of fresh sales to the reopened system...")
    for seed in range(5):
        fresh = spec.generate(400, seed=1000 + seed)
        reopened.append(dict(fresh.columns))
    staleness = reopened.staleness()
    print(
        f"staleness: +{staleness.partitions_added} partitions "
        f"({staleness.fraction_new:.0%} of data), "
        f"heavy-hitter drift {staleness.heavy_hitter_drift:.2f} "
        f"-> retrain: {staleness.needs_retraining}"
    )


if __name__ == "__main__":
    main()
