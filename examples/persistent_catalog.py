"""Persistent catalog: save a trained PS3 deployment and reload it.

Production-shaped lifecycle: statistics are built when partitions seal
and live next to the data; the trained model is a separate artifact that
only changes on retraining. This example:

1. trains PS3 on the TPC-DS*-style table and saves both artifacts;
2. "restarts" by reloading them from disk (no retraining, no re-sketch);
3. answers SQL-text queries against the reloaded system;
4. runs the section-7 extensions: per-group confidence intervals (extra
   probe reads) and failure-case diagnostics;
5. appends new partitions and watches the staleness tracker trip.

Run:  python examples/persistent_catalog.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro import PS3
from repro.core.diagnostics import diagnose_query, estimate_with_confidence
from repro.core.picker import PickerConfig, PS3Picker
from repro.datasets import get_dataset
from repro.engine.batch_executor import BatchExecutor
from repro.engine.sql import parse_query
from repro.storage import load_model, load_statistics, save_model, save_statistics
from repro.workload import QueryGenerator


def main() -> None:
    spec = get_dataset("tpcds")
    print("Training PS3 on TPC-DS* (24k rows, 64 partitions)...")
    ptable = spec.build(num_rows=24_000, num_partitions=64, seed=17)
    workload = spec.workload()
    generator = QueryGenerator(workload, ptable.table, seed=23)
    ps3 = PS3(ptable, workload).fit(generator.sample_queries(32))

    catalog = Path(tempfile.mkdtemp(prefix="ps3_catalog_"))
    stats_path = catalog / "tpcds.ps3stats"
    model_path = catalog / "tpcds.model.json"
    save_statistics(ps3.statistics, stats_path)
    save_model(ps3.model, model_path)
    print(f"Saved catalog to {catalog}")
    print(f"  statistics: {stats_path.stat().st_size / 1024:.0f} KB")
    print(f"  model:      {model_path.stat().st_size / 1024:.0f} KB")

    print("\nReloading (as a fresh process would)...")
    statistics = load_statistics(stats_path)
    model = load_model(model_path, statistics)
    picker = PS3Picker(model, statistics, PickerConfig(seed=1))

    sql = (
        "SELECT SUM(cs_net_profit), COUNT(*) "
        "WHERE cs_quantity > 50 AND i_category IN ('category#01', 'category#02') "
        "GROUP BY cd_gender"
    )
    query = parse_query(sql, ptable.schema)
    print(f"\nSQL: {sql}")

    features = model.feature_builder.features_for_query(query)
    diagnostics = diagnose_query(query, features)
    print(f"diagnostics healthy: {diagnostics.healthy}")
    for recommendation in diagnostics.recommendations:
        print(f"  ! {recommendation}")

    started = time.perf_counter()
    result = picker.select(query, budget=8)
    select_ms = (time.perf_counter() - started) * 1e3
    print(f"picker chose {len(result.selection)} partitions "
          f"({len(result.outliers)} outliers) in {select_ms:.1f} ms")

    print("\nUnbiased estimate with 95% confidence intervals (2 probes/cluster):")
    answers = BatchExecutor.for_table(ptable).partition_answers(query)
    normalized = model.normalizer.transform(features.matrix)
    confident = estimate_with_confidence(
        answers, query, features, normalized, budget=8, probes_per_cluster=2
    )
    print(f"  partitions read incl. probes: {confident.partitions_read}")
    for key, interval in list(confident.groups.items())[:4]:
        print(
            f"  {key}: SUM(cs_net_profit) = {interval.estimate[0]:,.0f} "
            f"in [{interval.lower[0]:,.0f}, {interval.upper[0]:,.0f}]"
        )

    print("\nAppending 5 new partitions of fresh sales...")
    for seed in range(5):
        fresh = spec.generate(400, seed=1000 + seed)
        ps3.append(dict(fresh.columns))
    staleness = ps3.staleness()
    print(
        f"staleness: +{staleness.partitions_added} partitions "
        f"({staleness.fraction_new:.0%} of data), "
        f"heavy-hitter drift {staleness.heavy_hitter_drift:.2f} "
        f"-> retrain: {staleness.needs_retraining}"
    )


if __name__ == "__main__":
    main()
