"""Generator for the frozen v1/v2 ``.ps3stats`` compatibility fixtures.

The binary fixtures committed next to this script were produced by the
*pre-v3* writer (the tree as of PR 5, when ``_MAGIC_VERSION`` was 2):
``v2.ps3stats`` is a direct ``save_statistics(..., index=...)`` output
and ``v1.ps3stats`` is the same file with the manifest downgraded to
version 1 and the index/plan-key sections dropped — exactly the
downgrade recipe the v2-era tests used. ``expected.json`` records the
facts the compatibility suite asserts against.

The fixtures are frozen artifacts: they exist so future format changes
are tested against *real old bytes*, not against old bytes synthesized
by new code. Do not regenerate them with a post-v3 writer — if they are
ever lost, rebuild them from a checkout of the v2-era tree by running::

    PYTHONPATH=src python tests/storage/fixtures/make_fixtures.py

The dataset is fully deterministic (fixed seed, fixed schema), so the
regenerated bytes match the committed ones on the same numpy version.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.engine.layout import partition_evenly, sort_table
from repro.engine.schema import Column, ColumnKind, Schema
from repro.engine.table import Table
from repro.sketches.builder import build_dataset_statistics
from repro.sketches.columnar import ColumnarSketchIndex
from repro.storage import save_statistics

HERE = Path(__file__).resolve().parent

SCHEMA = Schema.of(
    Column("x", ColumnKind.NUMERIC, positive=True),
    Column("y", ColumnKind.NUMERIC),
    Column("d", ColumnKind.DATE),
    Column("cat", ColumnKind.CATEGORICAL, low_cardinality=True),
)


def build_fixture_stats():
    rng = np.random.default_rng(20260808)
    n = 240
    table = Table(
        SCHEMA,
        {
            "x": rng.exponential(10.0, n) + 1.0,
            "y": rng.normal(0.0, 5.0, n),
            "d": rng.integers(0, 60, n),
            "cat": rng.choice(["a", "b", "c"], n, p=[0.6, 0.3, 0.1]),
        },
    )
    ptable = partition_evenly(sort_table(table, "d"), 4)
    return build_dataset_statistics(ptable)


def downgrade_to_v1(v2_path: Path, v1_path: Path) -> None:
    raw = v2_path.read_bytes()
    (header_size,) = struct.unpack("<Q", raw[:8])
    manifest = json.loads(raw[8 : 8 + header_size])
    manifest["version"] = 1
    manifest.pop("index", None)
    manifest.pop("plan_cache_keys", None)
    header = json.dumps(manifest).encode("utf-8")
    v1_path.write_bytes(
        struct.pack("<Q", len(header)) + header + raw[8 + header_size :]
    )


def main() -> None:
    stats = build_fixture_stats()
    index = ColumnarSketchIndex.build(stats)
    v2 = HERE / "v2.ps3stats"
    save_statistics(
        stats, v2, index=index, plan_cache_keys=("frozen-plan-key",)
    )
    downgrade_to_v1(v2, HERE / "v1.ps3stats")
    expected = {
        "num_partitions": stats.num_partitions,
        "columns": list(stats.schema.names),
        "num_rows": [p.num_rows for p in stats.partitions],
        "global_heavy_hitters_cat": [
            v for v in stats.global_heavy_hitters["cat"]
        ],
        "x_means": [
            stats.partitions[p].columns["x"].measures.mean
            for p in range(stats.num_partitions)
        ],
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    print("wrote", v2, "and v1 sibling")


if __name__ == "__main__":
    main()
