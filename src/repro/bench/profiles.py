"""Benchmark scale profiles.

The paper's evaluation runs TB-scale data on production clusters; the
reproduction scales row counts down while keeping the *ratios* that drive
the results (partitions per dataset, training queries per workload,
budget sweeps). ``REPRO_BENCH_PROFILE=quick|default|full`` selects a
profile globally; benchmarks read it via :func:`get_profile`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class BenchProfile:
    """Scale knobs shared by every benchmark."""

    name: str
    num_rows: int
    num_partitions: int
    train_queries: int
    test_queries: int
    budget_fractions: tuple[float, ...]
    random_runs: int  # repetitions for randomized methods (paper: 10)
    seed: int = 7

    def budgets(self, num_partitions: int | None = None) -> list[int]:
        n = num_partitions or self.num_partitions
        return [max(1, int(round(f * n))) for f in self.budget_fractions]


PROFILES: dict[str, BenchProfile] = {
    "quick": BenchProfile(
        name="quick",
        num_rows=12_000,
        num_partitions=48,
        train_queries=24,
        test_queries=10,
        budget_fractions=(0.05, 0.1, 0.2, 0.4),
        random_runs=3,
    ),
    "default": BenchProfile(
        name="default",
        num_rows=40_000,
        num_partitions=96,
        train_queries=48,
        test_queries=20,
        budget_fractions=(0.02, 0.05, 0.1, 0.2, 0.3, 0.5),
        random_runs=5,
    ),
    "full": BenchProfile(
        name="full",
        num_rows=120_000,
        num_partitions=192,
        train_queries=96,
        test_queries=30,
        budget_fractions=(0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7),
        random_runs=10,
    ),
}


def get_profile(name: str | None = None) -> BenchProfile:
    """The active profile (argument > env var > 'default')."""
    chosen = name or os.environ.get("REPRO_BENCH_PROFILE", "default")
    try:
        return PROFILES[chosen]
    except KeyError:
        raise ConfigError(
            f"unknown profile {chosen!r}; choose from {tuple(PROFILES)}"
        ) from None
