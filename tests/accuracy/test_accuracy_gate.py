"""Accuracy gate: PS3's error may not grow past its recorded values.

``benchmarks/accuracy.py`` scores PS3, its baselines and the oracle
funnel on ``kdd``, ``tpch``, ``tpcds`` and ``aria`` (96 training queries,
at least 100 held-out queries with a non-empty truth, budgets of 1, 3,
10 and 25 %). This gate bounds PS3's median and p90 of the per-query
average relative error, per dataset and budget, at the values recorded
below plus a margin. A bit-changing optimisation (a new hash, float32
boosting, another clustering fit) is acceptable when the gate holds.

``RECORDED`` was measured with this gate's code on the commit before
numeric AKMV sketches moved from blake2b to the splitmix64 mix, the
first change made behind the gate. Every input is seeded, so a run
reproduces its table exactly. What moves a statistic is a change to the
trained model, and two equally good models already differ: retraining
that commit with training seeds 1 and 2 instead of 0 raised a PS3
statistic above its recorded value by up to 0.142 and 0.124 times
random sampling's same statistic at that budget (and by up to 21 % of
its own value, since medians near 0.01 move by whole queries). So the
margin is stated in units of random sampling's error: PS3 may give back
``MARGIN`` of it, which covers those retrainings and no more.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "accuracy.py"

#: A PS3 median (p90) may exceed its recorded value by this share of
#: random sampling's recorded median (p90) at the same budget.
MARGIN = 0.15

#: dataset -> budget % -> (PS3 median, PS3 p90, random median, random
#: p90) of the per-query average relative error.
RECORDED = {
    "kdd": {
        1: (0.3268, 1.2307, 0.7266, 1.3379),
        3: (0.1472, 0.8348, 0.4065, 1.0333),
        10: (0.0840, 0.5106, 0.2017, 0.7980),
        25: (0.0393, 0.2888, 0.1106, 0.4473),
    },
    "tpch": {
        1: (0.1386, 1.1817, 0.4248, 1.4237),
        3: (0.0731, 0.6867, 0.2182, 1.0000),
        10: (0.0354, 0.2764, 0.1048, 0.5433),
        25: (0.0141, 0.1335, 0.0606, 0.2889),
    },
    "tpcds": {
        1: (0.1598, 1.0000, 0.3984, 1.3271),
        3: (0.0824, 0.6917, 0.2194, 1.0000),
        10: (0.0428, 0.3715, 0.1065, 0.8990),
        25: (0.0203, 0.1617, 0.0655, 0.4798),
    },
    "aria": {
        1: (0.5862, 1.3882, 0.7459, 1.8649),
        3: (0.4185, 1.3748, 0.5085, 1.5956),
        10: (0.2363, 1.2095, 0.2827, 1.3872),
        25: (0.1177, 0.9979, 0.1513, 1.0086),
    },
}


@pytest.fixture(scope="module")
def accuracy():
    spec = importlib.util.spec_from_file_location("accuracy_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_cover_every_dataset_and_budget(accuracy):
    budgets = {100 * f for f in accuracy.GATE_PROFILE.budget_fractions}
    assert set(RECORDED) == set(accuracy.DATASETS)
    for recorded in RECORDED.values():
        assert set(recorded) == budgets


@pytest.mark.parametrize("dataset", sorted(RECORDED))
def test_ps3_error_within_recorded(accuracy, dataset):
    scored = accuracy.score_dataset(dataset)
    assert scored["queries"] >= accuracy.MIN_QUERIES
    summary = accuracy.summarize(scored)
    for pct, (median, p90, random_median, random_p90) in RECORDED[dataset].items():
        values = summary[("ps3", pct)]
        median_bound = median + MARGIN * random_median
        p90_bound = p90 + MARGIN * random_p90
        assert values["rel_error_median"] <= median_bound, (pct, values)
        assert values["rel_error_p90"] <= p90_bound, (pct, values)
