"""Unit tests for budget allocation with decay rate alpha."""

import itertools
import random

import numpy as np
import pytest

from repro.core.allocation import allocate_samples
from repro.errors import ConfigError


class TestInvariants:
    def test_budget_exhausted_exactly(self):
        counts = allocate_samples([30, 20, 10], budget=12, alpha=2.0)
        assert sum(counts) == 12

    def test_counts_capped_by_sizes(self):
        counts = allocate_samples([3, 3, 3], budget=8, alpha=2.0)
        assert all(c <= s for c, s in zip(counts, [3, 3, 3]))
        assert sum(counts) == 8

    def test_budget_exceeding_total_takes_everything(self):
        counts = allocate_samples([4, 2], budget=100, alpha=2.0)
        assert counts == [4, 2]

    def test_zero_budget(self):
        assert allocate_samples([5, 5], budget=0, alpha=2.0) == [0, 0]

    def test_empty_groups(self):
        counts = allocate_samples([0, 10, 0], budget=4, alpha=2.0)
        assert counts[0] == 0 and counts[2] == 0
        assert counts[1] == 4


class TestDecayBehaviour:
    def test_important_groups_sample_at_higher_rate(self):
        sizes = [100, 100, 100]
        counts = allocate_samples(sizes, budget=70, alpha=2.0)
        rates = [c / s for c, s in zip(counts, sizes)]
        assert rates[0] < rates[1] < rates[2]
        assert rates[2] / rates[1] == pytest.approx(2.0, rel=0.25)

    def test_alpha_one_is_proportional(self):
        counts = allocate_samples([100, 100], budget=50, alpha=1.0)
        assert abs(counts[0] - counts[1]) <= 1

    def test_large_alpha_floods_top_group(self):
        counts = allocate_samples([100, 10], budget=12, alpha=100.0)
        assert counts[1] == 10  # most important group fully sampled

    def test_rate_ratio_tracks_alpha(self):
        counts = allocate_samples([100, 10], budget=12, alpha=16.0)
        rate0, rate1 = counts[0] / 100, counts[1] / 10
        assert rate1 / rate0 == pytest.approx(16.0, rel=0.5)

    def test_nonempty_groups_get_at_least_one_when_possible(self):
        counts = allocate_samples([50, 50, 50], budget=5, alpha=4.0)
        assert all(c >= 1 for c in counts)

    def test_single_group(self):
        assert allocate_samples([40], budget=7, alpha=2.0) == [7]

    def test_remainder_spill_fills_most_important_first(self):
        """Regression: hypothesis counterexample (PR 3).

        The remainder loop used to hand out one slot per group
        round-robin, so the third slot of this case landed on the tiny
        size-2 group at rank 2 and saturated it at rate 1.0 while the
        more important size-39 groups sat at ~0.38 — breaking rate
        monotonicity beyond integer-rounding slack. The spill must fill
        the most important non-full group to its cap before moving on.
        """
        sizes = [36, 41, 2, 39, 39, 2]
        counts = allocate_samples(sizes, budget=53, alpha=2.0)
        assert sum(counts) == 53
        rates = [c / s for c, s in zip(counts, sizes)]
        slack = 1.0 / min(sizes)
        for less, more in zip(rates, rates[1:]):
            assert more >= less - slack, (counts, rates)


class TestValidation:
    def test_alpha_below_one_rejected(self):
        with pytest.raises(ConfigError):
            allocate_samples([1], 1, alpha=0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        # Both used to pass the ``alpha < 1`` check and return [0, 10, 0]:
        # the most important group got no read.
        with pytest.raises(ConfigError, match="alpha"):
            allocate_samples([50, 30, 20], 10, alpha)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            allocate_samples([1], -1, alpha=2.0)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ConfigError):
            allocate_samples([-1, 2], 1, alpha=2.0)


def bisection_reference(group_sizes, budget, alpha):
    """The waterfill as array arithmetic: 60 bisection steps over numpy
    vectors (how ``allocate_samples`` was written before it became plain
    float arithmetic), kept here as the reference it must still equal."""
    sizes = np.asarray(group_sizes, dtype=np.float64)
    total_size = int(sizes.sum())
    if budget >= total_size:
        return [int(s) for s in sizes]
    if budget == 0 or total_size == 0:
        return [0] * len(sizes)
    ranks = np.arange(len(sizes), dtype=np.float64)
    rates = alpha**ranks

    def continuous_total(r):
        return float(np.minimum(sizes, r * rates * sizes).sum())

    lo, hi = 0.0, 1.0
    while continuous_total(hi) < budget:
        hi *= 2.0
    for __ in range(60):
        mid = (lo + hi) / 2.0
        if continuous_total(mid) < budget:
            lo = mid
        else:
            hi = mid
    counts = np.floor(np.minimum(sizes, hi * rates * sizes)).astype(int)
    nonempty = sizes > 0
    if counts.sum() + int((counts[nonempty] == 0).sum()) <= budget:
        counts[nonempty & (counts == 0)] = 1
    remainder = budget - int(counts.sum())
    for g in np.argsort(-ranks):
        if remainder <= 0:
            break
        take = min(remainder, int(sizes[g]) - int(counts[g]))
        if take > 0:
            counts[g] += take
            remainder -= take
    idx = 0
    while counts.sum() > budget:
        g = idx % len(sizes)
        if counts[g] > 0:
            counts[g] -= 1
        idx += 1
    return [int(c) for c in counts]


ALPHAS = (1.0, 2.0, 4.0)


def assert_same_as_reference(sizes, budget, alpha):
    assert allocate_samples(list(sizes), budget, alpha) == (
        bisection_reference(sizes, budget, alpha)
    ), (sizes, budget, alpha)


class TestAgainstTheArrayBisection:
    """Grid: at most 5 groups, sizes 0-12, budgets 0-40, alpha 1 / 2 / 4.

    The reference costs a third of a millisecond a call, so the fast set
    walks one and two groups exhaustively and samples the rest of the
    grid; the ``slow`` test walks all of three groups and a size ladder
    for four and five.
    """

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_one_and_two_groups_exhaustively(self, alpha):
        for groups in (1, 2):
            for sizes in itertools.product(range(13), repeat=groups):
                for budget in range(min(sum(sizes) + 2, 41)):
                    assert_same_as_reference(sizes, budget, alpha)

    def test_a_seeded_sample_of_three_to_five_groups(self):
        rng = random.Random(18)
        for __ in range(4000):
            sizes = [rng.randrange(13) for __ in range(rng.choice((3, 4, 5)))]
            budget = rng.randrange(min(sum(sizes) + 2, 41))
            assert_same_as_reference(sizes, budget, rng.choice(ALPHAS))

    @pytest.mark.slow
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_three_groups_exhaustively_and_a_ladder_for_more(self, alpha):
        for sizes in itertools.product(range(13), repeat=3):
            for budget in range(min(sum(sizes) + 2, 41)):
                assert_same_as_reference(sizes, budget, alpha)
        for groups in (4, 5):
            for sizes in itertools.product((0, 1, 2, 3, 5, 8, 12), repeat=groups):
                for budget in range(0, min(sum(sizes) + 2, 41), groups - 2):
                    assert_same_as_reference(sizes, budget, alpha)
