"""Unit tests for the three error metrics (paper section 5.1.4).

The dict path (:func:`evaluate_errors`) and the array twin
(:func:`evaluate_errors_grid`, here a grid of one candidate) share
semantics and must report identically; the shared cases here run through
both.
"""

import numpy as np
import pytest

from repro.core.metrics import (
    ErrorReport,
    evaluate_errors,
    evaluate_errors_grid,
    mean_report,
)


def answer(**groups):
    return {(k,): np.asarray(v, dtype=float) for k, v in groups.items()}


def as_block(truth, estimate):
    """Lower two FinalAnswer dicts to the block form (shared key codes)."""
    keys = sorted(set(truth) | set(estimate))
    num_aggs = len(next(iter((truth or estimate).values()), np.zeros(1)))
    true_values = np.zeros((len(keys), num_aggs))
    est_values = np.zeros((len(keys), num_aggs))
    true_present = np.zeros(len(keys), dtype=bool)
    est_present = np.zeros(len(keys), dtype=bool)
    for g, key in enumerate(keys):
        if key in truth:
            true_values[g] = truth[key]
            true_present[g] = True
        if key in estimate:
            est_values[g] = estimate[key]
            est_present[g] = True
    return true_values, true_present, est_values, est_present


def one_candidate(true_values, true_present, est_values, est_present):
    """The array twin on a single estimate: a grid of one."""
    [report] = evaluate_errors_grid(
        true_values, true_present, est_values[None], est_present[None]
    )
    return report


def both_paths(truth, estimate):
    """Evaluate through the dict path and the array twin; require identity."""
    dict_report = evaluate_errors(truth, estimate)
    block_report = one_candidate(*as_block(truth, estimate))
    assert dict_report == block_report
    return dict_report


class TestMissedGroups:
    def test_no_misses(self):
        truth = answer(a=[1.0], b=[2.0])
        report = both_paths(truth, truth)
        assert report.missed_groups == 0.0
        assert report.avg_relative_error == 0.0
        assert report.abs_over_true == 0.0

    def test_half_missed(self):
        truth = answer(a=[1.0], b=[2.0])
        report = both_paths(truth, answer(a=[1.0]))
        assert report.missed_groups == 0.5

    def test_spurious_groups_ignored(self):
        truth = answer(a=[1.0])
        estimate = answer(a=[1.0], ghost=[99.0])
        report = both_paths(truth, estimate)
        assert report.missed_groups == 0.0
        assert report.avg_relative_error == 0.0


class TestRelativeError:
    def test_simple_ratio(self):
        truth = answer(a=[10.0])
        report = both_paths(truth, answer(a=[12.0]))
        assert report.avg_relative_error == pytest.approx(0.2)

    def test_missed_group_counts_as_one(self):
        truth = answer(a=[10.0], b=[10.0])
        report = both_paths(truth, answer(a=[10.0]))
        assert report.avg_relative_error == pytest.approx(0.5)

    def test_zero_truth_zero_estimate_is_exact(self):
        truth = answer(a=[0.0])
        assert both_paths(truth, answer(a=[0.0])).avg_relative_error == 0.0

    def test_zero_truth_nonzero_estimate_counts_one(self):
        truth = answer(a=[0.0])
        assert both_paths(truth, answer(a=[5.0])).avg_relative_error == 1.0

    def test_multiple_aggregates_averaged(self):
        truth = {("a",): np.array([10.0, 100.0])}
        estimate = {("a",): np.array([11.0, 100.0])}
        report = both_paths(truth, estimate)
        assert report.avg_relative_error == pytest.approx(0.05)


class TestAbsOverTrue:
    def test_scale_normalized(self):
        truth = answer(a=[100.0], b=[300.0])
        estimate = answer(a=[110.0], b=[310.0])
        report = both_paths(truth, estimate)
        # mean abs err 10 over mean true 200.
        assert report.abs_over_true == pytest.approx(0.05)

    def test_missed_groups_contribute_full_value(self):
        truth = answer(a=[100.0], b=[100.0])
        estimate = answer(a=[100.0])
        report = both_paths(truth, estimate)
        assert report.abs_over_true == pytest.approx(0.5)


class TestEmptyTruth:
    """Pinned semantics: an empty true answer is exactly approximated by
    an empty estimate; a non-empty estimate of an empty truth is pure
    invented signal and scores one full relative error (the per-group
    zero-truth/non-zero-estimate rule lifted to the whole answer)."""

    def test_empty_truth_empty_estimate_is_exact(self):
        assert both_paths({}, {}) == ErrorReport(0.0, 0.0, 0.0)

    def test_empty_truth_nonempty_estimate_counts_one(self):
        report = both_paths({}, answer(ghost=[5.0]))
        assert report == ErrorReport(0.0, 1.0, 0.0)

    def test_block_truth_present_nowhere(self):
        # Grouped zero-match queries carry group slots with all-false
        # presence; that is the block form of an empty truth.
        true_present = np.zeros(2, dtype=bool)
        est_present = np.array([True, False])
        values = np.zeros((2, 1))
        report = one_candidate(values, true_present, values, est_present)
        assert report == ErrorReport(0.0, 1.0, 0.0)
        report = one_candidate(
            values, true_present, values, np.zeros(2, dtype=bool)
        )
        assert report == ErrorReport(0.0, 0.0, 0.0)


class TestEvaluateErrorsGrid:
    """The batched twin must report exactly what the dict walk reports
    on each candidate's own answer, row for row."""

    def _random_grid(self, seed, candidates=7, groups=5, aggs=3):
        rng = np.random.default_rng(seed)
        true_values = rng.normal(0.0, 50.0, (groups, aggs))
        true_values[rng.random((groups, aggs)) < 0.2] = 0.0
        true_present = rng.random(groups) < 0.8
        est_values = rng.normal(0.0, 50.0, (candidates, groups, aggs))
        est_values[rng.random((candidates, groups, aggs)) < 0.2] = 0.0
        est_present = rng.random((candidates, groups)) < 0.7
        return true_values, true_present, est_values, est_present

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_identical_to_dict_walk(self, seed):
        true_values, true_present, est_values, est_present = self._random_grid(
            seed
        )
        reports = evaluate_errors_grid(
            true_values, true_present, est_values, est_present
        )
        assert len(reports) == est_values.shape[0]
        truth = {(g,): true_values[g] for g in np.flatnonzero(true_present)}
        for k, report in enumerate(reports):
            estimate = {(g,): est_values[k, g] for g in np.flatnonzero(est_present[k])}
            assert report == evaluate_errors(truth, estimate), k
            assert report == one_candidate(
                true_values, true_present, est_values[k], est_present[k]
            ), k

    def test_empty_truth_mixes_exact_and_spurious_rows(self):
        true_values = np.zeros((2, 1))
        true_present = np.zeros(2, dtype=bool)
        est_values = np.zeros((3, 2, 1))
        est_present = np.array(
            [[False, False], [True, False], [False, True]]
        )
        reports = evaluate_errors_grid(
            true_values, true_present, est_values, est_present
        )
        assert reports == [
            ErrorReport(0.0, 0.0, 0.0),
            ErrorReport(0.0, 1.0, 0.0),
            ErrorReport(0.0, 1.0, 0.0),
        ]

    def test_empty_candidate_grid(self):
        true_values = np.ones((2, 1))
        true_present = np.ones(2, dtype=bool)
        reports = evaluate_errors_grid(
            true_values,
            true_present,
            np.zeros((0, 2, 1)),
            np.zeros((0, 2), dtype=bool),
        )
        assert reports == []


class TestEdgesAndAggregation:

    def test_mean_report(self):
        reports = [ErrorReport(0.0, 0.2, 0.1), ErrorReport(1.0, 0.4, 0.3)]
        mean = mean_report(reports)
        assert mean.missed_groups == 0.5
        assert mean.avg_relative_error == pytest.approx(0.3)
        assert mean.abs_over_true == pytest.approx(0.2)

    def test_mean_of_nothing(self):
        assert mean_report([]) == ErrorReport(0.0, 0.0, 0.0)
