"""Unit tests for the dict contribution walk the array path is held to."""

import numpy as np
import pytest
from scalar_oracle import partition_contributions


class TestContribution:
    def test_max_over_groups_and_components(self):
        answers = [
            {("a",): np.array([10.0, 1.0]), ("b",): np.array([0.0, 1.0])},
            {("a",): np.array([90.0, 1.0]), ("b",): np.array([0.0, 9.0])},
        ]
        contributions = partition_contributions(answers)
        # Partition 0: a-sum 10/100, a-count 1/2 -> 0.5 via count.
        assert contributions[0] == pytest.approx(0.5)
        assert contributions[1] == pytest.approx(0.9)

    def test_empty_partition_contributes_zero(self):
        answers = [{("a",): np.array([5.0])}, {}]
        contributions = partition_contributions(answers)
        assert contributions[1] == 0.0

    def test_single_partition_owns_everything(self):
        answers = [{("g",): np.array([3.0, 2.0])}]
        assert partition_contributions(answers)[0] == 1.0

    def test_signed_values_use_absolutes(self):
        answers = [
            {(): np.array([-50.0])},
            {(): np.array([150.0])},
        ]
        contributions = partition_contributions(answers)
        # Total is 100; |−50|/100 and |150|/100 capped at 1.
        assert contributions[0] == pytest.approx(0.5)
        assert contributions[1] == 1.0

    def test_zero_total_component_ignored(self):
        answers = [
            {(): np.array([1.0, 0.0])},
            {(): np.array([-1.0, 5.0])},
        ]
        contributions = partition_contributions(answers)
        # First component totals zero -> only the second drives ratios.
        assert contributions[0] == 0.0
        assert contributions[1] == 1.0

    def test_explicit_total_answer(self):
        answers = [{("g",): np.array([2.0])}]
        total = {("g",): np.array([10.0])}
        assert partition_contributions(answers, total)[0] == pytest.approx(0.2)

    def test_group_only_in_partition_ignored_without_total(self):
        answers = [{("g",): np.array([5.0])}]
        total = {("other",): np.array([10.0])}
        assert partition_contributions(answers, total)[0] == 0.0
