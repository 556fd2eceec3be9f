"""Tests for the greedy and Karmarkar-Karp (LDM) partitioners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import (greedy_partition, ldm_partition,
                            partition_quality, round_robin_partition)


def check_valid(assignment, costs, num_bins):
    assert len(assignment.bins) == num_bins
    all_items = sorted(i for b in assignment.bins for i in b)
    assert all_items == list(range(len(costs)))
    for b, load in zip(assignment.bins, assignment.loads):
        assert load == pytest.approx(sum(costs[i] for i in b))


class TestCostContract:
    """Every partitioner rejects a cost that is not a finite number >= 0,
    naming its index: a NaN or inf cost used to pass and come back as a
    NaN or inf bin load."""

    @pytest.mark.parametrize("partition", [greedy_partition, ldm_partition,
                                           round_robin_partition])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0,
                                     np.float64("nan")])
    def test_bad_cost_raises_naming_its_index(self, partition, bad):
        with pytest.raises(ValueError, match=r"costs\[1\]"):
            partition([1.0, bad, 2.0], 2)

    @pytest.mark.parametrize("partition", [greedy_partition, ldm_partition,
                                           round_robin_partition])
    def test_zero_and_numpy_costs_pass(self, partition):
        costs = [0, np.float64(2.5), np.int64(3), 0.0]
        a = partition(costs, 2)
        assert sorted(i for b in a.bins for i in b) == [0, 1, 2, 3]
        assert sum(a.loads) == pytest.approx(5.5)


class TestGreedy:
    def test_simple_case(self):
        a = greedy_partition([4, 3, 2, 1], 2)
        check_valid(a, [4, 3, 2, 1], 2)
        assert sorted(a.loads) == [5, 5]

    def test_single_bin(self):
        a = greedy_partition([1, 2, 3], 1)
        assert a.loads == [6]

    def test_more_bins_than_items(self):
        a = greedy_partition([5, 3], 4)
        check_valid(a, [5, 3], 4)
        assert sorted(a.loads) == [0, 0, 3, 5]

    def test_empty(self):
        a = greedy_partition([], 3)
        assert a.loads == [0.0, 0.0, 0.0]

    def test_negative_cost_raises(self):
        with pytest.raises(ValueError):
            greedy_partition([1, -1], 2)

    def test_zero_bins_raises(self):
        with pytest.raises(ValueError):
            greedy_partition([1], 0)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=0,
                    max_size=40),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=50)
    def test_valid_assignment_property(self, costs, k):
        check_valid(greedy_partition(costs, k), costs, k)


class TestLDM:
    def test_classic_kk_example(self):
        """{8,7,6,5,4} 2-way: the textbook KK trace gives 16/14 (spread 2):
        8,7->1; 6,5->1; 4,1->3; 3,1->2."""
        a = ldm_partition([8, 7, 6, 5, 4], 2)
        check_valid(a, [8, 7, 6, 5, 4], 2)
        assert a.spread == 2

    def test_beats_greedy_on_known_instance(self):
        """{8,7,6,5,4} 2-way: greedy LPT yields 17/13 (spread 4), KK 2."""
        costs = [8, 7, 6, 5, 4]
        g = greedy_partition(costs, 2)
        l = ldm_partition(costs, 2)
        assert g.spread == 4
        assert l.spread == 2

    def test_three_way(self):
        a = ldm_partition([9, 8, 7, 6, 5, 4, 3, 2, 1], 3)
        check_valid(a, [9, 8, 7, 6, 5, 4, 3, 2, 1], 3)
        assert a.spread <= 2  # optimal is 0 (15/15/15); LDM gets close

    def test_empty(self):
        a = ldm_partition([], 2)
        assert a.loads == [0.0, 0.0]

    def test_single_item(self):
        a = ldm_partition([7], 3)
        assert sorted(a.loads) == [0, 0, 7]

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=30),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=50)
    def test_valid_assignment_property(self, costs, k):
        check_valid(ldm_partition(costs, k), costs, k)

    def test_usually_no_worse_than_greedy(self):
        """Paper: LDM 'usually works better than the greedy heuristic'.
        Statistically verify over random instances."""
        rng = np.random.default_rng(0)
        wins = 0
        trials = 100
        for _ in range(trials):
            costs = rng.lognormal(mean=2.0, sigma=1.0, size=40).tolist()
            q = partition_quality(costs, 8)
            if q["ldm_spread"] <= q["greedy_spread"] + 1e-9:
                wins += 1
        assert wins >= trials * 0.7

    def test_imbalance_metric(self):
        a = ldm_partition([10, 10], 2)
        assert a.imbalance == pytest.approx(1.0)
