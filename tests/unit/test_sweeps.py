"""Unit tests for the budget (table) and frequency sweeps."""

import pytest

from repro.datasets.registry import select_target_pairs
from repro.experiments.algorithms import PAPER_ALGORITHM_ORDER, build_algorithm_suite
from repro.experiments.runner import compare_algorithms
from repro.experiments.sweeps import FrequencyPoint, frequency_sweep


class TestSampleSizeSweep:
    def test_returns_table(self, gender_osn):
        suite = build_algorithm_suite(gender_osn, include_baselines=False)
        table = compare_algorithms(
            gender_osn,
            1,
            2,
            sample_fractions=[0.02, 0.05],
            repetitions=3,
            algorithms={"NeighborSample-HH": suite["NeighborSample-HH"]},
            burn_in=15,
            seed=5,
        )
        assert table.sample_fractions == [0.02, 0.05]
        assert "NeighborSample-HH" in table.cells


class TestFrequencySweep:
    @pytest.fixture(scope="class")
    def points(self, rare_label_osn):
        pairs = select_target_pairs(rare_label_osn, count=3, min_target_edges=5)
        return frequency_sweep(
            rare_label_osn,
            pairs,
            budget_fraction=0.05,
            repetitions=3,
            burn_in=20,
            seed=9,
        )

    def test_points_sorted_by_frequency(self, points):
        frequencies = [point.relative_count for point in points]
        assert frequencies == sorted(frequencies)

    def test_each_point_covers_proposed_algorithms(self, points):
        for point in points:
            assert set(point.nrmse_by_algorithm) == set(PAPER_ALGORITHM_ORDER)
            assert all(value >= 0 for value in point.nrmse_by_algorithm.values())

    def test_true_counts_positive(self, points):
        assert all(point.true_count > 0 for point in points)

    def test_zero_count_pairs_skipped(self, rare_label_osn):
        points = frequency_sweep(
            rare_label_osn,
            [(999, 998)],
            budget_fraction=0.02,
            repetitions=2,
            burn_in=10,
            seed=1,
        )
        assert points == []

    def test_point_dataclass(self):
        point = FrequencyPoint(target_pair=(1, 2), true_count=10, relative_count=0.01)
        assert point.nrmse_by_algorithm == {}
