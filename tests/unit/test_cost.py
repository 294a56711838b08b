"""Unit tests for the API-cost profiling helper."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.cost import CostProfile, format_cost_table, profile_api_costs
from repro.experiments.runner import run_trials


@pytest.fixture(scope="module")
def profiles(gender_osn):
    suite = build_algorithm_suite(gender_osn, include_baselines=False)
    return profile_api_costs(
        gender_osn,
        1,
        2,
        sample_size=50,
        repetitions=2,
        algorithms=suite,
        burn_in=20,
        seed=3,
    )


class TestProfileAPICosts:
    def test_one_profile_per_algorithm(self, profiles):
        assert set(profiles) == {
            "NeighborSample-HH",
            "NeighborSample-HT",
            "NeighborExploration-HH",
            "NeighborExploration-HT",
            "NeighborExploration-RW",
        }

    def test_fields(self, profiles):
        for profile in profiles.values():
            assert isinstance(profile, CostProfile)
            assert profile.sample_size == 50
            assert profile.mean_api_calls > 0
            assert profile.calls_per_sample == pytest.approx(
                profile.mean_api_calls / 50
            )

    def test_exploration_costs_more_than_sampling(self, profiles):
        """With abundant labels every sampled node is explored, so
        NeighborExploration must download far more pages per sample."""
        exploration = profiles["NeighborExploration-HH"].mean_api_calls
        sampling = profiles["NeighborSample-HH"].mean_api_calls
        assert exploration > sampling

    def test_profile_is_a_run_trials_cell(self, gender_osn, profiles):
        """One profile is one reference-engine cell at the same seed."""
        suite = build_algorithm_suite(gender_osn, include_baselines=False)
        name = "NeighborExploration-HT"
        outcome = run_trials(gender_osn, 1, 2, suite[name], name, 50, 2, 20, seed=3)
        profile = profiles[name]
        assert profile.mean_api_calls == outcome.mean_api_calls
        assert profile.mean_estimate == outcome.mean_estimate

    def test_zero_target_pair_raises(self, gender_osn):
        with pytest.raises(ExperimentError, match="no target edges"):
            profile_api_costs(gender_osn, "ghost", "ghost", sample_size=5, burn_in=5)

    def test_invalid_arguments(self, gender_osn):
        with pytest.raises(Exception):
            profile_api_costs(gender_osn, 1, 2, sample_size=0, burn_in=5)

    def test_format_cost_table(self, profiles):
        text = format_cost_table(profiles)
        assert "calls per sample" in text
        assert "NeighborExploration-RW" in text
        assert len(text.splitlines()) == 1 + len(profiles)
