"""Unit tests for the experiment configuration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import DEFAULT_SAMPLE_FRACTIONS, ExperimentConfig


class TestDefaults:
    def test_default_sample_fractions_match_paper(self):
        assert DEFAULT_SAMPLE_FRACTIONS[0] == pytest.approx(0.005)
        assert DEFAULT_SAMPLE_FRACTIONS[-1] == pytest.approx(0.05)
        assert len(DEFAULT_SAMPLE_FRACTIONS) == 10

    def test_paper_faithful_preset(self):
        config = ExperimentConfig.paper_faithful("facebook")
        assert config.repetitions == 200
        assert config.sample_fractions == DEFAULT_SAMPLE_FRACTIONS
        assert config.scale == 1.0

    def test_quick_preset(self):
        config = ExperimentConfig.quick("pokec", target_pair_index=2)
        assert config.repetitions == 10
        assert config.dataset == "pokec"
        assert config.target_pair_index == 2


class TestValidation:
    def test_invalid_repetitions(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", repetitions=0)

    def test_empty_sample_fractions(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", sample_fractions=())

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", sample_fractions=(0.0,))

    def test_invalid_execution(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", execution="warp")

    def test_invalid_n_jobs(self):
        with pytest.raises(Exception):
            ExperimentConfig(dataset="facebook", n_jobs=0)

    def test_fleet_execution_accepted(self):
        config = ExperimentConfig(dataset="facebook", execution="fleet", n_jobs=4)
        assert config.execution == "fleet"
        assert config.n_jobs == 4

    def test_negative_pair_index(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", target_pair_index=-1)


class TestOverrides:
    def test_with_overrides_returns_new_instance(self):
        config = ExperimentConfig.quick("facebook")
        updated = config.with_overrides(repetitions=3)
        assert updated.repetitions == 3
        assert config.repetitions == 10


class TestGraphStoreConfig:
    def test_graph_store_is_not_a_field(self):
        """A dataset lives in RAM; the n_jobs pool publishes it to shm itself."""
        with pytest.raises(TypeError, match="graph_store"):
            ExperimentConfig(dataset="facebook", graph_store="ram")
