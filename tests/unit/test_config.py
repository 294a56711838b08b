"""Unit tests for the experiment configuration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.config import (
    DEFAULT_SAMPLE_FRACTIONS,
    ENV_JOBS,
    ENV_REPETITIONS,
    ENV_SCALE,
    ExperimentConfig,
)


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

    def test_jobs_environment_override(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        config = ExperimentConfig(dataset="facebook").apply_environment()
        assert config.n_jobs == 3

    def test_pinned_fields_beat_environment(self, monkeypatch):
        """Explicit values (CLI flags) must not be stomped by REPRO_*."""
        monkeypatch.setenv(ENV_JOBS, "16")
        monkeypatch.setenv(ENV_REPETITIONS, "500")
        config = ExperimentConfig(
            dataset="facebook",
            repetitions=7,
            n_jobs=1,
            pinned=("repetitions", "n_jobs"),
        ).apply_environment()
        assert config.n_jobs == 1
        assert config.repetitions == 7

    def test_negative_pair_index(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", target_pair_index=-1)


class TestOverrides:
    def test_with_overrides_returns_new_instance(self):
        config = ExperimentConfig.quick("facebook")
        updated = config.with_overrides(repetitions=3)
        assert updated.repetitions == 3
        assert config.repetitions == 10

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv(ENV_REPETITIONS, "7")
        monkeypatch.setenv(ENV_SCALE, "0.125")
        config = ExperimentConfig.quick("facebook").apply_environment()
        assert config.repetitions == 7
        assert config.scale == 0.125

    def test_environment_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_REPETITIONS, raising=False)
        monkeypatch.delenv(ENV_SCALE, raising=False)
        config = ExperimentConfig.quick("facebook")
        assert config.apply_environment() == config


class TestGraphStoreConfig:
    def test_graph_store_is_not_a_field(self):
        """A dataset lives in RAM; the n_jobs pool publishes it to shm itself."""
        with pytest.raises(TypeError, match="graph_store"):
            ExperimentConfig(dataset="facebook", graph_store="ram")
