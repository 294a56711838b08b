"""Unit tests for the paper-figure definitions and runner."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    FIGURE_DEFINITIONS,
    PaperFigureResult,
    run_paper_figure,
)
from repro.experiments.sweeps import FrequencyPoint


class TestDefinitions:
    def test_two_figures(self):
        assert set(FIGURE_DEFINITIONS) == {1, 2}
        assert FIGURE_DEFINITIONS[1].dataset == "orkut"
        assert FIGURE_DEFINITIONS[2].dataset == "livejournal"

    def test_budget_is_five_percent(self):
        assert all(d.budget_fraction == 0.05 for d in FIGURE_DEFINITIONS.values())


class TestMonotoneTrend:
    def make_result(self, series):
        definition = FIGURE_DEFINITIONS[1]
        points = [
            FrequencyPoint((i, i + 1), 10, frequency, {"Alg": value})
            for i, (frequency, value) in enumerate(series)
        ]
        config = ExperimentConfig.quick("orkut")
        return PaperFigureResult(definition=definition, points=points, config=config)

    def test_decreasing_series(self):
        result = self.make_result([(0.001, 0.9), (0.01, 0.5), (0.1, 0.1)])
        assert result.monotone_trend("Alg") == -1.0

    def test_increasing_series(self):
        result = self.make_result([(0.001, 0.1), (0.01, 0.5), (0.1, 0.9)])
        assert result.monotone_trend("Alg") == 1.0

    def test_flat_series(self):
        result = self.make_result([(0.001, 0.5), (0.01, 0.5)])
        assert result.monotone_trend("Alg") == 0.0

    def test_single_point_raises(self):
        result = self.make_result([(0.001, 0.5)])
        with pytest.raises(ExperimentError):
            result.monotone_trend("Alg")

    def test_series_extraction(self):
        result = self.make_result([(0.01, 0.4), (0.001, 0.8)])
        series = result.series("Alg")
        assert len(series) == 2


class TestRunPaperFigure:
    def test_unknown_figure(self):
        with pytest.raises(ExperimentError):
            run_paper_figure(3)

    def test_small_run(self):
        config = ExperimentConfig(
            dataset="orkut",
            repetitions=2,
            scale=0.05,
            seed=13,
        )
        result = run_paper_figure(1, config)
        assert result.definition.figure_number == 1
        assert len(result.points) >= 2
        for point in result.points:
            assert point.true_count > 0
            assert len(point.nrmse_by_algorithm) == 5
