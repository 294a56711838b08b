"""Definitions and runners for the paper's figures.

Figures 1 and 2 plot NRMSE against the relative count of target edges
(``F/|E|``) at a fixed 5%·|V| budget, for Orkut and LiveJournal
respectively, using only the five proposed algorithms.
:func:`run_paper_figure` reproduces the underlying data series; plotting
is left to the caller (the benchmark harness prints the series, and
``examples/frequency_study.py`` shows how to turn it into a chart with
matplotlib if available).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datasets.registry import load_dataset, select_target_pairs
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import FrequencyPoint, frequency_sweep


@dataclass(frozen=True)
class FigureDefinition:
    """What one paper figure evaluates."""

    figure_number: int
    dataset: str
    budget_fraction: float
    num_pairs: int
    paper_observation: str


FIGURE_DEFINITIONS: Dict[int, FigureDefinition] = {
    1: FigureDefinition(
        figure_number=1,
        dataset="orkut",
        budget_fraction=0.05,
        num_pairs=8,
        paper_observation=(
            "NRMSE decreases as F/|E| grows; NeighborExploration dominates for rare "
            "labels, the two families converge for frequent labels."
        ),
    ),
    2: FigureDefinition(
        figure_number=2,
        dataset="livejournal",
        budget_fraction=0.05,
        num_pairs=8,
        paper_observation=(
            "Same trend as Orkut: the estimation error shrinks with the relative "
            "target-edge count and NeighborExploration wins at the rare end."
        ),
    ),
}


@dataclass
class PaperFigureResult:
    """A reproduced figure data series next to its definition."""

    definition: FigureDefinition
    points: List[FrequencyPoint]
    config: ExperimentConfig

    def series(self, algorithm: str) -> List[Tuple[float, float]]:
        """The ``(F/|E|, NRMSE)`` series of one algorithm, sorted by frequency."""
        return [
            (point.relative_count, point.nrmse_by_algorithm[algorithm])
            for point in self.points
            if algorithm in point.nrmse_by_algorithm
        ]

    def monotone_trend(self, algorithm: str) -> float:
        """Spearman-style sign statistic of NRMSE vs frequency.

        Returns a value in [-1, 1]; negative means the error tends to
        decrease as the relative target-edge count grows — the paper's
        finding (1) for both figures.
        """
        series = self.series(algorithm)
        if len(series) < 2:
            raise ExperimentError("need at least two points to measure a trend")
        concordant = 0
        discordant = 0
        for i in range(len(series)):
            for j in range(i + 1, len(series)):
                delta = (series[j][0] - series[i][0]) * (series[j][1] - series[i][1])
                if delta > 0:
                    concordant += 1
                elif delta < 0:
                    discordant += 1
        total = concordant + discordant
        return 0.0 if total == 0 else (concordant - discordant) / total


def run_paper_figure(
    figure_number: int,
    config: Optional[ExperimentConfig] = None,
) -> PaperFigureResult:
    """Reproduce the data series behind Figure 1 or Figure 2."""
    if figure_number not in FIGURE_DEFINITIONS:
        raise ExperimentError(
            f"unknown figure {figure_number}; available: {sorted(FIGURE_DEFINITIONS)}"
        )
    definition = FIGURE_DEFINITIONS[figure_number]
    if config is None:
        config = ExperimentConfig.quick(definition.dataset)

    dataset = load_dataset(
        definition.dataset,
        seed=config.seed,
        scale=config.scale,
        representation=config.representation,
    )
    pairs = select_target_pairs(dataset.graph, count=definition.num_pairs)
    points = frequency_sweep(
        dataset.graph,
        pairs,
        budget_fraction=definition.budget_fraction,
        repetitions=config.repetitions,
        burn_in=config.burn_in,
        seed=config.seed,
        execution=config.execution,
        n_jobs=config.n_jobs,
        reuse=config.reuse,
        journal=config.journal,
        resume=config.resume,
    )
    return PaperFigureResult(definition=definition, points=points, config=config)


__all__ = [
    "FigureDefinition",
    "FIGURE_DEFINITIONS",
    "PaperFigureResult",
    "run_paper_figure",
]
