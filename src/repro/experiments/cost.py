"""API-cost profiling: what a sample budget actually costs in page downloads.

The paper's budget axis equates one walk sample with one API call, which
is exact for NeighborSample but optimistic for NeighborExploration (each
explored node also downloads the profile pages of its neighbors) and for
the line-graph baselines (one ``G'`` step reads two friend lists).  This
module measures the *charged* API calls of every algorithm at a given
sample budget, so the trade-off accuracy-vs-crawl-cost can be reported
explicitly (the `bench_api_cost` benchmark and EXPERIMENTS.md use it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.experiments.algorithms import AlgorithmRunner, build_algorithm_suite
from repro.experiments.runner import run_trials
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.utils.rng import RandomSource
from repro.utils.validation import check_positive_int
from repro.walks.mixing import recommended_burn_in


@dataclass(frozen=True)
class CostProfile:
    """Charged API calls of one algorithm at one sample budget."""

    algorithm: str
    sample_size: int
    mean_api_calls: float
    calls_per_sample: float
    mean_estimate: float


def profile_api_costs(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    sample_size: int,
    repetitions: int = 3,
    algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
    burn_in: Optional[int] = None,
    seed: RandomSource = 7,
) -> Dict[str, CostProfile]:
    """Measure charged API calls per algorithm for a fixed sample budget.

    Each algorithm is one :func:`~repro.experiments.runner.run_trials`
    cell on the dict reference engine: every repetition uses a fresh,
    caching API wrapper (distinct page downloads are charged once, as in
    the paper's accounting).  Like any cell, a pair with no target edges
    raises :class:`~repro.exceptions.ExperimentError`.
    """
    check_positive_int(sample_size, "sample_size")
    check_positive_int(repetitions, "repetitions")
    if algorithms is None:
        algorithms = build_algorithm_suite(graph)
    if burn_in is None:
        burn_in = recommended_burn_in(graph, rng=seed)

    profiles: Dict[str, CostProfile] = {}
    for name, runner in algorithms.items():
        outcome = run_trials(
            graph, t1, t2, runner, name, sample_size, repetitions, burn_in, seed=seed
        )
        profiles[name] = CostProfile(
            algorithm=name,
            sample_size=sample_size,
            mean_api_calls=outcome.mean_api_calls,
            calls_per_sample=outcome.mean_api_calls / sample_size,
            mean_estimate=outcome.mean_estimate,
        )
    return profiles


def format_cost_table(profiles: Mapping[str, CostProfile]) -> str:
    """Render cost profiles as a fixed-width text table."""
    lines = [
        f"{'Algorithm':<26}{'k':>8}{'mean API calls':>18}{'calls per sample':>20}",
    ]
    for profile in profiles.values():
        lines.append(
            f"{profile.algorithm:<26}{profile.sample_size:>8}"
            f"{profile.mean_api_calls:>18.1f}{profile.calls_per_sample:>20.2f}"
        )
    return "\n".join(lines)


__all__ = ["CostProfile", "profile_api_costs", "format_cost_table"]
