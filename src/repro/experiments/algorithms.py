"""The full suite of ten algorithms evaluated in the paper's tables.

:func:`build_algorithm_suite` returns, for a given graph, a mapping from
Table 2 abbreviation to a runner with the uniform signature

    ``run(api, t1, t2, k, burn_in, rng) -> EstimateResult``

The five proposed algorithms come straight from
:data:`repro.core.pipeline.ALGORITHMS`; the five EX-* baselines need the
graph because the MD/GMD walks require the maximum degree of the line
graph ``G'`` (an oracle parameter, granted to the baselines as in the
paper's favourable setting).  Both substrates work: on a
:class:`~repro.graph.csr.CSRGraph` the oracle parameter is computed
vectorized, so full ten-algorithm suites build at million-node scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines import (
    BASELINE_NAMES,
    line_graph_max_degree,
    make_baseline,
)
from repro.core.estimators.base import EstimateResult
from repro.core.pipeline import ALGORITHMS
from repro.exceptions import ConfigurationError
from repro.graph.labeled_graph import LabeledGraph

AlgorithmRunner = Callable[..., EstimateResult]

#: The paper's proposed algorithms, in Table 2 order.
PAPER_ALGORITHM_ORDER: List[str] = [
    "NeighborSample-HH",
    "NeighborSample-HT",
    "NeighborExploration-HH",
    "NeighborExploration-HT",
    "NeighborExploration-RW",
]

#: All ten algorithms, in the row order of Tables 4–17.
ALL_ALGORITHM_ORDER: List[str] = PAPER_ALGORITHM_ORDER + [
    "EX-MDRW",
    "EX-MHRW",
    "EX-RW",
    "EX-RCMH",
    "EX-GMD",
]


@dataclass(frozen=True)
class BaselineRunner:
    """Picklable runner wrapping one EX-* baseline instance.

    Called directly (the sequential path) it runs the reference
    line-graph engine.  Under ``execution="fleet"`` /
    ``reuse="prefix"`` the harness reads the wrapped baseline off this
    runner and vectorizes it as an implicit line-graph fleet
    (:mod:`repro.baselines.fleet`).  Carrying the baseline object
    (tuning knobs included) keeps tuned suites intact across the
    ``n_jobs`` process boundary and lets the fleet path honor the same
    ``alpha`` / ``delta`` / line-max-degree configuration.
    """

    baseline: object

    def __call__(self, api, t1, t2, k, burn_in, rng) -> EstimateResult:
        return self.baseline.estimate(api, t1, t2, k, burn_in=burn_in, rng=rng)


def _baseline_runner(baseline) -> AlgorithmRunner:
    return BaselineRunner(baseline)


def build_algorithm_suite(
    graph: Optional[LabeledGraph] = None,
    include_baselines: bool = True,
    algorithms: Optional[Iterable[str]] = None,
    rcmh_alpha: float = 0.2,
    gmd_delta: float = 0.5,
) -> Dict[str, AlgorithmRunner]:
    """Build the name -> runner mapping for an experiment.

    Parameters
    ----------
    graph:
        The full graph — dict :class:`LabeledGraph` or array-native
        :class:`~repro.graph.csr.CSRGraph`; required when
        *include_baselines* is true (the MD/GMD baselines need the
        exact line-graph maximum degree, computed vectorized on CSR).
    include_baselines:
        Include the EX-* adaptations alongside the proposed algorithms.
    algorithms:
        Optional subset of names to keep (order preserved from
        :data:`ALL_ALGORITHM_ORDER`).
    rcmh_alpha / gmd_delta:
        The baselines' tuning knobs; the paper sweeps ``α ∈ [0, 0.3]``
        and ``δ ∈ [0.3, 0.7]`` and reports the best setting.
    """
    suite: Dict[str, AlgorithmRunner] = {}
    for name in PAPER_ALGORITHM_ORDER:
        suite[name] = ALGORITHMS[name].run

    if include_baselines:
        if graph is None:
            raise ConfigurationError(
                "building the EX-* baselines requires the full graph (line-graph "
                "maximum degree); pass graph= or set include_baselines=False"
            )
        max_degree = max(1, line_graph_max_degree(graph))
        for name in BASELINE_NAMES:
            baseline = make_baseline(
                name,
                line_max_degree=max_degree,
                rcmh_alpha=rcmh_alpha,
                gmd_delta=gmd_delta,
            )
            suite[name] = _baseline_runner(baseline)

    if algorithms is not None:
        requested = list(algorithms)
        unknown = [name for name in requested if name not in suite]
        if unknown:
            raise ConfigurationError(
                f"unknown algorithm(s): {', '.join(unknown)}; "
                f"available: {', '.join(suite)}"
            )
        suite = {name: suite[name] for name in ALL_ALGORITHM_ORDER if name in requested}
    return suite


__all__ = [
    "AlgorithmRunner",
    "BaselineRunner",
    "PAPER_ALGORITHM_ORDER",
    "ALL_ALGORITHM_ORDER",
    "build_algorithm_suite",
]
