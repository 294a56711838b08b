"""High-level, one-call API for estimating target-edge counts.

Most users only need :func:`estimate_target_edge_count`:

>>> from repro import estimate_target_edge_count
>>> result = estimate_target_edge_count(
...     graph, t1="hong_kong", t2="spain",
...     algorithm="NeighborExploration-HH",
...     budget_fraction=0.05, seed=7,
... )
>>> result.estimate    # doctest: +SKIP
1234.5

The function wires together the restricted API, the burn-in choice, the
sampling process and the estimator, using the same defaults as the
paper's experiments.  The registry :data:`ALGORITHMS` maps the Table 2
abbreviations of the paper's five proposed configurations to runnable
specs; the EX-* baselines live in :mod:`repro.baselines` and are merged
into the experiment harness's registry
(:mod:`repro.experiments.algorithms`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.graph.api import RestrictedGraphAPI
from repro.graph.labeled_graph import Label, LabeledGraph, validate_target_labels
from repro.utils.rng import RandomSource
from repro.utils.validation import check_fraction, check_non_negative_int, check_positive_int
from repro.walks.mixing import recommended_burn_in

from repro.core.estimators import (
    EdgeHansenHurwitzEstimator,
    EdgeHorvitzThompsonEstimator,
    EstimateResult,
    NodeHansenHurwitzEstimator,
    NodeHorvitzThompsonEstimator,
    NodeReweightedEstimator,
)
from repro.core.samplers import NeighborExplorationSampler, NeighborSampleSampler
from repro.core.samplers.csr_backend import BACKENDS, EXECUTIONS, validate_backend


@dataclass(frozen=True)
class AlgorithmSpec:
    """A runnable (sampling process, estimator) pair.

    Attributes
    ----------
    name:
        Table 2 abbreviation (e.g. ``"NeighborSample-HH"``).
    sampler:
        ``"edge"`` for NeighborSample, ``"node"`` for NeighborExploration.
    run:
        ``run(api, t1, t2, k, burn_in, rng, backend="python") ->
        EstimateResult``.  For the proposed algorithms this is a
        :class:`ProposedRunner`, which also carries the sampler kind
        and estimator constructor the fleet execution path reads off it
        (``estimate_batch`` over whole trial batches instead of one
        trial at a time).
    """

    name: str
    sampler: str
    run: Callable[..., EstimateResult]


@dataclass(frozen=True)
class ProposedRunner:
    """Picklable runner for one proposed (sampler, estimator) pairing.

    A plain value object instead of a closure so experiment suites can
    cross process boundaries (``n_jobs > 1`` ships the suite to the
    workers) and so the fleet execution path can read the sampling
    process and estimator constructor straight off the runner — any
    ``ProposedRunner``, registry or custom, vectorizes with its own
    configuration.
    """

    sampler: str
    estimator_factory: Callable[[], object]

    def __call__(self, api, t1, t2, k, burn_in, rng, backend: str = "python") -> EstimateResult:
        sampler_cls = NeighborSampleSampler if self.sampler == "edge" else NeighborExplorationSampler
        sampler = sampler_cls(api, t1, t2, burn_in=burn_in, rng=rng, backend=backend)
        return self.estimator_factory().estimate(sampler.sample(k))


def _run_neighbor_sample(estimator_factory):
    return ProposedRunner(sampler="edge", estimator_factory=estimator_factory)


def _run_neighbor_exploration(estimator_factory):
    return ProposedRunner(sampler="node", estimator_factory=estimator_factory)


#: The paper's five proposed algorithm configurations (Table 2, upper half).
ALGORITHMS: Dict[str, AlgorithmSpec] = {
    "NeighborSample-HH": AlgorithmSpec(
        name="NeighborSample-HH",
        sampler="edge",
        run=_run_neighbor_sample(EdgeHansenHurwitzEstimator),
    ),
    "NeighborSample-HT": AlgorithmSpec(
        name="NeighborSample-HT",
        sampler="edge",
        run=_run_neighbor_sample(EdgeHorvitzThompsonEstimator),
    ),
    "NeighborExploration-HH": AlgorithmSpec(
        name="NeighborExploration-HH",
        sampler="node",
        run=_run_neighbor_exploration(NodeHansenHurwitzEstimator),
    ),
    "NeighborExploration-HT": AlgorithmSpec(
        name="NeighborExploration-HT",
        sampler="node",
        run=_run_neighbor_exploration(NodeHorvitzThompsonEstimator),
    ),
    "NeighborExploration-RW": AlgorithmSpec(
        name="NeighborExploration-RW",
        sampler="node",
        run=_run_neighbor_exploration(NodeReweightedEstimator),
    ),
}


def available_algorithms() -> List[str]:
    """Names of the paper's proposed algorithms, in Table 2 order."""
    return list(ALGORITHMS)


def resolve_sample_size(
    num_nodes: int,
    sample_size: Optional[int] = None,
    budget_fraction: Optional[float] = None,
) -> int:
    """Translate the paper's "x% of |V| API calls" budget into ``k``.

    Exactly one of *sample_size* and *budget_fraction* must be given;
    the default when both are ``None`` is 5% of ``|V|`` (the largest
    budget used in the paper's tables).
    """
    if sample_size is not None and budget_fraction is not None:
        raise ConfigurationError("pass either sample_size or budget_fraction, not both")
    if sample_size is not None:
        return check_positive_int(sample_size, "sample_size")
    fraction = 0.05 if budget_fraction is None else check_fraction(budget_fraction, "budget_fraction")
    return max(1, math.ceil(fraction * num_nodes))


def estimate_target_edge_count(
    graph: Union[LabeledGraph, RestrictedGraphAPI],
    t1: Label,
    t2: Label,
    algorithm: str = "NeighborExploration-HH",
    sample_size: Optional[int] = None,
    budget_fraction: Optional[float] = None,
    burn_in: Optional[int] = None,
    seed: RandomSource = None,
    backend: str = "python",
) -> EstimateResult:
    """Estimate the number of edges whose endpoints carry ``t1`` and ``t2``.

    Parameters
    ----------
    graph:
        Either a full :class:`LabeledGraph` (a restricted API is wrapped
        around it automatically) or an existing
        :class:`RestrictedGraphAPI` — e.g. one with an API budget.
    t1, t2:
        The target labels (paper §3).
    algorithm:
        One of :func:`available_algorithms`.  The paper's guidance:
        NeighborExploration-HH when target edges are rare,
        NeighborSample-HH/HT when they are abundant (§5.3).
    sample_size / budget_fraction:
        Either an explicit ``k`` or a fraction of ``|V|`` (the paper
        sweeps 0.5%–5%).  Default: 5% of ``|V|``.
    burn_in:
        Walk burn-in; computed from the graph's mixing time when omitted
        (only possible when a full graph was passed).
    seed:
        Seed or generator for reproducibility.
    backend:
        ``"python"`` (default) runs the dict-based reference walk engine
        through the restricted API.  ``"csr"`` freezes the graph into
        numpy CSR arrays and runs the vectorized backend — typically an
        order of magnitude faster, with identical charged-API-call
        accounting and a distributionally equivalent sampling law (the
        equivalence test suite enforces this).  Prefer
        ``"csr"`` for large graphs and repeated trials; prefer
        ``"python"`` when auditing API-call traces or using a
        non-vectorized kernel.

    Returns
    -------
    EstimateResult
        The estimate plus bookkeeping (sample size, API calls, details).
    """
    validate_backend(backend)
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; available: {', '.join(ALGORITHMS)}"
        )
    spec = ALGORITHMS[algorithm]

    if isinstance(graph, RestrictedGraphAPI):
        api = graph
        underlying: Optional[LabeledGraph] = None
    elif isinstance(graph, LabeledGraph):
        validate_target_labels(graph, t1, t2)
        api = RestrictedGraphAPI(graph)
        underlying = graph
    else:
        raise ConfigurationError(
            "graph must be a LabeledGraph or RestrictedGraphAPI, "
            f"got {type(graph).__name__}"
        )

    if burn_in is None:
        if underlying is None:
            raise ConfigurationError(
                "burn_in must be given explicitly when estimating through a "
                "RestrictedGraphAPI (the mixing time cannot be computed without "
                "full access)"
            )
        burn_in = recommended_burn_in(underlying, rng=seed)
    else:
        burn_in = check_non_negative_int(burn_in, "burn_in")

    k = resolve_sample_size(api.num_nodes, sample_size, budget_fraction)
    return spec.run(api, t1, t2, k, burn_in, seed, backend=backend)


__all__ = [
    "AlgorithmSpec",
    "BACKENDS",
    "EXECUTIONS",
    "ALGORITHMS",
    "available_algorithms",
    "resolve_sample_size",
    "estimate_target_edge_count",
]
