"""repro — counting edges with target labels in OSNs via random walk.

A full reproduction of Wu, Long, Fu & Chen, *"Counting Edges with Target
Labels in Online Social Networks via Random Walk"* (EDBT 2018).

Quick start
-----------
>>> from repro import load_dataset, estimate_target_edge_count
>>> dataset = load_dataset("facebook", seed=1, scale=0.25)
>>> result = estimate_target_edge_count(
...     dataset.graph, 1, 2,
...     algorithm="NeighborSample-HH", budget_fraction=0.05, seed=7,
... )
>>> result.estimate > 0
True

Walk backends
-------------
Every proposed algorithm can run on one of two interchangeable walk
backends, selected with the ``backend=`` keyword of
:func:`estimate_target_edge_count` (also exposed by the samplers, the
experiment runner, :class:`repro.experiments.config.ExperimentConfig`
and the CLI's ``--backend`` flag):

``backend="python"`` (default)
    The dict-based reference engine.  Every neighbor lookup goes through
    :class:`repro.graph.RestrictedGraphAPI`, so API-call traces are
    auditable call by call and any transition kernel works.  Prefer it
    for correctness audits, small graphs, and the EX-* baselines.
``backend="csr"``
    The vectorized backend: the graph is frozen once into numpy CSR
    arrays (:class:`repro.graph.CSRGraph`) and walks run over raw index
    arithmetic — roughly an order of magnitude faster per step, with
    *identical* charged-API-call accounting (distinct page downloads)
    and a distributionally equivalent sampling law, enforced by the
    Kolmogorov–Smirnov equivalence test suite.  Prefer it for large
    graphs, table/figure regeneration, and repeated trials.  Only the
    simple and non-backtracking kernels are vectorized.

>>> fast = estimate_target_edge_count(
...     dataset.graph, 1, 2,
...     algorithm="NeighborSample-HH", budget_fraction=0.05, seed=7,
...     backend="csr",
... )
>>> fast.estimate > 0
True

For fleet-style workloads (many independent walkers over one graph),
:class:`repro.walks.BatchedWalkEngine` advances ``N`` walkers per
numpy-vectorized step over a shared :class:`repro.graph.CSRGraph`.

Fleet execution
---------------
The experiment harness builds on that engine: with
``execution="fleet"`` (``run_trials`` / ``compare_algorithms`` /
``frequency_sweep``, ``ExperimentConfig`` and the CLI's
``--execution``), all repetitions of an NRMSE table cell run as *one*
walker fleet — one walker per repetition, each with its own
distinct-page budget ledger — and the estimators consume the whole
fleet's samples through their array-native ``estimate_batch`` entry
points.  A fleet cell is a single-budget prefix fleet, so the mode only
matters under ``reuse="none"``: ``reuse="prefix"`` reads every registry
cell off one max-budget fleet per algorithm.  ``n_jobs`` additionally spreads cells across worker processes
with pre-derived per-cell seeds, so results are identical for any
worker count.

Sub-packages
------------
``repro.core``
    The paper's contribution: NeighborSample / NeighborExploration
    sampling, the Hansen–Hurwitz / Horvitz–Thompson / re-weighted
    estimators, the Theorem 4.1–4.5 bounds and the one-call pipeline.
``repro.graph``
    Labeled-graph substrate, restricted OSN API, cleaning, line graph,
    loaders and exact statistics.
``repro.walks``
    Random-walk kernels, the walk engine, mixing-time machinery and the
    thinning strategy.
``repro.baselines``
    The EX-* adaptations of existing node-counting algorithms.
``repro.datasets``
    Synthetic stand-ins for the paper's five OSN crawls.
``repro.experiments``
    NRMSE harness, sweeps, and runners for every table and figure.
``repro.osn``
    |V| / |E| estimation backing the prior-knowledge assumption.
"""

from repro.core import (
    ALGORITHMS,
    BACKENDS,
    EXECUTIONS,
    AlgorithmSpec,
    EdgeHansenHurwitzEstimator,
    EdgeHorvitzThompsonEstimator,
    EstimateResult,
    NeighborExplorationSampler,
    NeighborSampleSampler,
    NodeHansenHurwitzEstimator,
    NodeHorvitzThompsonEstimator,
    NodeReweightedEstimator,
    available_algorithms,
    compute_all_bounds,
    estimate_target_edge_count,
)
from repro.datasets import load_dataset, dataset_names
from repro.exceptions import ReproError
from repro.graph import (
    CSRGraph,
    LabeledGraph,
    RestrictedGraphAPI,
    count_target_edges,
    summarize_graph,
)
from repro.walks import BatchedWalkEngine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "LabeledGraph",
    "RestrictedGraphAPI",
    "CSRGraph",
    "BatchedWalkEngine",
    "count_target_edges",
    "summarize_graph",
    "NeighborSampleSampler",
    "NeighborExplorationSampler",
    "EdgeHansenHurwitzEstimator",
    "EdgeHorvitzThompsonEstimator",
    "NodeHansenHurwitzEstimator",
    "NodeHorvitzThompsonEstimator",
    "NodeReweightedEstimator",
    "EstimateResult",
    "ALGORITHMS",
    "BACKENDS",
    "EXECUTIONS",
    "AlgorithmSpec",
    "available_algorithms",
    "estimate_target_edge_count",
    "compute_all_bounds",
    "load_dataset",
    "dataset_names",
]
