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

Walk engines
------------
Two engines run the walks, and the type of the graph picks one; there
is no engine option.

The dict reference engine
    Runs on a :class:`repro.graph.LabeledGraph`.  Every neighbor lookup
    goes through :class:`repro.graph.RestrictedGraphAPI`, so API-call
    traces are auditable call by call and any transition kernel works.
    It is the accounting reference, and the harness's sequential cells
    run it.
The numpy walker fleets
    Run on a :class:`repro.graph.CSRGraph`: a graph frozen once into
    numpy CSR arrays (``csr_view(graph)``) or a CSR-native dataset
    (``load_dataset(..., representation="csr")``).  Each walker keeps
    its own distinct-page ledger, so charged API calls match the
    reference engine, and the sampling law is the same, enforced by
    the Kolmogorov–Smirnov equivalence suites.  The random stream
    differs, so the two engines agree in distribution, not seed for
    seed.  A one-shot estimate on a ``CSRGraph`` runs a one-walker
    fleet.

>>> from repro.graph.csr import csr_view
>>> fast = estimate_target_edge_count(
...     csr_view(dataset.graph), 1, 2,
...     algorithm="NeighborSample-HH", budget_fraction=0.05, seed=7,
... )
>>> fast.estimate > 0
True
>>> fast.sample_size == result.sample_size
True

For fleet-style workloads (many independent walkers over one graph),
:class:`repro.walks.BatchedWalkEngine` advances ``N`` walkers per
numpy-vectorized step over a shared :class:`repro.graph.CSRGraph`.

Fleet execution
---------------
The experiment harness builds on that engine: with
``execution="fleet"`` (``compare_algorithms`` / ``frequency_sweep``,
``ExperimentConfig`` and the CLI's ``--execution``; one cell on its own
is ``run_trials_prefix(..., [k], ...)[0]``), all repetitions of an
NRMSE table cell run as *one* walker fleet — one walker per repetition, each with its own
distinct-page budget ledger — and the estimators consume the whole
fleet's samples through their array-native ``estimate_batch`` entry
points.  A fleet cell is a single-budget prefix fleet, so the mode only
matters under ``reuse="none"``: ``reuse="prefix"`` reads every registry
cell off one max-budget fleet per algorithm.  ``n_jobs`` additionally
spreads the grid's jobs (prefix fleets and cells alike) across worker
processes with pre-derived seeds, so results are identical for any
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
    "EXECUTIONS",
    "AlgorithmSpec",
    "available_algorithms",
    "estimate_target_edge_count",
    "compute_all_bounds",
    "load_dataset",
    "dataset_names",
]
