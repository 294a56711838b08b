"""The paper's contribution: samplers, estimators, bounds and the high-level API."""

from repro.core.samplers import (
    EdgeSample,
    EdgeSampleSet,
    NodeSample,
    NodeSampleSet,
    NeighborSampleSampler,
    NeighborExplorationSampler,
)
from repro.core.estimators import (
    EstimateResult,
    EdgeHansenHurwitzEstimator,
    EdgeHorvitzThompsonEstimator,
    NodeHansenHurwitzEstimator,
    NodeHorvitzThompsonEstimator,
    NodeReweightedEstimator,
)
from repro.core.bounds import (
    SampleSizeBounds,
    bound_neighbor_sample_hh,
    bound_neighbor_sample_ht,
    bound_neighbor_exploration_hh,
    bound_neighbor_exploration_ht,
    bound_neighbor_exploration_rw,
    compute_all_bounds,
)
from repro.core.pipeline import (
    ALGORITHMS,
    EXECUTIONS,
    AlgorithmSpec,
    estimate_target_edge_count,
    available_algorithms,
)
from repro.core.selector import (
    SelectionReport,
    estimate_with_adaptive_selection,
    recommend_algorithm,
)

__all__ = [
    "EdgeSample",
    "EdgeSampleSet",
    "NodeSample",
    "NodeSampleSet",
    "NeighborSampleSampler",
    "NeighborExplorationSampler",
    "EstimateResult",
    "EdgeHansenHurwitzEstimator",
    "EdgeHorvitzThompsonEstimator",
    "NodeHansenHurwitzEstimator",
    "NodeHorvitzThompsonEstimator",
    "NodeReweightedEstimator",
    "SampleSizeBounds",
    "bound_neighbor_sample_hh",
    "bound_neighbor_sample_ht",
    "bound_neighbor_exploration_hh",
    "bound_neighbor_exploration_ht",
    "bound_neighbor_exploration_rw",
    "compute_all_bounds",
    "ALGORITHMS",
    "EXECUTIONS",
    "AlgorithmSpec",
    "estimate_target_edge_count",
    "available_algorithms",
    "SelectionReport",
    "estimate_with_adaptive_selection",
    "recommend_algorithm",
]
