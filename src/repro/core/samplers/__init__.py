"""Random-walk sampling processes: NeighborSample (edges) and NeighborExploration (nodes)."""

from repro.core.samplers.base import (
    EdgeSample,
    EdgeSampleBatch,
    EdgeSampleSet,
    NodeSample,
    NodeSampleBatch,
    NodeSampleSet,
)
from repro.core.samplers.neighbor_sample import NeighborSampleSampler
from repro.core.samplers.neighbor_exploration import NeighborExplorationSampler
from repro.core.samplers.csr_backend import explore_nodes_fleet, sample_edges_fleet

__all__ = [
    "EdgeSample",
    "EdgeSampleSet",
    "EdgeSampleBatch",
    "NodeSample",
    "NodeSampleSet",
    "NodeSampleBatch",
    "NeighborSampleSampler",
    "NeighborExplorationSampler",
    "sample_edges_fleet",
    "explore_nodes_fleet",
]
