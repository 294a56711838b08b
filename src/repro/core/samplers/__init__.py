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

__all__ = [
    "EdgeSample",
    "EdgeSampleSet",
    "EdgeSampleBatch",
    "NodeSample",
    "NodeSampleSet",
    "NodeSampleBatch",
    "NeighborSampleSampler",
    "NeighborExplorationSampler",
]
