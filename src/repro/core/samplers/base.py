"""Sample records produced by the paper's two sampling processes.

The samplers are decoupled from the estimators through two container
types:

* :class:`EdgeSampleSet` — what NeighborSample (Algorithm 1) produces:
  ``k`` edges, each flagged as target/non-target.
* :class:`NodeSampleSet` — what NeighborExploration (Algorithm 2)
  produces: ``k`` nodes, each with its degree, whether it carries a
  target label, and ``T(u)`` (the number of incident target edges) when
  it does.

Both containers also carry the prior knowledge (``|E|``, ``|V|``) read
from the restricted API at sampling time, so an estimator needs nothing
but the sample set.

The fleet execution path (``execution="fleet"`` / ``reuse="prefix"``
on the grid entry points, or ``run_trials_prefix``) runs
*all repetitions of a table cell at once* and therefore works with the
array-native twins :class:`EdgeSampleBatch` / :class:`NodeSampleBatch`:
one numpy row per trial, consumed wholesale by the estimators'
``estimate_batch`` entry points instead of one Python object per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import InsufficientSamplesError
from repro.graph.labeled_graph import Label, Node
from repro.walks.thinning import DEFAULT_THINNING_FRACTION, thin_indices


@dataclass(frozen=True)
class EdgeSample:
    """One edge drawn by the NeighborSample process.

    Attributes
    ----------
    u, v:
        The endpoints in traversal order (``u`` was sampled first, ``v``
        is the randomly chosen neighbor).
    is_target:
        ``I((u, v))`` — whether the edge is a target edge for the label
        pair being estimated.
    step_index:
        Position of this sample within the walk (0-based), used by the
        thinning strategy of the Horvitz–Thompson estimator.
    """

    u: Node
    v: Node
    is_target: bool
    step_index: int = 0

    def canonical(self) -> Tuple[Node, Node]:
        """Endpoint pair in a direction-independent canonical order."""
        try:
            return (self.u, self.v) if self.u <= self.v else (self.v, self.u)  # type: ignore[operator]
        except TypeError:
            return (self.u, self.v) if repr(self.u) <= repr(self.v) else (self.v, self.u)


@dataclass(frozen=True)
class NodeSample:
    """One node drawn by the NeighborExploration process.

    Attributes
    ----------
    node:
        The sampled user.
    degree:
        ``d(u)`` — needed by every node-based estimator.
    has_target_label:
        Whether the node carries ``t1`` or ``t2`` (only then were its
        neighbors explored).
    incident_target_edges:
        ``T(u)`` — number of target edges incident to the node.  Always 0
        when ``has_target_label`` is ``False`` (a target edge needs one
        endpoint with a target label... this endpoint).
    step_index:
        Position within the walk, for thinning.
    """

    node: Node
    degree: int
    has_target_label: bool
    incident_target_edges: int
    step_index: int = 0


@dataclass
class EdgeSampleSet:
    """The output of NeighborSample: ``k`` edge samples plus prior knowledge."""

    samples: List[EdgeSample] = field(default_factory=list)
    num_edges: int = 0
    num_nodes: int = 0
    target_labels: Optional[Tuple[Label, Label]] = None
    api_calls_used: int = 0

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def k(self) -> int:
        """The number of sampling iterations (``k`` in the paper)."""
        return len(self.samples)

    def require_non_empty(self) -> None:
        """Raise when an estimator is asked to work with zero samples."""
        if not self.samples:
            raise InsufficientSamplesError("edge sample set is empty")

    def target_samples(self) -> List[EdgeSample]:
        """Samples whose edge is a target edge."""
        return [sample for sample in self.samples if sample.is_target]

    def thinned(self, fraction: float = DEFAULT_THINNING_FRACTION) -> "EdgeSampleSet":
        """Keep only samples ``r = fraction·k`` steps apart (HT independence fix).

        Thinning operates on walk positions (``step_index``), so it works
        whether the set was collected by one long walk or independently.
        """
        keep = set(thin_indices(len(self.samples), fraction))
        thinned_samples = [
            sample for position, sample in enumerate(self.samples) if position in keep
        ]
        return EdgeSampleSet(
            samples=thinned_samples,
            num_edges=self.num_edges,
            num_nodes=self.num_nodes,
            target_labels=self.target_labels,
            api_calls_used=self.api_calls_used,
        )


@dataclass
class NodeSampleSet:
    """The output of NeighborExploration: ``k`` node samples plus prior knowledge."""

    samples: List[NodeSample] = field(default_factory=list)
    num_edges: int = 0
    num_nodes: int = 0
    target_labels: Optional[Tuple[Label, Label]] = None
    api_calls_used: int = 0

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    @property
    def k(self) -> int:
        """The number of sampling iterations (``k`` in the paper)."""
        return len(self.samples)

    def require_non_empty(self) -> None:
        """Raise when an estimator is asked to work with zero samples."""
        if not self.samples:
            raise InsufficientSamplesError("node sample set is empty")

    def labeled_samples(self) -> List[NodeSample]:
        """Samples whose node carries a target label (and was explored)."""
        return [sample for sample in self.samples if sample.has_target_label]

    def thinned(self, fraction: float = DEFAULT_THINNING_FRACTION) -> "NodeSampleSet":
        """Keep only samples ``r = fraction·k`` steps apart (HT independence fix)."""
        keep = set(thin_indices(len(self.samples), fraction))
        thinned_samples = [
            sample for position, sample in enumerate(self.samples) if position in keep
        ]
        return NodeSampleSet(
            samples=thinned_samples,
            num_edges=self.num_edges,
            num_nodes=self.num_nodes,
            target_labels=self.target_labels,
            api_calls_used=self.api_calls_used,
        )


def _trajectory_prefix(
    trajectories: Optional[np.ndarray], k: int, keep: int
) -> Optional[np.ndarray]:
    """Full trajectories of a *k*-sample batch, cut to its first *keep* samples."""
    if trajectories is None:
        return None
    return trajectories[:, : trajectories.shape[1] - k + keep]


@dataclass
class EdgeSampleBatch:
    """NeighborSample output for a whole fleet: one numpy row per trial.

    All per-sample arrays have shape ``(num_trials, k)`` and hold CSR
    node *indices* (``node_ids[i]`` maps back to the original
    identifiers).  ``api_calls`` has one charged-call count per trial —
    each trial is an independent crawler with its own page cache.

    The EX-* baseline path reuses this container for its line-graph
    samples: each "edge sample" is a line node of ``G'`` (an edge of
    ``G``), and ``weights`` holds the per-sample (unnormalised)
    stationary weights of the line walk's kernel on ``G'``, which
    :func:`repro.baselines.fleet.reweighted_estimates` divides by.  It
    is ``None`` for NeighborSample's simple walk, whose weights are the
    degrees.
    """

    sources: np.ndarray
    dests: np.ndarray
    is_target: np.ndarray
    num_edges: int = 0
    num_nodes: int = 0
    target_labels: Optional[Tuple[Label, Label]] = None
    api_calls: Optional[np.ndarray] = None
    node_ids: Optional[Sequence[Node]] = None
    trajectories: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    @property
    def num_trials(self) -> int:
        return int(self.sources.shape[0])

    @property
    def k(self) -> int:
        """Sampling iterations per trial (``k`` in the paper)."""
        return int(self.sources.shape[1])

    def require_non_empty(self) -> None:
        """Raise when an estimator is asked to work with zero samples."""
        if self.sources.size == 0:
            raise InsufficientSamplesError("edge sample batch is empty")

    def thinned(self, fraction: float = DEFAULT_THINNING_FRACTION) -> "EdgeSampleBatch":
        """Column subset ``r = fraction·k`` steps apart (HT independence fix).

        Every trial has the same length, so one index list thins the
        whole batch — this is the array-native form of
        :meth:`EdgeSampleSet.thinned`.
        """
        keep = thin_indices(self.k, fraction)
        return EdgeSampleBatch(
            sources=self.sources[:, keep],
            dests=self.dests[:, keep],
            is_target=self.is_target[:, keep],
            num_edges=self.num_edges,
            num_nodes=self.num_nodes,
            target_labels=self.target_labels,
            api_calls=self.api_calls,
            node_ids=self.node_ids,
            trajectories=self.trajectories,
            weights=None if self.weights is None else self.weights[:, keep],
        )

    def prefix(self, k: int, api_calls: np.ndarray) -> "EdgeSampleBatch":
        """The first *k* samples of every trial, charged *api_calls*.

        A budget-``k`` crawl is the first ``k`` steps of a longer one,
        so a batch classified at the longest budget answers every
        shorter one by column slicing; only the per-trial charged calls
        (:class:`~repro.core.samplers.csr_backend.PrefixLedger`) are
        the caller's to supply.
        """
        return replace(
            self,
            sources=self.sources[:, :k],
            dests=self.dests[:, :k],
            is_target=self.is_target[:, :k],
            api_calls=api_calls,
            trajectories=_trajectory_prefix(self.trajectories, self.k, k),
            weights=None if self.weights is None else self.weights[:, :k],
        )

    def sample_set(self, trial: int) -> EdgeSampleSet:
        """Materialise one trial's row as a reference :class:`EdgeSampleSet`."""
        if self.node_ids is None:
            raise ValueError("batch does not carry node_ids; cannot materialise")
        ids = self.node_ids
        calls = 0 if self.api_calls is None else int(self.api_calls[trial])
        result = EdgeSampleSet(
            num_edges=self.num_edges,
            num_nodes=self.num_nodes,
            target_labels=self.target_labels,
            api_calls_used=calls,
        )
        for index in range(self.k):
            result.samples.append(
                EdgeSample(
                    u=ids[int(self.sources[trial, index])],
                    v=ids[int(self.dests[trial, index])],
                    is_target=bool(self.is_target[trial, index]),
                    step_index=index,
                )
            )
        return result


@dataclass
class NodeSampleBatch:
    """NeighborExploration output for a whole fleet: one numpy row per trial.

    Same conventions as :class:`EdgeSampleBatch`;
    ``incident_target_edges`` is already zeroed for unlabeled samples
    (mirroring the reference sampler, which only explores labeled
    nodes).
    """

    nodes: np.ndarray
    degrees: np.ndarray
    has_target_label: np.ndarray
    incident_target_edges: np.ndarray
    num_edges: int = 0
    num_nodes: int = 0
    target_labels: Optional[Tuple[Label, Label]] = None
    api_calls: Optional[np.ndarray] = None
    node_ids: Optional[Sequence[Node]] = None
    trajectories: Optional[np.ndarray] = None

    @property
    def num_trials(self) -> int:
        return int(self.nodes.shape[0])

    @property
    def k(self) -> int:
        """Sampling iterations per trial (``k`` in the paper)."""
        return int(self.nodes.shape[1])

    def require_non_empty(self) -> None:
        """Raise when an estimator is asked to work with zero samples."""
        if self.nodes.size == 0:
            raise InsufficientSamplesError("node sample batch is empty")

    def thinned(self, fraction: float = DEFAULT_THINNING_FRACTION) -> "NodeSampleBatch":
        """Column subset ``r = fraction·k`` steps apart (HT independence fix)."""
        keep = thin_indices(self.k, fraction)
        return NodeSampleBatch(
            nodes=self.nodes[:, keep],
            degrees=self.degrees[:, keep],
            has_target_label=self.has_target_label[:, keep],
            incident_target_edges=self.incident_target_edges[:, keep],
            num_edges=self.num_edges,
            num_nodes=self.num_nodes,
            target_labels=self.target_labels,
            api_calls=self.api_calls,
            node_ids=self.node_ids,
            trajectories=self.trajectories,
        )

    def prefix(self, k: int, api_calls: np.ndarray) -> "NodeSampleBatch":
        """The first *k* samples of every trial (see :meth:`EdgeSampleBatch.prefix`)."""
        return replace(
            self,
            nodes=self.nodes[:, :k],
            degrees=self.degrees[:, :k],
            has_target_label=self.has_target_label[:, :k],
            incident_target_edges=self.incident_target_edges[:, :k],
            api_calls=api_calls,
            trajectories=_trajectory_prefix(self.trajectories, self.k, k),
        )

    def sample_set(self, trial: int) -> NodeSampleSet:
        """Materialise one trial's row as a reference :class:`NodeSampleSet`."""
        if self.node_ids is None:
            raise ValueError("batch does not carry node_ids; cannot materialise")
        ids = self.node_ids
        calls = 0 if self.api_calls is None else int(self.api_calls[trial])
        result = NodeSampleSet(
            num_edges=self.num_edges,
            num_nodes=self.num_nodes,
            target_labels=self.target_labels,
            api_calls_used=calls,
        )
        for index in range(self.k):
            labeled = bool(self.has_target_label[trial, index])
            result.samples.append(
                NodeSample(
                    node=ids[int(self.nodes[trial, index])],
                    degree=int(self.degrees[trial, index]),
                    has_target_label=labeled,
                    incident_target_edges=(
                        int(self.incident_target_edges[trial, index]) if labeled else 0
                    ),
                    step_index=index,
                )
            )
        return result


__all__ = [
    "EdgeSample",
    "NodeSample",
    "EdgeSampleSet",
    "NodeSampleSet",
    "EdgeSampleBatch",
    "NodeSampleBatch",
]
