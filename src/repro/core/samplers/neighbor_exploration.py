"""NeighborExploration — the paper's Algorithm 2 (node sampling + exploration).

At each of ``k`` iterations the process samples a user ``u`` via a
simple random walk.  If ``u`` carries one of the target labels, all of
``u``'s neighbors are explored and ``T(u)`` — the number of target
edges incident to ``u`` — is recorded.  Exploring neighbors of labeled
nodes boosts the probability of touching target edges, which is why the
estimators built on this process dominate when target edges are rare
(paper §5.3).

The efficient implementation mirrors §4.2.2: a single walk with a
burn-in, exploring at each of the last ``k`` steps.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.api import RestrictedGraphAPI
from repro.graph.labeled_graph import Label, Node
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.walks.engine import RandomWalk
from repro.walks.kernels import SimpleRandomWalkKernel, TransitionKernel

from repro.core.samplers.base import NodeSample, NodeSampleSet


class NeighborExplorationSampler:
    """Sample ``k`` nodes (and explore labeled ones) via random walk.

    Parameters
    ----------
    api:
        Restricted neighbor-list access to the graph.
    t1, t2:
        The target labels.
    burn_in:
        Steps discarded before sampling starts.
    kernel:
        Walk kernel, simple random walk by default (as in the paper).
    rng:
        Seed or generator.

    This is the reference engine: every page goes through the
    restricted API.  Its vectorized twin is a
    :class:`~repro.walks.batched.BatchedWalkEngine` fleet classified by
    :func:`~repro.core.samplers.csr_backend.classify_node_fleet`.
    """

    def __init__(
        self,
        api: RestrictedGraphAPI,
        t1: Label,
        t2: Label,
        burn_in: int = 0,
        kernel: Optional[TransitionKernel] = None,
        rng: RandomSource = None,
    ) -> None:
        self.api = api
        self.t1 = t1
        self.t2 = t2
        self.burn_in = check_non_negative_int(burn_in, "burn_in")
        self.kernel = kernel if kernel is not None else SimpleRandomWalkKernel()
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def sample(
        self,
        k: int,
        single_walk: bool = True,
        start_node: Optional[Node] = None,
    ) -> NodeSampleSet:
        """Collect ``k`` node samples (Algorithm 2).

        ``single_walk=False`` pays a full burn-in per sample, producing
        independent samples (ablation only).
        """
        check_positive_int(k, "k")
        if single_walk:
            walk = RandomWalk(self.api, self.kernel, burn_in=self.burn_in, rng=self._rng)
            result = walk.run(k, start_node=start_node)
            nodes = list(result.nodes)
        else:
            nodes = []
            for _ in range(k):
                walk = RandomWalk(
                    self.api, self.kernel, burn_in=self.burn_in, rng=self._rng
                )
                nodes.append(walk.run(1, start_node=start_node).nodes[0])

        sample_set = NodeSampleSet(
            num_edges=self.api.num_edges,
            num_nodes=self.api.num_nodes,
            target_labels=(self.t1, self.t2),
        )
        for index, node in enumerate(nodes):
            sample_set.samples.append(self._explore(node, index))
        sample_set.api_calls_used = self.api.api_calls
        return sample_set

    # ------------------------------------------------------------------
    def _explore(self, node: Node, step_index: int) -> NodeSample:
        """Build the :class:`NodeSample` for one visited node.

        Only nodes carrying a target label have their neighborhood
        explored (line 4 of Algorithm 2); for the rest we record the
        degree (already known from the walk step) and ``T(u) = 0``.
        """
        labels = self.api.labels_of(node)
        neighbors = self.api.neighbors(node)
        degree = len(neighbors)
        has_t1 = self.t1 in labels
        has_t2 = self.t2 in labels
        if not (has_t1 or has_t2):
            return NodeSample(
                node=node,
                degree=degree,
                has_target_label=False,
                incident_target_edges=0,
                step_index=step_index,
            )
        incident = 0
        for neighbor in neighbors:
            neighbor_labels = self.api.labels_of(neighbor)
            if has_t1 and self.t2 in neighbor_labels:
                incident += 1
            elif has_t2 and self.t1 in neighbor_labels:
                incident += 1
        return NodeSample(
            node=node,
            degree=degree,
            has_target_label=True,
            incident_target_edges=incident,
            step_index=step_index,
        )


__all__ = ["NeighborExplorationSampler"]
