"""Line-graph transform ``G -> G'`` used by the baseline adaptations.

The paper's baselines (§5.1, "Adaptations of Existing Algorithms") run
node-counting random-walk estimators of Li et al. [16] on a transformed
graph ``G'`` in which

* every edge of ``G`` becomes a node of ``G'``, and
* two ``G'`` nodes are adjacent iff the corresponding edges of ``G``
  share an endpoint.

A node of ``G'`` is a *target node* exactly when the corresponding edge
of ``G`` is a target edge, so counting target nodes in ``G'`` counts
target edges in ``G``.

Two access paths are provided:

* :func:`build_line_graph` materialises ``G'`` as a
  :class:`~repro.graph.labeled_graph.LabeledGraph` (fine for the scaled
  datasets used in tests and benches), and
* :class:`LineGraphAPI` exposes ``G'`` *lazily* through the same
  restricted neighbor-list interface as
  :class:`~repro.graph.api.RestrictedGraphAPI`, charging API calls of
  the *original* graph.  Walking from one edge of ``G`` to an adjacent
  edge only requires the friend lists of the shared endpoint's two
  endpoints, which is how a real crawler would implement it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Tuple

from repro.graph.api import RestrictedGraphAPI
from repro.graph.labeled_graph import Label, LabeledGraph, Node


@dataclass(frozen=True, order=True)
class LineGraphNode:
    """A node of ``G'``: an (unordered, canonicalised) edge of ``G``."""

    u: Node
    v: Node

    @classmethod
    def from_edge(cls, u: Node, v: Node) -> "LineGraphNode":
        """Canonicalise the endpoint order so each edge maps to one node."""
        try:
            first, second = (u, v) if u <= v else (v, u)  # type: ignore[operator]
        except TypeError:
            first, second = (u, v) if repr(u) <= repr(v) else (v, u)
        return cls(first, second)

    def endpoints(self) -> Tuple[Node, Node]:
        """Return the two endpoints of the underlying edge of ``G``."""
        return (self.u, self.v)

    def shares_endpoint(self, other: "LineGraphNode") -> bool:
        """Whether this edge and *other* are adjacent in ``G'``."""
        return len({self.u, self.v} & {other.u, other.v}) > 0


def edge_is_target(
    labels_u: FrozenSet[Label], labels_v: FrozenSet[Label], t1: Label, t2: Label
) -> bool:
    """Target-edge predicate over two endpoint label sets (paper §3)."""
    return (t1 in labels_u and t2 in labels_v) or (t2 in labels_u and t1 in labels_v)


def build_line_graph(graph: LabeledGraph, t1: Label, t2: Label) -> LabeledGraph:
    """Materialise ``G'`` with a boolean ``"target"`` label on target nodes.

    The returned :class:`LabeledGraph` uses :class:`LineGraphNode`
    instances as node ids.  Nodes of ``G'`` that correspond to target
    edges of ``G`` carry the label ``"target"``; the rest carry no label.

    Notes
    -----
    ``G'`` can be much denser than ``G`` (a node of degree ``d``
    contributes ``d·(d−1)/2`` line-graph edges), so this is intended for
    the scaled datasets used in experiments, not web-scale graphs — the
    baselines use :class:`LineGraphAPI` for walk-time access instead.
    """
    line = LabeledGraph()
    for u, v in graph.edges():
        node = LineGraphNode.from_edge(u, v)
        labels: Iterable[Label]
        if edge_is_target(graph.labels_of(u), graph.labels_of(v), t1, t2):
            labels = ("target",)
        else:
            labels = ()
        line.add_node(node, labels)
    for center in graph.nodes():
        incident = [LineGraphNode.from_edge(center, n) for n in graph.neighbors(center)]
        for i, first in enumerate(incident):
            for second in incident[i + 1 :]:
                line.add_edge(first, second)
    return line


class LineGraphAPI:
    """Lazy restricted-access view of ``G'`` on top of the OSN API.

    The baselines' random walks run on ``G'`` but every neighbor lookup
    is translated into (cached) friend-list lookups on the original
    restricted API, so the API-call accounting stays comparable with the
    paper's algorithms.
    """

    def __init__(self, api: RestrictedGraphAPI, t1: Label, t2: Label) -> None:
        self._api = api
        self._t1 = t1
        self._t2 = t2

    @property
    def num_nodes(self) -> int:
        """``|H| = |E|`` — prior knowledge carried over from ``G``."""
        return self._api.num_edges

    def degree(self, node: LineGraphNode) -> int:
        """Degree of *node* in ``G'``: ``d(u) + d(v) − 2``."""
        u, v = node.endpoints()
        return self._api.degree(u) + self._api.degree(v) - 2

    def neighbors(self, node: LineGraphNode) -> List[LineGraphNode]:
        """All ``G'`` neighbors of *node* (edges of ``G`` sharing an endpoint)."""
        u, v = node.endpoints()
        result: List[LineGraphNode] = []
        for w in self._api.neighbors(u):
            if w != v:
                result.append(LineGraphNode.from_edge(u, w))
        for w in self._api.neighbors(v):
            if w != u:
                result.append(LineGraphNode.from_edge(v, w))
        return result

    def is_target(self, node: LineGraphNode) -> bool:
        """Whether the ``G`` edge behind *node* is a target edge."""
        u, v = node.endpoints()
        return edge_is_target(
            self._api.labels_of(u), self._api.labels_of(v), self._t1, self._t2
        )

    def random_node(self, rng=None) -> LineGraphNode:
        """A seed node of ``G'``: a random edge incident to a random node of ``G``."""
        from repro.utils.rng import ensure_rng

        generator = ensure_rng(rng)
        seed = self._api.random_node(generator)
        neighbors = self._api.neighbors(seed)
        while not neighbors:  # pragma: no cover - LCC graphs have no isolated nodes
            seed = self._api.random_node(generator)
            neighbors = self._api.neighbors(seed)
        return LineGraphNode.from_edge(seed, generator.choice(neighbors))


__all__ = ["LineGraphNode", "build_line_graph", "LineGraphAPI", "edge_is_target"]
