"""Exact (full-access) graph statistics and ground-truth counts.

The estimators never use these — they only exist to

* provide the ground truth ``F`` against which NRMSE is computed,
* compute the oracle sample-size bounds of Theorems 4.1–4.5,
* summarise datasets for Table 1 of the paper.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.exceptions import EmptyGraphError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.labeled_graph import Label, LabeledGraph, Node


@dataclass(frozen=True)
class GraphSummary:
    """Dataset summary in the spirit of the paper's Table 1."""

    name: str
    num_nodes: int
    num_edges: int
    max_degree: int
    average_degree: float
    num_distinct_labels: int

    def as_row(self) -> Tuple[str, int, int, int, float, int]:
        """Return the summary as a plain tuple, handy for table rendering."""
        return (
            self.name,
            self.num_nodes,
            self.num_edges,
            self.max_degree,
            round(self.average_degree, 2),
            self.num_distinct_labels,
        )


def summarize_graph(graph: LabeledGraph, name: str = "graph") -> GraphSummary:
    """Produce a :class:`GraphSummary` (Table 1 row) for *graph*.

    Works on both substrates: the dict :class:`LabeledGraph` and the
    array-native :class:`CSRGraph` (degree aggregates come straight off
    the ``degrees`` array there).
    """
    if graph.num_nodes == 0:
        raise EmptyGraphError("cannot summarise an empty graph")
    if isinstance(graph, CSRGraph):
        max_degree = int(graph.degrees.max()) if graph.num_nodes else 0
        average_degree = 2 * graph.num_edges / graph.num_nodes
    else:
        max_degree = graph.max_degree()
        average_degree = graph.average_degree()
    return GraphSummary(
        name=name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        max_degree=max_degree,
        average_degree=average_degree,
        num_distinct_labels=len(graph.all_labels()),
    )


def count_target_edges(graph: LabeledGraph, t1: Label, t2: Label) -> int:
    """Exact ground-truth count ``F`` of target edges for ``(t1, t2)``.

    An edge ``(u, v)`` is a target edge when one endpoint carries ``t1``
    and the other carries ``t2`` (paper §3).  When ``t1 == t2`` this
    degenerates to "both endpoints carry the label", which the definition
    also covers.

    The count is a lookup in the graph's edge-label histogram
    (:meth:`CSRGraph.label_pair_counts`), counted once per graph — on
    the frozen CSR view that :func:`repro.graph.csr.csr_view` shares for
    a dict graph — so a table/sweep harness asking about many pairs
    pays one pass.  Graph-likes that are not :class:`LabeledGraph` /
    :class:`CSRGraph` instances fall back to the dict edge loop.
    """
    if isinstance(graph, (CSRGraph, LabeledGraph)):
        return csr_view(graph).count_target_edges(t1, t2)
    return _count_target_edges_dict(graph, t1, t2)


def _count_target_edges_dict(graph, t1: Label, t2: Label) -> int:
    """Reference edge-loop counter for dict-backed graph-likes."""
    count = 0
    for u, v in graph.edges():
        lu = graph.labels_of(u)
        lv = graph.labels_of(v)
        if (t1 in lu and t2 in lv) or (t2 in lu and t1 in lv):
            count += 1
    return count


def target_edge_fraction(graph: LabeledGraph, t1: Label, t2: Label) -> float:
    """Relative target-edge count ``F / |E|`` (the x-axis of Figures 1–2)."""
    if graph.num_edges == 0:
        raise EmptyGraphError("target edge fraction of an edgeless graph is undefined")
    return count_target_edges(graph, t1, t2) / graph.num_edges


def target_incident_count(graph: LabeledGraph, node: Node, t1: Label, t2: Label) -> int:
    """Exact ``T(u)`` — number of target edges incident to *node* (paper §4.2)."""
    return graph.target_edges_incident_to(node, t1, t2)


def target_incident_counts(graph: LabeledGraph, t1: Label, t2: Label) -> Dict[Node, int]:
    """``T(u)`` for every node; the sum over all nodes equals ``2 F``."""
    return {
        node: graph.target_edges_incident_to(node, t1, t2) for node in graph.nodes()
    }


def nodes_covering_target_edges(graph: LabeledGraph, t1: Label, t2: Label) -> Set[Node]:
    """The node set ``Q`` from §5.3: nodes incident to at least one target edge."""
    return {
        node
        for node in graph.nodes()
        if graph.target_edges_incident_to(node, t1, t2) > 0
    }


def degree_histogram(graph: LabeledGraph) -> Dict[int, int]:
    """Map degree value -> number of nodes with that degree."""
    histogram: Counter = Counter()
    for node in graph.nodes():
        histogram[graph.degree(node)] += 1
    return dict(histogram)


def label_histogram(graph: LabeledGraph) -> Dict[Label, int]:
    """Map label -> number of nodes carrying that label."""
    histogram: Counter = Counter()
    for node in graph.nodes():
        for label in graph.labels_of(node):
            histogram[label] += 1
    return dict(histogram)


def edge_label_histogram(graph: LabeledGraph) -> Dict[Tuple[Label, Label], int]:
    """Count edges per unordered label pair.

    For an edge ``(u, v)`` every pair ``(a, b)`` with ``a`` a label of
    ``u`` and ``b`` a label of ``v`` contributes one count to the
    canonicalised (sorted) pair.  This is how the experiment section
    enumerates the "thousands of edge labels we can choose" in Pokec,
    Orkut and LiveJournal, from which target labels are drawn per
    frequency quartile.

    Returns a copy of the graph's memoised
    :meth:`CSRGraph.label_pair_counts` (of its shared CSR view for a
    dict graph).
    """
    return dict(csr_view(graph).label_pair_counts())


def label_pair_by_frequency_quartile(
    graph: LabeledGraph, quartiles: int = 4
) -> List[List[Tuple[Tuple[Label, Label], int]]]:
    """Split all edge-label pairs into frequency quartiles (paper §5.2).

    The paper orders edge labels by target-edge count ascending, splits
    them into four equal parts and samples one label pair per part.  The
    returned list has *quartiles* buckets, each a list of
    ``((t1, t2), count)`` entries sorted ascending by count.
    """
    if quartiles <= 0:
        raise ValueError(f"quartiles must be positive, got {quartiles}")
    histogram = sorted(edge_label_histogram(graph).items(), key=lambda item: item[1])
    if not histogram:
        return [[] for _ in range(quartiles)]
    buckets: List[List[Tuple[Tuple[Label, Label], int]]] = []
    size = max(1, len(histogram) // quartiles)
    for index in range(quartiles):
        start = index * size
        end = (index + 1) * size if index < quartiles - 1 else len(histogram)
        buckets.append(histogram[start:end])
    return buckets


__all__ = [
    "GraphSummary",
    "summarize_graph",
    "count_target_edges",
    "target_edge_fraction",
    "target_incident_count",
    "target_incident_counts",
    "nodes_covering_target_edges",
    "degree_histogram",
    "label_histogram",
    "edge_label_histogram",
    "label_pair_by_frequency_quartile",
]
