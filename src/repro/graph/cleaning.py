"""Graph cleaning used in the paper's experimental setup (§5.1).

The paper prepares every dataset the same way:

1. drop edge directions (treat the graph as undirected),
2. drop self-loops and multi-edges,
3. keep only the largest connected component.

:func:`simplify_osn_graph` performs all three on raw edge lists, and
:func:`largest_connected_component` extracts the component from an
existing :class:`LabeledGraph`.

The CSR-native data plane gets the same treatment without touching a
Python dict: :func:`largest_component_mask` runs a frontier BFS directly
on ``indptr`` / ``indices`` arrays and
:func:`largest_connected_component_csr` compacts a
:class:`~repro.graph.csr.CSRGraph` to its largest component with pure
array gathers — the path the million-node generators and the numpy
edge-list loader go through.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.exceptions import EmptyGraphError
from repro.graph.csr import gather_rows, sorted_unique
from repro.graph.labeled_graph import Edge, Label, LabeledGraph, Node


def deduplicate_edges(edges: Iterable[Edge]) -> List[Edge]:
    """Drop self-loops and parallel edges from an edge list.

    Direction is ignored: ``(u, v)`` and ``(v, u)`` count as the same
    edge and only the first occurrence is kept.
    """
    seen: Set[frozenset] = set()
    result: List[Edge] = []
    for u, v in edges:
        if u == v:
            continue
        key = frozenset((u, v))
        if key in seen:
            continue
        seen.add(key)
        result.append((u, v))
    return result


def connected_components(graph: LabeledGraph) -> List[Set[Node]]:
    """Return the connected components of *graph* as sets of nodes.

    Components are returned in descending order of size.  Uses an
    iterative level-by-level frontier BFS (plain lists, one visited set
    for the whole graph) instead of the old per-node deque/set flood
    fill — on large graphs the per-node set churn dominated load time.
    """
    visited: Set[Node] = set()
    components: List[Set[Node]] = []
    neighbors = graph.neighbors
    for start in graph.nodes():
        if start in visited:
            continue
        visited.add(start)
        members: List[Node] = [start]
        frontier: List[Node] = [start]
        while frontier:
            next_frontier: List[Node] = []
            for node in frontier:
                for neighbor in neighbors(node):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        members.append(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        components.append(set(members))
    components.sort(key=len, reverse=True)
    return components


def largest_component_mask(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Boolean mask of the largest connected component of a CSR adjacency.

    A frontier BFS on raw arrays: each level is one ``repeat``-based
    multi-range gather of the frontier's neighborhoods, so the per-level
    work is numpy-vectorized and no per-node Python object is ever
    allocated.  Ties between equal-size components break toward the
    lowest-indexed seed (deterministic).  Isolated nodes form singleton
    components.
    """
    num_nodes = int(indptr.size - 1)
    if num_nodes == 0:
        return np.zeros(0, dtype=bool)
    degrees = np.diff(indptr)
    component = np.full(num_nodes, -1, dtype=np.int64)

    def bfs(seed: int, label: int) -> int:
        component[seed] = label
        size = 1
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            lengths = degrees[frontier]
            total = int(lengths.sum())
            if total == 0:
                break
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(lengths) - lengths, lengths
            )
            neighbors = indices[np.repeat(indptr[frontier], lengths) + offsets]
            fresh = sorted_unique(neighbors[component[neighbors] < 0])
            component[fresh] = label
            size += int(fresh.size)
            frontier = fresh
        return size

    # Seed from the max-degree node: on OSN-shaped graphs it sits in the
    # giant component, so one BFS usually already covers a majority of
    # the nodes and the remaining seeds terminate via the
    # cannot-beat-the-best check below instead of being explored.
    best_label = 0
    best_size = bfs(int(np.argmax(degrees)), 0)
    visited = best_size
    label = 1
    cursor = 0
    while num_nodes - visited > best_size:
        while component[cursor] >= 0:
            cursor += 1
        size = bfs(cursor, label)
        visited += size
        if size > best_size:
            best_label, best_size = label, size
        label += 1
    return component == best_label


def largest_connected_component_csr(csr) -> "CSRGraph":
    """Compact a :class:`~repro.graph.csr.CSRGraph` to its largest component.

    Pure array work: the component mask comes from
    :func:`largest_component_mask`, surviving adjacency and label rows
    are gathered with one ``repeat``/``cumsum`` pass each and neighbor
    indices are renumbered through a dense old→new map.  The label
    table and original node identifiers are carried over; a graph that
    is already connected is returned as-is (no copy).
    """
    from repro.graph.csr import CSRGraph

    if csr.num_nodes == 0:
        raise EmptyGraphError("cannot take the largest component of an empty graph")
    mask = largest_component_mask(csr.indptr, csr.indices)
    kept = np.flatnonzero(mask)
    if kept.size == csr.num_nodes:
        return csr
    remap = np.cumsum(mask, dtype=np.int64) - 1
    lengths = csr.degrees[kept]
    new_indptr = np.concatenate(([0], np.cumsum(lengths)))
    # A component is closed under adjacency, so every gathered neighbor
    # survives and the remap is total on them.
    new_indices = remap[gather_rows(csr.indices, csr.indptr[kept], lengths)]
    if csr.label_indptr is None:
        label_indptr, label_codes = None, csr.label_codes[kept]
    else:
        label_lengths = np.diff(csr.label_indptr)[kept]
        label_indptr = np.concatenate(([0], np.cumsum(label_lengths)))
        label_codes = gather_rows(csr.label_codes, csr.label_indptr[kept], label_lengths)

    old_ids = csr.node_ids
    if isinstance(old_ids, range):
        node_ids: Union[np.ndarray, List[Node]] = kept
    elif isinstance(old_ids, np.ndarray):
        node_ids = old_ids[kept]
    else:
        node_ids = [old_ids[i] for i in kept.tolist()]  # as given: mixed types stay
    return CSRGraph.from_label_codes(
        node_ids, new_indptr, new_indices, label_codes, label_indptr, csr.label_values
    )


def largest_connected_component(graph: LabeledGraph) -> LabeledGraph:
    """Return a new graph restricted to the largest connected component."""
    if graph.num_nodes == 0:
        raise EmptyGraphError("cannot take the largest component of an empty graph")
    components = connected_components(graph)
    keep = components[0]
    if len(keep) == graph.num_nodes:
        return graph.copy()
    return induced_subgraph(graph, keep)


def induced_subgraph(graph: LabeledGraph, nodes: Iterable[Node]) -> LabeledGraph:
    """Return the subgraph induced by *nodes*, preserving labels."""
    keep = set(nodes)
    result = LabeledGraph()
    for node in keep:
        result.add_node(node, graph.labels_of(node))
    for node in keep:
        for neighbor in graph.neighbors(node):
            if neighbor in keep and not result.has_edge(node, neighbor):
                result.add_edge(node, neighbor)
    return result


def is_connected(graph: LabeledGraph) -> bool:
    """Return whether *graph* is connected (empty graphs are not)."""
    if graph.num_nodes == 0:
        return False
    components = connected_components(graph)
    return len(components[0]) == graph.num_nodes


def simplify_osn_graph(
    edges: Iterable[Edge],
    labels: Optional[Dict[Node, Iterable[Label]]] = None,
    keep_largest_component: bool = True,
) -> LabeledGraph:
    """Build a cleaned :class:`LabeledGraph` from a raw OSN edge list.

    Mirrors the paper's preprocessing: symmetrise, drop self-loops and
    multi-edges, and optionally keep only the largest connected
    component.  Nodes that appear only in *labels* but not in any edge
    are dropped (isolated nodes can never be reached by a random walk).
    """
    cleaned = deduplicate_edges(edges)
    graph = LabeledGraph.from_edges(cleaned, labels=None)
    if labels:
        for node, node_labels in labels.items():
            if graph.has_node(node):
                graph.set_labels(node, node_labels)
    if keep_largest_component and graph.num_nodes > 0:
        graph = largest_connected_component(graph)
    return graph


__all__ = [
    "deduplicate_edges",
    "connected_components",
    "largest_connected_component",
    "largest_component_mask",
    "largest_connected_component_csr",
    "induced_subgraph",
    "is_connected",
    "simplify_osn_graph",
]
