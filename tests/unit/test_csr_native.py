"""The CSR-native data plane: edge-array assembly, labels, cleaning.

These tests pin the array-level builders against the dict-based
reference path on randomized inputs: same simple graph out of the same
raw edge list, same largest component, same labels through the escape
hatch — the contracts the million-node scale path relies on.
"""

import numpy as np
import pytest

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph.cleaning import (
    connected_components,
    largest_component_mask,
    largest_connected_component_csr,
)
from repro.graph.csr import CSRGraph, csr_view, indices_dtype, sorted_unique
from repro.graph.labeled_graph import LabeledGraph


def dict_graph_from_edges(edges, num_nodes):
    graph = LabeledGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for u, v in edges:
        if u != v and not graph.has_edge(int(u), int(v)):
            graph.add_edge(int(u), int(v))
    return graph


class TestFromEdgeArray:
    def test_drops_self_loops_and_duplicates(self):
        edges = np.array([[0, 1], [1, 0], [0, 1], [2, 2], [1, 2]])
        csr = CSRGraph.from_edge_array(edges, num_nodes=3)
        assert csr.num_nodes == 3
        assert csr.num_edges == 2
        assert sorted(csr.neighbors(1).tolist()) == [0, 2]

    def test_adjacency_is_symmetric_and_sorted(self):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, 30, size=(120, 2))
        csr = CSRGraph.from_edge_array(edges, num_nodes=30)
        for i in range(30):
            row = csr.neighbors(i).tolist()
            assert row == sorted(row)
            for j in row:
                assert i in csr.neighbors(int(j)).tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dict_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 150)), 2))
        csr = CSRGraph.from_edge_array(edges, num_nodes=n)
        reference = dict_graph_from_edges(edges, n)
        assert csr.num_nodes == reference.num_nodes
        assert csr.num_edges == reference.num_edges
        for i in range(n):
            assert set(csr.neighbors(i).tolist()) == set(reference.neighbors(i))

    def test_rejects_bad_shapes_and_ranges(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_array(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(GraphError):
            CSRGraph.from_edge_array(np.array([[0, 5]]), num_nodes=3)

    def test_empty_edge_list(self):
        csr = CSRGraph.from_edge_array(np.empty((0, 2), dtype=np.int64), num_nodes=4)
        assert csr.num_nodes == 4 and csr.num_edges == 0


class TestCompactIndices:
    def test_indices_dtype_is_int32_below_limit(self):
        assert indices_dtype(10) == np.int32
        assert indices_dtype(2**31 - 1) == np.int32
        assert indices_dtype(2**31) == np.int64

    def test_graph_stores_int32_indices(self):
        csr = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2]]), num_nodes=3)
        assert csr.indices.dtype == np.int32
        assert csr.indptr.dtype == np.int64

    def test_from_labeled_graph_also_compact(self, triangle_graph):
        assert csr_view(triangle_graph).indices.dtype == np.int32


class TestIdentityNodeIds:
    def test_identity_ids_are_a_range(self):
        csr = CSRGraph.from_edge_array(np.array([[0, 1]]), num_nodes=2)
        assert isinstance(csr.node_ids, range)
        assert csr.node_id_list() == [0, 1]
        assert csr.index_of(1) == 1

    def test_identity_index_of_rejects_unknown(self):
        csr = CSRGraph.from_edge_array(np.array([[0, 1]]), num_nodes=2)
        with pytest.raises(NodeNotFoundError):
            csr.index_of(5)
        with pytest.raises(NodeNotFoundError):
            csr.index_of("a")

    def test_explicit_ids_still_resolve(self, triangle_graph):
        csr = csr_view(triangle_graph)
        for node in triangle_graph.nodes():
            assert csr.node_ids[csr.index_of(node)] == node


class TestLabelArray:
    def test_label_array_masks_and_queries(self):
        csr = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [2, 0]]), num_nodes=3
        ).with_labels(label_array=np.array([7, 8, 7]))
        assert csr.label_mask(7).tolist() == [True, False, True]
        assert csr.label_mask("seven").tolist() == [False, False, False]
        assert csr.labels_of(1) == frozenset((8,))
        assert csr.all_labels() == {7, 8}
        assert csr.count_target_edges(7, 8) == 2

    def test_with_labels_shares_adjacency(self):
        base = CSRGraph.from_edge_array(np.array([[0, 1]]), num_nodes=2)
        labeled = base.with_labels(label_array=np.array([1, 2]))
        assert labeled.indices is base.indices
        assert labeled.indptr is base.indptr
        assert base.labels_of(0) == frozenset()

    def test_label_sets_and_array_mutually_exclusive(self):
        with pytest.raises(GraphError):
            CSRGraph(
                None,
                np.array([0, 1, 2]),
                np.array([1, 0]),
                [{1}, {2}],
                label_array=np.array([1, 2]),
            )

    def test_count_matches_set_labeled_view(self, rare_label_osn):
        reference = csr_view(rare_label_osn)
        # Rebuild the same graph with an array labeling.
        index_of = {n: i for i, n in enumerate(rare_label_osn.nodes())}
        labels = np.array(
            [next(iter(rare_label_osn.labels_of(n))) for n in rare_label_osn.nodes()]
        )
        edges = np.array(
            [[index_of[u], index_of[v]] for u, v in rare_label_osn.edges()]
        )
        rebuilt = CSRGraph.from_edge_array(
            edges, num_nodes=rare_label_osn.num_nodes
        ).with_labels(label_array=labels)
        for t1, t2 in ((1, 2), (1, 1), (3, 9)):
            assert rebuilt.count_target_edges(t1, t2) == reference.count_target_edges(t1, t2)


class TestToLabeledGraph:
    def test_round_trip_topology_and_labels(self):
        csr = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [3, 1]]), num_nodes=4
        ).with_labels(label_array=np.array([1, 2, 1, 2]))
        graph = csr.to_labeled_graph()
        assert graph.num_nodes == csr.num_nodes
        assert graph.num_edges == csr.num_edges
        assert list(graph.nodes()) == csr.node_id_list()
        for i, node in enumerate(csr.node_id_list()):
            assert graph.labels_of(node) == csr.labels_of(i)
            assert set(graph.neighbors(node)) == {
                csr.node_id_list()[j] for j in csr.neighbors(i).tolist()
            }

    def test_refreeze_preserves_counts(self, rare_label_osn):
        csr = csr_view(rare_label_osn)
        refrozen = csr_view(csr.to_labeled_graph())
        assert refrozen.num_nodes == csr.num_nodes
        assert refrozen.num_edges == csr.num_edges
        assert refrozen.count_target_edges(1, 2) == csr.count_target_edges(1, 2)


class TestSortedUnique:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 40, size=200)
        assert np.array_equal(sorted_unique(values), np.unique(values))

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_unique(empty).size == 0


class TestCSRCleaning:
    @pytest.mark.parametrize("seed", range(8))
    def test_largest_component_matches_dict_cleaner(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        edges = rng.integers(0, n, size=(int(rng.integers(1, 90)), 2))
        csr = CSRGraph.from_edge_array(edges, num_nodes=n)
        components = connected_components(dict_graph_from_edges(edges, n))
        mask = largest_component_mask(csr.indptr, csr.indices)
        assert int(mask.sum()) == len(components[0])
        lcc = largest_connected_component_csr(csr)
        assert lcc.num_nodes == len(components[0])
        # every surviving row is internally consistent
        assert lcc.indices.size == int(lcc.indptr[-1])
        if lcc.num_nodes > 1:
            assert int(np.asarray(lcc.degrees).min()) >= 1

    def test_connected_graph_returned_unchanged(self):
        csr = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2]]), num_nodes=3)
        assert largest_connected_component_csr(csr) is csr

    def test_node_ids_point_back_to_original_indices(self):
        # two components: {0,1,2} (a path) and {3,4} — keep the triangle
        csr = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [0, 2], [3, 4]]), num_nodes=5
        )
        lcc = largest_connected_component_csr(csr)
        assert lcc.node_id_list() == [0, 1, 2]

    def test_label_rows_and_mixed_type_ids_survive_compaction(self):
        csr = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2], [3, 4]]), num_nodes=5)
        csr = CSRGraph([1, "a", 2, "b", "c"], csr.indptr, csr.indices).with_labels(
            label_sets=[{1, "x"}, set(), {2}, {"y"}, {"y", 1}]
        )
        lcc = largest_connected_component_csr(csr)
        assert lcc.node_id_list() == [1, "a", 2]
        assert [lcc.labels_of(i) for i in range(3)] == [{1, "x"}, set(), {2}]
        assert lcc.all_labels() == {1, "x", 2}
        assert lcc.label_array() is None

    def test_labels_survive_compaction(self):
        csr = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [3, 4]]), num_nodes=5
        ).with_labels(label_array=np.array([5, 6, 5, 9, 9]))
        lcc = largest_connected_component_csr(csr)
        assert lcc.num_nodes == 3
        assert [lcc.labels_of(i) for i in range(3)] == [
            frozenset((5,)),
            frozenset((6,)),
            frozenset((5,)),
        ]
