"""Unit tests for exact graph statistics and ground-truth counting."""

import numpy as np
import pytest

from repro.datasets.labeling import assign_zipf_labels
from repro.datasets.synthetic import powerlaw_cluster_osn
from repro.exceptions import EmptyGraphError
from repro.graph.csr import CSRGraph, canonical_pair, csr_view
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.statistics import (
    count_target_edges,
    degree_histogram,
    edge_label_histogram,
    label_histogram,
    label_pair_by_frequency_quartile,
    nodes_covering_target_edges,
    summarize_graph,
    target_edge_fraction,
    target_incident_counts,
)


class TestCountTargetEdges:
    def test_triangle(self, triangle_graph):
        assert count_target_edges(triangle_graph, "a", "b") == 2
        assert count_target_edges(triangle_graph, "b", "a") == 2

    def test_path(self, path_graph):
        assert count_target_edges(path_graph, "x", "y") == 3

    def test_star(self, star_graph):
        assert count_target_edges(star_graph, "hub", "leaf") == 5

    def test_missing_labels_give_zero(self, triangle_graph):
        assert count_target_edges(triangle_graph, "nope", "b") == 0

    def test_same_label_pair(self):
        graph = LabeledGraph.from_edges([(1, 2), (2, 3)], {1: ["a"], 2: ["a"], 3: ["b"]})
        assert count_target_edges(graph, "a", "a") == 1

    def test_multi_label_nodes(self):
        graph = LabeledGraph.from_edges([(1, 2)], {1: ["a", "b"], 2: ["c"]})
        assert count_target_edges(graph, "a", "c") == 1
        assert count_target_edges(graph, "b", "c") == 1

    def test_accepts_csr_view_directly(self, triangle_graph):
        from repro.graph.csr import csr_view

        assert count_target_edges(csr_view(triangle_graph), "a", "b") == 2

    def test_vectorized_matches_dict_loop(self, gender_osn, rare_label_osn):
        from repro.graph.statistics import _count_target_edges_dict

        assert count_target_edges(gender_osn, 1, 2) == _count_target_edges_dict(
            gender_osn, 1, 2
        )
        labels = sorted(rare_label_osn.all_labels())
        for t1, t2 in [(labels[0], labels[1]), (labels[0], labels[0])]:
            assert count_target_edges(rare_label_osn, t1, t2) == _count_target_edges_dict(
                rare_label_osn, t1, t2
            )

    def test_cache_invalidated_by_mutation(self):
        graph = LabeledGraph.from_edges([(1, 2), (2, 3)], {1: ["a"], 2: ["b"], 3: ["a"]})
        assert count_target_edges(graph, "a", "b") == 2
        graph.set_labels(3, ["b"])  # (2,3) is now b-b, not a-b
        assert count_target_edges(graph, "a", "b") == 1
        graph.add_edge(1, 3)  # new a-b edge
        assert count_target_edges(graph, "a", "b") == 2

    def test_dict_fallback_for_graph_likes(self, triangle_graph):
        class Wrapper:
            """Graph-like that is not a LabeledGraph (no version counter)."""

            def edges(self):
                return triangle_graph.edges()

            def labels_of(self, node):
                return triangle_graph.labels_of(node)

        assert count_target_edges(Wrapper(), "a", "b") == 2

    def test_fraction(self, triangle_graph):
        assert target_edge_fraction(triangle_graph, "a", "b") == pytest.approx(2 / 3)

    def test_fraction_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            target_edge_fraction(LabeledGraph(), "a", "b")


class TestLabelPairCounts:
    """Ground truth and the edge-label histogram read one memoised pass."""

    @staticmethod
    def _assert_matches_dict_loop(graph, reference):
        from repro.graph.statistics import _count_target_edges_dict

        labels = sorted(reference.all_labels(), key=repr)
        histogram = edge_label_histogram(graph)
        for t1 in labels:
            for t2 in labels:
                expected = _count_target_edges_dict(reference, t1, t2)
                assert count_target_edges(graph, t1, t2) == expected, (t1, t2)
                assert histogram.get(canonical_pair(t1, t2), 0) == expected, (t1, t2)
        assert all(count > 0 for count in histogram.values())

    def test_every_pair_on_dict_set_and_array_graphs(self):
        graph = powerlaw_cluster_osn(150, 3, 0.3, rng=5)
        assign_zipf_labels(graph, num_labels=8, exponent=1.0, rng=6)
        view = csr_view(graph)
        single = [next(iter(view.labels_of(i))) for i in range(view.num_nodes)]
        array = view.with_labels(label_array=np.array(single))
        for candidate in (graph, view, array):
            self._assert_matches_dict_loop(candidate, graph)

    def test_multi_labeled_nodes_with_mixed_label_types(self):
        graph = powerlaw_cluster_osn(80, 3, 0.3, rng=9)
        assign_zipf_labels(graph, num_labels=4, exponent=1.0, rng=10)
        for node in list(graph.nodes())[::5]:
            graph.set_labels(node, set(graph.labels_of(node)) | {"x"})
        self._assert_matches_dict_loop(graph, graph)
        self._assert_matches_dict_loop(csr_view(graph), graph)

    def test_string_label_array(self):
        graph = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]]),
            num_nodes=4,
            label_array=np.array(["a", "b", "a", "b"]),
        )
        assert edge_label_histogram(graph) == {("a", "a"): 1, ("a", "b"): 4}
        self._assert_matches_dict_loop(graph, graph.to_labeled_graph())

    def test_widely_spread_integer_labels(self):
        graph = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [2, 3], [1, 3], [0, 3]]),
            num_nodes=4,
            label_array=np.array([0, 2**40, 2**41, 2**41]),
        )
        assert edge_label_histogram(graph) == {
            (0, 2**40): 1,
            (0, 2**41): 1,
            (2**40, 2**41): 2,
            (2**41, 2**41): 1,
        }
        self._assert_matches_dict_loop(graph, graph.to_labeled_graph())

    def test_a_new_pair_is_a_lookup(self, monkeypatch):
        graph = CSRGraph.from_edge_array(
            np.array([[0, 1], [1, 2], [2, 0], [2, 3]]),
            num_nodes=4,
            label_array=np.array([1, 2, 3, 2]),
        )
        assert graph.count_target_edges(1, 2) == 1

        def no_pass(*args, **kwargs):
            raise AssertionError("counting a new pair walked the graph again")

        monkeypatch.setattr(graph, "_label_array_pair_counts", no_pass)
        monkeypatch.setattr(graph, "label_mask", no_pass)
        assert graph.count_target_edges(3, 2) == 2
        assert graph.count_target_edges(3, 3) == 0
        assert graph.count_target_edges("nope", 2) == 0
        edge_label_histogram(graph)[(1, 2)] = 99  # callers get a copy
        assert graph.count_target_edges(2, 1) == 1
        relabeled = graph.with_labels(label_array=np.array([2, 2, 2, 2]))
        monkeypatch.undo()
        assert relabeled.count_target_edges(2, 2) == 4


class TestIncidentCounts:
    def test_sum_is_twice_count(self, triangle_graph):
        counts = target_incident_counts(triangle_graph, "a", "b")
        assert sum(counts.values()) == 2 * count_target_edges(triangle_graph, "a", "b")

    def test_sum_is_twice_count_random_graph(self, gender_osn):
        counts = target_incident_counts(gender_osn, 1, 2)
        assert sum(counts.values()) == 2 * count_target_edges(gender_osn, 1, 2)

    def test_nodes_covering_target_edges(self, triangle_graph):
        assert nodes_covering_target_edges(triangle_graph, "a", "b") == {1, 2, 3}
        # For a pair with no target edges the covering set is empty.
        assert nodes_covering_target_edges(triangle_graph, "zz", "b") == set()


class TestHistograms:
    def test_degree_histogram(self, star_graph):
        assert degree_histogram(star_graph) == {5: 1, 1: 5}

    def test_label_histogram(self, triangle_graph):
        assert label_histogram(triangle_graph) == {"a": 2, "b": 1}

    def test_edge_label_histogram(self, triangle_graph):
        histogram = edge_label_histogram(triangle_graph)
        assert histogram[("a", "b")] == 2
        assert histogram[("a", "a")] == 1

    def test_edge_label_histogram_counts_each_edge_once_per_pair(self):
        graph = LabeledGraph.from_edges([(1, 2)], {1: ["a", "b"], 2: ["a"]})
        histogram = edge_label_histogram(graph)
        # pairs ('a','a') and ('a','b') each appear once for this single edge
        assert histogram == {("a", "a"): 1, ("a", "b"): 1}

    def test_quartile_split(self, rare_label_osn):
        buckets = label_pair_by_frequency_quartile(rare_label_osn, quartiles=4)
        assert len(buckets) == 4
        flattened = [count for bucket in buckets for _, count in bucket]
        assert flattened == sorted(flattened)

    def test_quartile_split_invalid(self, triangle_graph):
        with pytest.raises(ValueError):
            label_pair_by_frequency_quartile(triangle_graph, quartiles=0)


class TestSummary:
    def test_summary_fields(self, triangle_graph):
        summary = summarize_graph(triangle_graph, name="tri")
        assert summary.name == "tri"
        assert summary.num_nodes == 3
        assert summary.num_edges == 3
        assert summary.max_degree == 2
        assert summary.average_degree == pytest.approx(2.0)
        assert summary.num_distinct_labels == 2

    def test_summary_as_row(self, triangle_graph):
        row = summarize_graph(triangle_graph, name="tri").as_row()
        assert row[0] == "tri"
        assert row[1] == 3

    def test_summary_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            summarize_graph(LabeledGraph())
