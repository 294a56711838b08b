"""``load_dataset(..., representation="csr")`` — the CSR-native registry path."""

import numpy as np
import pytest

from repro.core.pipeline import estimate_target_edge_count
from repro.datasets.registry import (
    REPRESENTATIONS,
    clear_dataset_cache,
    load_dataset,
)
from repro.exceptions import DatasetError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.statistics import count_target_edges


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_dataset_cache()
    yield
    clear_dataset_cache()


class TestRepresentationCSR:
    def test_returns_csr_graph(self):
        dataset = load_dataset("facebook", seed=1, scale=0.1, representation="csr")
        assert isinstance(dataset.graph, CSRGraph)
        assert dataset.representation == "csr"
        assert dataset.target_pairs == [(1, 2)]
        assert dataset.target_counts[(1, 2)] > 0

    def test_dict_default_unchanged(self):
        dataset = load_dataset("facebook", seed=1, scale=0.1)
        assert isinstance(dataset.graph, LabeledGraph)
        assert dataset.representation == "dict"

    @pytest.mark.parametrize("name", ["pokec", "orkut", "livejournal"])
    def test_label_models_and_pair_selection(self, name):
        dataset = load_dataset(name, seed=2, scale=0.1, representation="csr")
        assert len(dataset.target_pairs) == dataset.spec.num_target_pairs
        for pair in dataset.target_pairs:
            assert dataset.target_counts[pair] > 0
        fractions = [dataset.fraction(pair) for pair in dataset.target_pairs]
        # pairs are chosen to span the frequency range, rarest first
        assert fractions == sorted(fractions)

    def test_cache_keys_are_per_representation(self):
        dict_dataset = load_dataset("facebook", seed=3, scale=0.1)
        csr_dataset = load_dataset("facebook", seed=3, scale=0.1, representation="csr")
        assert dict_dataset is load_dataset("facebook", seed=3, scale=0.1)
        assert csr_dataset is load_dataset(
            "facebook", seed=3, scale=0.1, representation="csr"
        )
        assert dict_dataset is not csr_dataset

    def test_unknown_representation_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("facebook", representation="sparse")
        assert REPRESENTATIONS == ("dict", "csr")

    def test_deterministic_per_seed(self):
        first = load_dataset("pokec", seed=4, scale=0.1, representation="csr", use_cache=False)
        second = load_dataset("pokec", seed=4, scale=0.1, representation="csr", use_cache=False)
        assert np.array_equal(first.graph.indices, second.graph.indices)
        assert np.array_equal(first.graph.label_array(), second.graph.label_array())
        assert first.target_pairs == second.target_pairs


class TestEscapeHatch:
    def test_lazy_and_cached(self):
        dataset = load_dataset("facebook", seed=5, scale=0.1, representation="csr")
        first = dataset.to_labeled_graph()
        assert isinstance(first, LabeledGraph)
        assert dataset.to_labeled_graph() is first

    def test_dict_dataset_returns_graph_itself(self):
        dataset = load_dataset("facebook", seed=5, scale=0.1)
        assert dataset.to_labeled_graph() is dataset.graph

    def test_counts_agree_across_the_hatch(self):
        dataset = load_dataset("orkut", seed=6, scale=0.1, representation="csr")
        graph = dataset.to_labeled_graph()
        for pair in dataset.target_pairs:
            assert count_target_edges(graph, *pair) == dataset.target_counts[pair]

    def test_one_shot_runs_on_the_csr_dataset(self):
        dataset = load_dataset("facebook", seed=7, scale=0.1, representation="csr")
        result = estimate_target_edge_count(
            dataset.graph,
            1,
            2,
            algorithm="NeighborExploration-HH",
            sample_size=50,
            burn_in=10,
            seed=8,
        )
        assert result.sample_size == 50
        assert 0 < result.api_calls <= dataset.graph.num_nodes
        assert result.estimate >= 0

    def test_python_backend_runs_through_the_hatch(self):
        dataset = load_dataset("facebook", seed=7, scale=0.1, representation="csr")
        result = estimate_target_edge_count(
            dataset.to_labeled_graph(),
            1,
            2,
            algorithm="NeighborSample-HH",
            sample_size=50,
            burn_in=10,
            seed=8,
        )
        assert result.estimate >= 0


class TestGraphStore:
    def test_csr_datasets_live_in_ram(self):
        dataset = load_dataset("facebook", seed=9, scale=0.1, representation="csr")
        assert dataset.graph.store == "ram"
        # The n_jobs pool publishes to shared memory by itself; the
        # registry has no store option.
        with pytest.raises(TypeError, match="graph_store"):
            load_dataset(
                "facebook", seed=9, scale=0.1, representation="csr", graph_store="ram"
            )
