"""Numpy fast-path loaders: loadtxt/fromfile parsing and .npz caching."""

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.graph.io import (
    load_edge_array,
    load_edge_list,
    load_edge_list_csr,
    save_edge_array,
)


@pytest.fixture
def edge_file(tmp_path):
    rng = np.random.default_rng(1)
    edges = rng.integers(0, 150, size=(500, 2))
    path = tmp_path / "edges.txt"
    lines = ["# SNAP-style comment"] + [f"{u}\t{v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    return path, edges


class TestLoadEdgeArray:
    def test_parses_text(self, edge_file):
        path, edges = edge_file
        assert np.array_equal(load_edge_array(path), edges)

    def test_binary_round_trip(self, tmp_path):
        edges = np.array([[1, 2], [3, 4], [5, 6]])
        path = tmp_path / "edges.bin"
        save_edge_array(edges, path)
        assert np.array_equal(load_edge_array(path), edges)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_edge_array(tmp_path / "nope.txt")

    def test_non_integer_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b\n")
        with pytest.raises(DatasetError):
            load_edge_array(path)

    def test_odd_binary_file(self, tmp_path):
        path = tmp_path / "odd.bin"
        np.array([1, 2, 3], dtype=np.int64).tofile(path)
        with pytest.raises(DatasetError):
            load_edge_array(path)


class TestLoadEdgeListCSR:
    def test_matches_reference_loader(self, edge_file):
        path, _ = edge_file
        reference = load_edge_list(path)
        fast = load_edge_list_csr(path)
        assert fast.num_nodes == reference.num_nodes
        assert fast.num_edges == reference.num_edges
        assert set(fast.node_id_list()) == set(reference.nodes())
        for index, node in enumerate(fast.node_id_list()):
            fast_row = {fast.node_ids[j] for j in fast.neighbors(index).tolist()}
            assert fast_row == set(reference.neighbors(node))

    def test_without_component_filter(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n2 3\n4 5\n6 7\n8 9\n")
        full = load_edge_list_csr(path, keep_largest_component=False)
        assert full.num_nodes == 10 and full.num_edges == 5

    def test_npz_cache_written_and_reused(self, edge_file):
        path, _ = edge_file
        first = load_edge_list_csr(path, cache=True)
        sidecar = path.with_name(path.name + ".npz")
        assert sidecar.exists()
        # Delete the original; the cache is all there is and must serve.
        path.unlink()
        cached = load_edge_list_csr(path, cache=True)
        assert cached.num_nodes == first.num_nodes
        assert np.array_equal(cached.indices, first.indices)
        assert cached.node_id_list() == first.node_id_list()

    def test_same_second_rewrite_cannot_serve_stale_sidecar(self, tmp_path):
        # Regression: the old check compared second-resolution st_mtime
        # with >=, so a source rewritten twice within one second kept
        # serving the first rewrite's sidecar.
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        first = load_edge_list_csr(path, cache=True)
        assert first.num_nodes == 3
        path.write_text("0 1\n1 2\n2 3\n3 0\n")
        second = load_edge_list_csr(path, cache=True)
        assert second.num_nodes == 4

    def test_rewritten_source_invalidates_cache(self, edge_file):
        path, _ = edge_file
        load_edge_list_csr(path, cache=True)
        # Rewriting the source must invalidate the sidecar — even when
        # the rewrite lands within the same second (the fingerprint is
        # st_mtime_ns + size, not the old second-resolution mtime).
        path.write_text("not an edge list")
        with pytest.raises(DatasetError):
            load_edge_list_csr(path, cache=True)

    def test_explicit_cache_path(self, edge_file, tmp_path):
        path, _ = edge_file
        sidecar = tmp_path / "cache" / "edges.npz"
        load_edge_list_csr(path, cache=sidecar)
        assert sidecar.exists()

    def test_cache_respects_component_setting(self, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("0 1\n1 2\n5 6\n")
        raw = load_edge_list_csr(path, keep_largest_component=False, cache=True)
        assert raw.num_nodes == 5
        # The other setting must not be served the raw cache.
        cleaned = load_edge_list_csr(path, keep_largest_component=True, cache=True)
        assert cleaned.num_nodes == 3
        assert load_edge_list_csr(
            path, keep_largest_component=True, cache=True
        ).num_nodes == 3

    def test_stale_cache_rebuilt(self, edge_file):
        import os

        path, _ = edge_file
        sidecar = path.with_name(path.name + ".npz")
        first = load_edge_list_csr(path, cache=True)
        path.write_text("0 1\n1 2\n")
        os.utime(path, (sidecar.stat().st_mtime + 10, sidecar.stat().st_mtime + 10))
        rebuilt = load_edge_list_csr(path, cache=True)
        assert rebuilt.num_nodes == 3
        assert rebuilt.num_nodes != first.num_nodes
