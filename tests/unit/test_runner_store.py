"""The n_jobs graph-store plane: handle shipping, parity, cleanup."""

import glob
import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import CellTask, compare_algorithms, run_cells_parallel
from repro.graph.csr import CSRGraph
from repro.graph.store import save_csr_npz, load_csr_npz


@pytest.fixture(scope="module")
def csr_graph() -> CSRGraph:
    """A small connected CSR graph with binary labels (fast fleet cells)."""
    rng = np.random.default_rng(3)
    hub_edges = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
    random_edges = rng.integers(0, 300, size=(1500, 2))
    edges = np.concatenate([hub_edges, random_edges])
    labels = rng.integers(1, 3, size=300)
    return CSRGraph.from_edge_array(edges, num_nodes=300, label_array=labels)


@pytest.fixture(scope="module")
def proposed_suite(csr_graph):
    suite = build_algorithm_suite(include_baselines=False)
    return {name: suite[name] for name in ("NeighborSample-HH", "NeighborExploration-HH")}


def _table(graph, suite, n_jobs, graph_store):
    return compare_algorithms(
        graph,
        1,
        2,
        sample_fractions=(0.02, 0.05),
        repetitions=5,
        algorithms=suite,
        burn_in=10,
        seed=42,
        execution="fleet",
        n_jobs=n_jobs,
        graph_store=graph_store,
    )


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


class TestStoreParity:
    def test_tables_bit_identical_across_stores_and_jobs(
        self, csr_graph, proposed_suite, tmp_path
    ):
        """Any (store, n_jobs) combination yields the exact same table."""
        reference = _table(csr_graph, proposed_suite, 1, "ram")
        mmap_graph = load_csr_npz(save_csr_npz(csr_graph, tmp_path / "g.npz"))
        variants = [
            _table(csr_graph, proposed_suite, 2, "ram"),
            _table(csr_graph, proposed_suite, 2, "shm"),
            _table(csr_graph, proposed_suite, 3, "shm"),
            _table(mmap_graph, proposed_suite, 2, "mmap"),
            _table(mmap_graph, proposed_suite, 1, "ram"),
        ]
        for table in variants:
            assert table.algorithms() == reference.algorithms()
            for name in reference.algorithms():
                for ours, theirs in zip(table.cells[name], reference.cells[name]):
                    assert ours.estimates == theirs.estimates
                    assert ours.api_calls == theirs.api_calls

    def test_no_segments_leaked_by_successful_runs(self, csr_graph, proposed_suite):
        before = _shm_segments()
        _table(csr_graph, proposed_suite, 2, "shm")
        assert _shm_segments() == before


class TestStoreErrors:
    def test_dict_graph_rejects_external_store(self, gender_osn):
        suite = build_algorithm_suite(include_baselines=False)
        with pytest.raises(ConfigurationError, match="graph_store"):
            compare_algorithms(
                gender_osn,
                1,
                2,
                sample_fractions=(0.02,),
                repetitions=2,
                algorithms=suite,
                burn_in=5,
                seed=1,
                n_jobs=2,
                graph_store="shm",
            )

    def test_unknown_store_rejected(self, csr_graph, proposed_suite):
        with pytest.raises(ConfigurationError, match="unknown graph store"):
            _table(csr_graph, proposed_suite, 2, "tape")

    def test_worker_error_does_not_leak_segments(self, csr_graph, proposed_suite):
        """A cell that dies in the worker still releases the published segment."""
        before = _shm_segments()
        cells = [
            CellTask(
                algorithm="not-in-the-suite",
                column=0,
                sample_size=5,
                seed=1,
                t1=1,
                t2=2,
                repetitions=2,
                burn_in=2,
                true_count=10,
                execution="fleet",
            )
        ]
        with pytest.raises(KeyError):
            run_cells_parallel(
                csr_graph, proposed_suite, cells, 2, None, graph_store="shm"
            )
        assert _shm_segments() == before

    def test_unpicklable_suite_probed_before_publishing(self, csr_graph):
        """Closure suites fail fast, without leaking a published segment."""
        before = _shm_segments()
        closure_suite = {"closure": lambda *args, **kwargs: None}
        cells = [
            CellTask(
                algorithm="closure",
                column=0,
                sample_size=5,
                seed=1,
                t1=1,
                t2=2,
                repetitions=2,
                burn_in=2,
                true_count=10,
                execution="fleet",
            )
        ]
        with pytest.raises(ConfigurationError, match="picklable"):
            run_cells_parallel(
                csr_graph, closure_suite, cells, 2, None, graph_store="shm"
            )
        assert _shm_segments() == before


class TestHandleShipping:
    def test_mmap_dataset_ships_as_o1_handle(self, csr_graph, tmp_path):
        """The pool initargs payload for an mmap graph is the handle, not bytes."""
        mmap_graph = load_csr_npz(save_csr_npz(csr_graph, tmp_path / "g.npz"))
        assert len(pickle.dumps(mmap_graph)) < 1024
        ram_blob = pickle.dumps(csr_graph)
        assert len(ram_blob) > 10 * 1024  # the by-value pickle it replaces


class TestWarmCacheShipping:
    def test_reused_handle_ships_parent_caches_by_value(self, csr_graph, tmp_path):
        """An already-mmap-backed graph keeps its cache-less handle on
        republication; the runner must hand the parent's derived caches
        to workers instead of letting each re-stream the adjacency."""
        from repro.experiments.runner import _WORKER_STATE, _init_cell_worker
        from repro.graph.store import publish_csr

        mmap_graph = load_csr_npz(save_csr_npz(csr_graph, tmp_path / "g.npz"))
        truth = mmap_graph.count_target_edges(1, 2)  # parent-side classification
        publication = publish_csr(mmap_graph, "mmap")
        assert not publication.owns_resource  # reused the existing handle
        assert publication.handle.target_counts == ()  # which carries no caches
        exported = mmap_graph.export_label_caches()
        saved_state = dict(_WORKER_STATE)
        try:
            _init_cell_worker(
                publication.handle, pickle.dumps({}), True, exported
            )
            worker_graph = _WORKER_STATE["graph"]
            assert worker_graph._target_count_cache[(1, 2)] == truth
            assert 1 in worker_graph._mask_cache
            assert (1, 2) in worker_graph._incident_cache
        finally:
            _WORKER_STATE.clear()
            _WORKER_STATE.update(saved_state)
        publication.unlink()  # non-owning: must leave the sidecar alone
        assert (tmp_path / "g.npz").exists()

    def test_mmap_store_tables_still_bit_identical(self, csr_graph, proposed_suite, tmp_path):
        mmap_graph = load_csr_npz(save_csr_npz(csr_graph, tmp_path / "g2.npz"))
        mmap_graph.count_target_edges(1, 2)  # warm before the pool runs
        reference = _table(csr_graph, proposed_suite, 1, "ram")
        table = _table(mmap_graph, proposed_suite, 2, "mmap")
        for name in reference.algorithms():
            for ours, theirs in zip(table.cells[name], reference.cells[name]):
                assert ours.estimates == theirs.estimates
