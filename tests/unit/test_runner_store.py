"""The n_jobs worker pool: the graph picks its transport; parity, cleanup."""

import glob
import os
import pickle

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.exceptions import ConfigurationError
from repro.experiments.algorithms import build_algorithm_suite
import repro.experiments.runner as runner_module
from repro.experiments.runner import (
    GridColumn,
    GridJob,
    compare_algorithms,
    run_jobs_parallel,
)
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.store import (
    _SEGMENT_PATTERN,
    _owner_dead,
    load_csr_npz,
    publish_csr,
    save_csr_npz,
)

#: Every (execution, reuse) pair; CSR graphs cannot run the first one.
KNOBS = [("sequential", "none"), ("fleet", "none"), ("sequential", "prefix"), ("fleet", "prefix")]


@pytest.fixture(scope="module")
def csr_graph() -> CSRGraph:
    """A small connected CSR graph with binary labels (fast fleet cells)."""
    rng = np.random.default_rng(3)
    hub_edges = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
    random_edges = rng.integers(0, 300, size=(1500, 2))
    edges = np.concatenate([hub_edges, random_edges])
    labels = rng.integers(1, 3, size=300)
    return CSRGraph.from_edge_array(edges, num_nodes=300, label_array=labels)


@pytest.fixture
def shm_graph(csr_graph):
    """An shm-attached copy of ``csr_graph``, published without caches."""
    cold = CSRGraph(
        None, csr_graph.indptr.copy(), csr_graph.indices.copy(),
        label_array=np.asarray(csr_graph.label_array()).copy(),
    )
    with publish_csr(cold) as publication:
        attached = publication.attach()
        yield attached
        del attached


@pytest.fixture(scope="module")
def proposed_suite(csr_graph):
    suite = build_algorithm_suite(include_baselines=False)
    return {name: suite[name] for name in ("NeighborSample-HH", "NeighborExploration-HH")}


def _table(graph, suite, n_jobs, execution="fleet", reuse="none"):
    return compare_algorithms(
        graph,
        1,
        2,
        sample_fractions=(0.02, 0.05),
        repetitions=5,
        algorithms=suite,
        burn_in=10,
        seed=42,
        execution=execution,
        n_jobs=n_jobs,
        reuse=reuse,
    )


def _cells(table):
    return {
        name: [(cell.sample_size, cell.estimates, cell.api_calls) for cell in table.cells[name]]
        for name in table.algorithms()
    }


def _job(algorithm):
    column = GridColumn(1, 2, 5, 10)
    return GridJob(algorithm, 1, (0,), (column,), 5, 2, 2, fleet=True)


def _shm_segments():
    """The shm segments a leak check can blame on this test process.

    A ``repro-<pid>-*`` segment counts when its publisher is this
    process or is dead (a crashed worker's); a segment of another live
    process publishing at the same time is not a leak of ours.  Every
    ``psm_*`` segment counts.
    """
    ours = set()
    for path in glob.glob("/dev/shm/repro-*"):
        match = _SEGMENT_PATTERN.match(os.path.basename(path))
        if match is None:
            continue
        pid = int(match.group("pid"))
        if pid == os.getpid() or _owner_dead(pid):
            ours.add(path)
    return ours | set(glob.glob("/dev/shm/psm_*"))


class TestStoreParity:
    def test_tables_bit_identical_across_backings_and_jobs(
        self, csr_graph, shm_graph, proposed_suite
    ):
        """Any (backing, n_jobs) combination yields the exact same table."""
        reference = _cells(_table(csr_graph, proposed_suite, 1))
        for graph, n_jobs in [(csr_graph, 2), (csr_graph, 3), (shm_graph, 2), (shm_graph, 1)]:
            assert _cells(_table(graph, proposed_suite, n_jobs)) == reference

    def test_graph_reloaded_from_an_archive_gives_the_same_table(
        self, csr_graph, proposed_suite, tmp_path
    ):
        """A save_csr_npz / load_csr_npz round trip moves no draw."""
        reference = _cells(_table(csr_graph, proposed_suite, 1))
        reloaded = load_csr_npz(save_csr_npz(csr_graph, tmp_path / "g.npz"))
        assert reloaded.store == "ram"
        for n_jobs in (1, 2):
            assert _cells(_table(reloaded, proposed_suite, n_jobs)) == reference

    def test_no_segments_leaked_by_successful_runs(self, csr_graph, proposed_suite):
        before = _shm_segments()
        for reuse in ("none", "prefix"):  # prefix fleets cross the pool too
            _table(csr_graph, proposed_suite, 2, reuse=reuse)
        assert _shm_segments() == before


class TestJobEquivalence:
    """Every valid (execution, reuse, n_jobs, graph) run equals its n_jobs=1 run."""

    @pytest.fixture(scope="class")
    def mixed_suite(self, gender_osn):
        suite = build_algorithm_suite(gender_osn)
        return {name: suite[name] for name in ("NeighborSample-HT", "NeighborExploration-HH", "EX-RW")}

    @pytest.mark.parametrize("execution, reuse", KNOBS)
    def test_dict_graph(self, gender_osn, mixed_suite, execution, reuse):
        serial = _table(gender_osn, mixed_suite, 1, execution, reuse)
        assert _cells(_table(gender_osn, mixed_suite, 2, execution, reuse)) == _cells(serial)

    @pytest.mark.parametrize("execution, reuse", [("fleet", "none"), ("fleet", "prefix")])
    def test_csr_view_of_a_dict_graph(self, gender_osn, mixed_suite, execution, reuse, monkeypatch):
        """A dict graph's CSR view is published to shm like any CSR graph."""
        view = csr_view(gender_osn)
        published = []

        def spy(graph):
            publication = publish_csr(graph)
            published.append(publication.handle)
            return publication

        serial = _table(view, mixed_suite, 1, execution, reuse)
        monkeypatch.setattr(runner_module, "publish_csr", spy)
        assert _cells(_table(view, mixed_suite, 2, execution, reuse)) == _cells(serial)
        assert len(published) == 1
        assert _cells(_table(gender_osn, mixed_suite, 1, execution, reuse)) == _cells(serial)

    @pytest.mark.parametrize(
        "execution, reuse, shipped",
        [("fleet", "prefix", CSRGraph), ("fleet", "none", CSRGraph), ("sequential", "none", LabeledGraph)],
    )
    def test_dict_graph_ships_its_csr_view_when_every_job_is_a_fleet_job(
        self, gender_osn, mixed_suite, execution, reuse, shipped, monkeypatch
    ):
        """Workers get the parent's frozen view unless a reference job needs the dict."""
        seen = []

        def spy(graph, *args):
            seen.append(graph)
            return run_jobs_parallel(graph, *args)

        monkeypatch.setattr(runner_module, "run_jobs_parallel", spy)
        _table(gender_osn, mixed_suite, 2, execution, reuse)
        assert len(seen) == 1 and type(seen[0]) is shipped
        if shipped is CSRGraph:
            assert seen[0] is csr_view(gender_osn)

    @pytest.mark.parametrize("execution, reuse", KNOBS[1:])
    def test_ram_and_shm_csr_datasets(self, execution, reuse):
        ram = load_dataset("facebook", seed=9, scale=0.1, representation="csr", use_cache=False)
        suite = build_algorithm_suite(ram.graph, algorithms=["NeighborSample-HH", "EX-MHRW"])
        reference = _cells(_table(ram.graph, suite, 1, execution, reuse))
        with publish_csr(ram.graph) as publication:
            attached = publication.attach()
            assert attached.store == "shm"
            for graph, n_jobs in [(ram.graph, 2), (attached, 1), (attached, 2)]:
                assert _cells(_table(graph, suite, n_jobs, execution, reuse)) == reference
            del attached


class TestStoreErrors:
    def test_worker_error_does_not_leak_segments(self, csr_graph, proposed_suite):
        """A job that dies in the worker still releases the published segment."""
        before = _shm_segments()
        with pytest.raises(KeyError):
            run_jobs_parallel(
                csr_graph, proposed_suite, [_job("not-in-the-suite")], 2, lambda job, row: None
            )
        assert _shm_segments() == before

    def test_mixed_type_node_ids_refused_before_any_worker_starts(
        self, csr_graph, proposed_suite, monkeypatch
    ):
        mixed = CSRGraph(
            ["hub"] + list(range(1, csr_graph.num_nodes)),
            csr_graph.indptr,
            csr_graph.indices,
            label_array=np.asarray(csr_graph.label_array()).copy(),
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", no_pool)
        before = _shm_segments()
        with pytest.raises(ConfigurationError, match="n_jobs=1"):
            run_jobs_parallel(
                mixed, proposed_suite, [_job("NeighborSample-HH")], 2, lambda job, row: None
            )
        assert _shm_segments() == before

    def test_unpicklable_suite_probed_before_publishing(self, csr_graph):
        """Closure suites fail fast, without leaking a published segment."""
        before = _shm_segments()
        closure_suite = {"closure": lambda *args, **kwargs: None}
        with pytest.raises(ConfigurationError, match="picklable"):
            run_jobs_parallel(csr_graph, closure_suite, [_job("closure")], 2, lambda job, row: None)
        assert _shm_segments() == before
