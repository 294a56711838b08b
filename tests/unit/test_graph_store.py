"""Buffer stores: shm publish/attach, handles, cleanup semantics, npz archives."""

import dataclasses
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.exceptions import ArtifactCorruptError, ConfigurationError, StoreAttachError
from repro.graph.csr import CSRGraph
from repro.graph.store import (
    GRAPH_STORES,
    attach_csr,
    load_csr_npz,
    publish_csr,
    save_csr_npz,
    sweep_orphan_segments,
    validate_graph_store,
)
from repro.walks.batched import BatchedWalkEngine


@pytest.fixture(scope="module")
def labeled_csr() -> CSRGraph:
    """A ~400-node random CSR graph with three labels."""
    rng = np.random.default_rng(7)
    edges = rng.integers(0, 400, size=(2400, 2))
    labels = rng.integers(1, 4, size=400)
    return CSRGraph.from_edge_array(edges, num_nodes=400, label_array=labels)


def _assert_same_graph(attached: CSRGraph, original: CSRGraph) -> None:
    assert np.array_equal(attached.indptr, original.indptr)
    assert np.array_equal(attached.indices, original.indices)
    assert np.array_equal(attached.label_array(), original.label_array())
    assert attached.num_nodes == original.num_nodes
    assert attached.num_edges == original.num_edges


class TestValidation:
    def test_set_labeled_graph_publishes_like_its_label_array(self, labeled_csr):
        set_labeled = labeled_csr.with_labels(
            label_sets=[{int(label)} for label in labeled_csr.label_array()]
        )
        with publish_csr(set_labeled) as publication:
            attached = publication.attach()
            _assert_same_graph(attached, labeled_csr)
            assert attached.label_array().dtype == labeled_csr.label_array().dtype
            del attached

    def test_stores_are_ram_and_shm(self):
        assert GRAPH_STORES == ("ram", "shm")

    def test_known_stores_pass(self):
        for store in ("ram", "shm"):
            assert validate_graph_store(store) == store

    def test_unknown_store_rejected(self):
        for store in ("tape", "mmap"):
            with pytest.raises(ConfigurationError, match="unknown graph store"):
                validate_graph_store(store)

    def test_multi_labeled_graphs_publish(self):
        graph = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2]]))
        graph = graph.with_labels(label_sets=[{"a", 1}, {"a"}, set()])
        with publish_csr(graph) as publication:
            attached = publication.attach()
            assert [attached.labels_of(i) for i in range(3)] == [{"a", 1}, {"a"}, set()]
            assert attached.count_target_edges(1, "a") == graph.count_target_edges(1, "a") == 1
            del attached

    def test_mixed_type_node_ids_not_publishable(self):
        graph = CSRGraph(
            ["u", 1], np.array([0, 1, 2]), np.array([1, 0])
        )
        with pytest.raises(ConfigurationError, match="n_jobs=1.*graph_store='ram'"):
            publish_csr(graph)

    def test_string_node_ids_publish(self):
        graph = CSRGraph(["u", "v"], np.array([0, 1, 2]), np.array([1, 0]))
        with publish_csr(graph) as publication:
            attached = publication.attach()
            assert attached.node_id_list() == ["u", "v"]
            assert attached.index_of("v") == 1
            del attached

    def test_labels_json_cannot_hold_exactly_are_refused(self):
        graph = CSRGraph.from_edge_array(np.array([[0, 1]]))
        graph = graph.with_labels(label_sets=[{(1, 2)}, {"a"}])
        with pytest.raises(ConfigurationError, match="label values"):
            publish_csr(graph)

    def test_attach_rejects_non_handles(self):
        with pytest.raises(ConfigurationError, match="CSRHandle"):
            attach_csr("not-a-handle")


class TestSharedMemory:
    def test_round_trip_and_queries(self, labeled_csr):
        with publish_csr(labeled_csr) as publication:
            attached = publication.attach()
            _assert_same_graph(attached, labeled_csr)
            assert attached.store == "shm"
            assert attached.count_target_edges(1, 2) == labeled_csr.count_target_edges(1, 2)
            del attached

    def test_attached_buffers_are_read_only(self, labeled_csr):
        with publish_csr(labeled_csr) as publication:
            attached = publication.attach()
            with pytest.raises(ValueError):
                attached.indices[0] = 0
            del attached

    def test_handle_pickles_in_o1(self, labeled_csr):
        with publish_csr(labeled_csr) as publication:
            blob = pickle.dumps(publication.handle)
            # The descriptor is a few hundred bytes regardless of |E|.
            assert len(blob) < 1024
            reattached = attach_csr(pickle.loads(blob))
            _assert_same_graph(reattached, labeled_csr)
            del reattached

    def test_unlink_releases_segment(self, labeled_csr):
        publication = publish_csr(labeled_csr)
        handle = publication.handle
        publication.close()
        publication.unlink()
        with pytest.raises(StoreAttachError):
            attach_csr(handle)

    def test_unlink_is_idempotent(self, labeled_csr):
        publication = publish_csr(labeled_csr)
        publication.close()
        publication.unlink()
        publication.unlink()

    def test_leaked_publication_warns_and_cleans(self, labeled_csr):
        publication = publish_csr(labeled_csr)
        handle = publication.handle
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            publication.__del__()
        assert any(issubclass(w.category, ResourceWarning) for w in caught)
        with pytest.raises(StoreAttachError):
            attach_csr(handle)

    def test_republishing_attached_graph_makes_a_second_segment(self, labeled_csr):
        with publish_csr(labeled_csr) as publication:
            attached = publication.attach()
            second = publish_csr(attached)
            assert second.handle.location != publication.handle.location
            again = second.attach()
            _assert_same_graph(again, labeled_csr)
            del again
            second.close()
            second.unlink()  # must NOT tear down the original publication
            with pytest.raises(StoreAttachError):
                attach_csr(second.handle)
            still_alive = publication.attach()
            _assert_same_graph(still_alive, labeled_csr)
            del attached, still_alive

    def test_segment_name_carries_the_publisher_pid(self, labeled_csr):
        with publish_csr(labeled_csr) as publication:
            assert publication.handle.location.startswith(f"repro-{os.getpid()}-")

    def test_orphan_sweep_takes_only_dead_publishers_segments(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
        )
        dead = tmp_path / f"repro-{int(child.stdout)}-0123456789ab"
        live = tmp_path / f"repro-{os.getpid()}-0123456789ab"
        foreign = tmp_path / "psm_0123abcd"
        for path in (dead, live, foreign):
            path.write_bytes(b"segment")
        assert sweep_orphan_segments(tmp_path, dry_run=True) == [dead]
        assert dead.exists()
        assert sweep_orphan_segments(tmp_path) == [dead]
        assert not dead.exists() and live.exists() and foreign.exists()

    def test_sweep_of_a_missing_directory_finds_nothing(self, tmp_path):
        assert sweep_orphan_segments(tmp_path / "absent") == []

    def test_fleet_walk_bit_identical_to_ram(self, labeled_csr):
        reference = BatchedWalkEngine(labeled_csr, rng=11).run_fleet(8, 60, burn_in=5)
        with publish_csr(labeled_csr) as publication:
            attached = publication.attach()
            fleet = BatchedWalkEngine(attached, rng=11).run_fleet(8, 60, burn_in=5)
            assert np.array_equal(fleet.trajectories, reference.trajectories)
            assert np.array_equal(fleet.charged_calls(), reference.charged_calls())
            del attached, fleet

    def test_ground_truth_counts_agree_across_stores(self, labeled_csr):
        cold = CSRGraph(
            None, labeled_csr.indptr.copy(), labeled_csr.indices.copy(),
            label_array=np.asarray(labeled_csr.label_array()).copy(),
        )
        with publish_csr(cold) as publication:
            attached = publication.attach()
            for pair in ((1, 2), (2, 3), (1, 1)):
                assert attached.count_target_edges(*pair) == labeled_csr.count_target_edges(*pair)
            del attached


class TestNpzArchive:
    def test_full_load_mode(self, labeled_csr, tmp_path):
        path = save_csr_npz(labeled_csr, tmp_path / "g.npz")
        loaded = load_csr_npz(path)
        _assert_same_graph(loaded, labeled_csr)
        assert loaded.store == "ram"
        assert loaded.sealed is None
        blob = pickle.dumps(loaded)  # a RAM graph pickles by value
        assert len(blob) > loaded.indices.nbytes

    def test_save_load_round_trip(self, labeled_csr, tmp_path):
        loaded = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "graph.npz"))
        _assert_same_graph(loaded, labeled_csr)
        for key in ("indptr", "indices"):
            array = getattr(loaded, key)
            assert type(array) is np.ndarray  # plain RAM buffers
            assert array.dtype == getattr(labeled_csr, key).dtype
        assert loaded.label_array().dtype == labeled_csr.label_array().dtype

    def test_archive_holds_only_the_defining_buffers(self, labeled_csr, tmp_path):
        labeled_csr.count_target_edges(1, 2)  # the histogram is not written
        path = save_csr_npz(labeled_csr, tmp_path / "g.npz")
        with np.load(path) as payload:
            assert sorted(payload.files) == ["indices", "indptr", "label_codes", "label_values"]
        loaded = load_csr_npz(path)
        assert loaded.count_target_edges(1, 2) == labeled_csr.count_target_edges(1, 2)

    def test_node_ids_round_trip(self, tmp_path):
        ring = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2], [2, 0]]), num_nodes=3)
        graph = CSRGraph(np.array([10, 20, 30]), ring.indptr, ring.indices)
        loaded = load_csr_npz(save_csr_npz(graph, tmp_path / "ids.npz"))
        assert loaded.node_id_list() == [10, 20, 30]
        assert loaded.label_array() is None

    def test_unlabeled_identity_graph_round_trip(self, tmp_path):
        graph = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2], [3, 4]]), num_nodes=5)
        path = save_csr_npz(graph, tmp_path / "bare.npz")
        with np.load(path) as payload:
            assert sorted(payload.files) == ["indices", "indptr"]
        loaded = load_csr_npz(path)
        assert loaded.label_array() is None
        assert loaded.node_id_list() == [0, 1, 2, 3, 4]
        assert np.array_equal(loaded.indices, graph.indices)

    def test_multi_labeled_graph_round_trip(self, tmp_path):
        graph = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2]]))
        graph = graph.with_labels(label_sets=[{"a", 2}, {"b"}, set()])
        path = save_csr_npz(graph, tmp_path / "sets.npz")
        with np.load(path) as payload:
            assert "label_indptr" in payload.files
        loaded = load_csr_npz(path)
        assert [loaded.labels_of(i) for i in range(3)] == [{"a", 2}, {"b"}, set()]
        assert loaded.label_array() is None

    def test_unstorable_labels_leave_no_file(self, tmp_path):
        graph = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2]]))
        graph = graph.with_labels(label_sets=[{("a", 1)}, {"b"}, {"a"}])
        with pytest.raises(ConfigurationError, match="label values"):
            save_csr_npz(graph, tmp_path / "sets.npz")
        assert not list(tmp_path.iterdir())

    def test_label_array_archive_still_loads_and_passes_fsck(self, labeled_csr, tmp_path, capsys):
        """Archives that store one ``label_array`` member, not label codes."""
        from repro.cli import main
        from repro.durability import write_npz

        path = write_npz(
            tmp_path / "legacy.npz",
            {
                "indptr": labeled_csr.indptr,
                "indices": labeled_csr.indices,
                "label_array": np.asarray(labeled_csr.label_array()),
            },
        )
        loaded = load_csr_npz(path)
        _assert_same_graph(loaded, labeled_csr)
        assert loaded.count_target_edges(1, 2) == labeled_csr.count_target_edges(1, 2)
        assert main(["fsck", str(path)]) == 0
        assert "structure ok (400 nodes" in capsys.readouterr().out

    def test_save_creates_parents_and_leaves_no_scratch(self, labeled_csr, tmp_path):
        target = tmp_path / "a" / "b" / "g.npz"
        assert save_csr_npz(labeled_csr, target) == target
        assert list(target.parent.iterdir()) == [target]

    def test_bit_flipped_archive_is_refused(self, labeled_csr, tmp_path):
        path = save_csr_npz(labeled_csr, tmp_path / "g.npz")
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # inside the indices member
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError):
            load_csr_npz(path)

    def test_fleet_walk_bit_identical_to_saved_graph(self, labeled_csr, tmp_path):
        reference = BatchedWalkEngine(labeled_csr, rng=13).run_fleet(6, 40, burn_in=3)
        loaded = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        fleet = BatchedWalkEngine(loaded, rng=13).run_fleet(6, 40, burn_in=3)
        assert np.array_equal(fleet.trajectories, reference.trajectories)
        assert np.array_equal(fleet.charged_calls(), reference.charged_calls())

    def test_loaded_graph_publishes_to_shm(self, labeled_csr, tmp_path):
        loaded = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        with publish_csr(loaded) as publication:
            attached = publication.attach()
            _assert_same_graph(attached, labeled_csr)
            assert attached.store == "shm"
            del attached


class TestTargetIncidentCounts:
    def test_node_subsets_match_the_dict_reference(self, labeled_csr):
        graph = labeled_csr.to_labeled_graph()
        nodes = np.array([5, 0, 17, 5, 399, 230])
        for t1, t2 in ((1, 2), (2, 1), (2, 2), (3, 1)):
            counts = labeled_csr.target_incident_counts(t1, t2, nodes)
            assert counts.dtype == np.int64
            assert counts.tolist() == [
                graph.target_edges_incident_to(int(node), t1, t2) for node in nodes
            ]

    def test_empty_rows_and_empty_subsets(self):
        lonely = CSRGraph.from_edge_array(
            np.array([[0, 1]]), num_nodes=3, label_array=np.array([1, 2, 1])
        )
        assert lonely.target_incident_counts(1, 2, np.array([2, 0, 1, 2])).tolist() == [0, 1, 1, 0]
        assert lonely.target_incident_counts(1, 2, np.array([], dtype=np.int64)).size == 0
        empty = CSRGraph(None, np.array([0]), np.array([], dtype=np.int64))
        assert empty.target_incident_counts(1, 2, np.array([], dtype=np.int64)).size == 0


class TestHandleShape:
    def test_spec_lookup(self, labeled_csr):
        with publish_csr(labeled_csr) as publication:
            handle = publication.handle
            assert handle.spec("indptr").shape == (labeled_csr.num_nodes + 1,)
            assert handle.spec("missing") is None
            # Only the defining buffers travel; no label state rides along.
            assert [field.name for field in dataclasses.fields(handle)] == [
                "location",
                "arrays",
            ]


class TestReviewRegressions:
    def test_del_releases_before_warning_escalates(self, labeled_csr):
        """Under -W error::ResourceWarning the __del__ warn raises — the
        segment must already have been released by then."""
        publication = publish_csr(labeled_csr)
        handle = publication.handle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResourceWarning):
                publication.__del__()
        with pytest.raises(StoreAttachError):  # cleanup happened first
            attach_csr(handle)

    def test_relabeled_attached_graph_pickles_without_segment(self, labeled_csr):
        """An attached graph and a with_labels re-wrap of one both pickle
        their data by value — the SharedMemory owner must not ride along
        (its unpickle re-attaches and re-registers with the resource
        tracker on < 3.13), and the copies outlive the segment."""
        rng = np.random.default_rng(2)
        publication = publish_csr(labeled_csr)
        attached = publication.attach()
        relabeled = attached.with_labels(
            label_array=rng.integers(1, 3, size=attached.num_nodes)
        )
        blobs = [pickle.dumps(attached), pickle.dumps(relabeled)]
        del attached, relabeled
        publication.close()
        publication.unlink()
        for blob in blobs:
            assert len(blob) > labeled_csr.indices.nbytes
            clone = pickle.loads(blob)  # by value: survives the unlink
            assert clone._buffer_owner is None
            assert clone.store == "ram"
            assert np.array_equal(clone.indices, labeled_csr.indices)
            assert clone.count_target_edges(1, 2) >= 0


class TestFingerprints:
    def test_zipf_labeled_fingerprint_is_pinned_in_ram_and_attached(self):
        """Label codes leave the journal/snapshot key of a label-array graph alone."""
        from repro.datasets.labeling import zipf_label_array
        from repro.durability import graph_fingerprint

        edges = np.random.default_rng(5).integers(0, 600, size=(3000, 2))
        graph = CSRGraph.from_edge_array(
            edges,
            num_nodes=600,
            label_array=zipf_label_array(600, num_labels=20, exponent=1.0, rng=3),
        )
        pinned = "247faf2526d8b551b55bf97e86e2e634"
        assert graph_fingerprint(graph) == pinned
        with publish_csr(graph) as publication:
            attached = publication.attach()
            assert graph_fingerprint(attached) == pinned
            del attached

    def test_mixed_label_fingerprint_does_not_read_addresses(self):
        from repro.durability import graph_fingerprint

        ring = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2], [2, 0]]))

        def fresh_labels():  # equal values, new objects on every call
            return [{"".join(["a", "b"])}, {int("1" * 30)}, {"".join(["a", "b"])}]

        first = ring.with_labels(label_sets=fresh_labels())
        assert first.label_array().dtype == object
        assert graph_fingerprint(first) == graph_fingerprint(
            ring.with_labels(label_sets=fresh_labels())
        )
