"""Read-only enforcement: published/attached graphs must refuse mutation.

The version-keyed caches (the CSR view cache, ground-truth counts, the
serving layer's answer cache) are only sound if a published graph
cannot change underneath them.  Before this suite's subject existed,
mutating a published :class:`LabeledGraph` silently bumped ``version``
while live workers kept serving the old buffers — the stale-answer
hazard the service-layer PR fixes.  Now:

* :meth:`LabeledGraph.freeze` makes every mutator raise
  :class:`GraphError` (and the estimation service freezes its source
  graph at publish time);
* :meth:`CSRGraph.seal_buffers` clears the numpy ``WRITEABLE`` flag on
  the CSR arrays, and :func:`publish_csr` seals the publisher's copy —
  a post-publish in-place write raises ``ValueError`` at the write
  site;
* attached graphs were already read-only (shm views); the
  :attr:`CSRGraph.sealed` marker now says so explicitly.
"""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.store import attach_csr, publish_csr


@pytest.fixture
def small_graph() -> LabeledGraph:
    graph = LabeledGraph()
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(2, 0)
    graph.add_edge(2, 3)
    for node in (0, 1):
        graph.set_labels(node, [1])
    for node in (2, 3):
        graph.set_labels(node, [2])
    return graph


def _array_csr(num_nodes: int = 4) -> CSRGraph:
    graph = LabeledGraph()
    for u in range(num_nodes):
        graph.add_edge(u, (u + 1) % num_nodes)
    csr = csr_view(graph)
    labels = np.arange(num_nodes, dtype=np.int64) % 2 + 1
    return CSRGraph(
        np.arange(num_nodes, dtype=np.int64),
        csr.indptr.copy(),
        csr.indices.copy(),
        label_array=labels,
    )


class TestFreezeLabeledGraph:
    def test_every_mutator_raises_after_freeze(self, small_graph):
        small_graph.freeze("test publication")
        version = small_graph.version
        with pytest.raises(GraphError, match="test publication"):
            small_graph.add_node(99)
        with pytest.raises(GraphError, match="read-only"):
            small_graph.add_edge(0, 3)
        with pytest.raises(GraphError, match="read-only"):
            small_graph.set_labels(0, [5])
        with pytest.raises(GraphError, match="read-only"):
            small_graph.add_label(0, 5)
        with pytest.raises(GraphError, match="read-only"):
            small_graph.remove_node(0)
        # The failed mutations must not have bumped the version either.
        assert small_graph.version == version

    def test_freeze_is_idempotent_and_keeps_first_reason(self, small_graph):
        small_graph.freeze("first owner")
        small_graph.freeze("second owner")
        assert small_graph.frozen == "first owner"

    def test_reads_still_work_after_freeze(self, small_graph):
        small_graph.freeze()
        assert small_graph.num_nodes == 4
        assert small_graph.num_edges == 4
        assert small_graph.labels_of(2) == frozenset({2})

    def test_copy_of_frozen_graph_is_mutable(self, small_graph):
        small_graph.freeze("published")
        clone = small_graph.copy()
        assert clone.frozen is None
        assert clone.add_edge(0, 3)
        assert small_graph.num_edges == 4


class TestMutationAfterPublish:
    def test_publish_seals_the_publishers_buffers(self):
        csr = _array_csr()
        assert csr.sealed is None
        with publish_csr(csr):
            assert csr.sealed == "published to shm"
            with pytest.raises(ValueError, match="read-only"):
                csr.indices[0] = 99
            with pytest.raises(ValueError, match="read-only"):
                csr.label_array()[0] = 99

    def test_republish_of_backed_graph_stays_sealed(self):
        csr = _array_csr()
        with publish_csr(csr) as publication:
            attached = attach_csr(publication.handle)
            with publish_csr(attached):
                assert attached.sealed is not None
            del attached

    def test_frozen_dict_graph_blocks_the_stale_view_hazard(self, small_graph):
        # csr_view caches by version; mutating after a view was taken
        # would silently invalidate it.  Freeze + mutate now raises
        # before the version can move.
        view = csr_view(small_graph)
        small_graph.freeze("served")
        with pytest.raises(GraphError):
            small_graph.add_edge(1, 3)
        assert csr_view(small_graph) is view


class TestMutationAfterAttach:
    def test_shm_attachment_is_read_only(self):
        csr = _array_csr()
        with publish_csr(csr) as publication:
            attached = publication.attach()
            assert attached.sealed == "attached from shm"
            with pytest.raises(ValueError, match="read-only"):
                attached.indices[0] = 99
            with pytest.raises(ValueError, match="read-only"):
                attached.label_array()[0] = 99

    def test_attached_graph_still_walks_and_classifies(self):
        csr = _array_csr(6)
        with publish_csr(csr) as publication:
            attached = publication.attach()
            assert attached.count_target_edges(1, 2) == csr.count_target_edges(1, 2)
            assert np.array_equal(attached.label_mask(1), csr.label_mask(1))
