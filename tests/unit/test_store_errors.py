"""StoreAttachError: typed, located, retryable attach failures.

A worker (or the service) attaching a CSR publication that has vanished
must get a :class:`StoreAttachError` naming the segment —
never a bare :class:`FileNotFoundError` — because the retry policies
key off its ``retryable`` flag and operators key off the location in
the message.
"""

import numpy as np
import pytest

from repro.exceptions import StoreAttachError
from repro.graph.csr import CSRGraph
from repro.graph.store import attach_csr, publish_csr
from repro.resilience import Retry


@pytest.fixture(scope="module")
def csr_graph() -> CSRGraph:
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 60, size=(200, 2))
    labels = rng.integers(1, 3, size=60)
    return CSRGraph.from_edge_array(edges, num_nodes=60, label_array=labels)


class TestShmAttach:
    def test_unlinked_segment_raises_named_retryable_error(self, csr_graph):
        publication = publish_csr(csr_graph)
        handle = publication.handle
        publication.close()
        publication.unlink()
        with pytest.raises(StoreAttachError) as excinfo:
            attach_csr(handle)
        assert excinfo.value.retryable is True
        assert excinfo.value.location == handle.location
        assert handle.location in str(excinfo.value)

    def test_live_segment_still_attaches(self, csr_graph):
        with publish_csr(csr_graph) as publication:
            attached = attach_csr(publication.handle)
            assert attached.num_nodes == csr_graph.num_nodes


class TestRetryIntegration:
    def test_attach_is_retried_as_a_transient_failure(self, csr_graph):
        """The worker-init policy: a dead handle costs *attempts* tries."""
        publication = publish_csr(csr_graph)
        handle = publication.handle
        publication.close()
        publication.unlink()
        attempts = []

        def attach():
            attempts.append(True)
            return attach_csr(handle)

        slept = []
        with pytest.raises(StoreAttachError):
            Retry(attempts=3, sleep=slept.append).call(attach)
        assert len(attempts) == 3 and len(slept) == 2
