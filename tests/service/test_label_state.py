"""Serving many distinct target pairs leaves no per-pair state behind.

The only label-derived state a graph keeps is its edge-label histogram
(one entry per label pair, counted once); masks and ``T(u)`` are
recomputed per classify.  A long-lived service answering ever new pairs
must therefore hold its memory flat once the first query has counted
the histogram.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.datasets.labeling import zipf_label_array
from repro.datasets.synthetic import chung_lu_csr, powerlaw_degree_sequence
from repro.graph.statistics import edge_label_histogram
from repro.service import EstimationService

NUM_PAIRS = 200
GROWTH_LIMIT_BYTES = 1 << 20


def _zipf_graph():
    """A ~3k-node Chung-Lu graph with 50 Zipf labels (the benchmark graph's shape)."""
    weights = powerlaw_degree_sequence(3_000, average_degree=12.0)
    graph = chung_lu_csr(weights, rng=1)
    labels = zipf_label_array(graph.num_nodes, num_labels=50, exponent=1.0, rng=2)
    return graph.with_labels(label_array=labels)


def test_distinct_pairs_do_not_grow_memory():
    graph = _zipf_graph()
    histogram = edge_label_histogram(graph)
    pairs = [
        pair
        for t1, t2 in sorted(histogram)
        if t1 != t2
        for pair in ((t1, t2), (t2, t1))
    ][: NUM_PAIRS + 1]
    assert len(pairs) == NUM_PAIRS + 1
    queries = [
        dict(algorithm=algorithm, t1=t1, t2=t2, budget=5, repetitions=1, seed=index)
        for index, (t1, t2) in enumerate(pairs)
        for algorithm in ("NeighborExploration-HH", "NeighborSample-HH")
    ]
    with EstimationService(
        graph, graph_store="ram", cache_size=0, default_burn_in=5, name="label-state"
    ) as service:
        for answer in service.estimate_many(queries[:2]):  # warm-up pair
            assert not isinstance(answer, Exception), answer
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for query in queries[2:]:
                (answer,) = service.estimate_many([query])
                assert not isinstance(answer, Exception), answer
                assert np.isfinite(answer.estimates).all()
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert service.fleets_built == len(queries)
    assert growth < GROWTH_LIMIT_BYTES, f"{NUM_PAIRS} new pairs grew {growth} bytes"
