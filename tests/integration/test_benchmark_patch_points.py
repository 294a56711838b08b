"""Guard for the attributes the benchmark's tracer patches.

``perfbench/tracing.py`` times the walk, classify and estimate layers by
replacing module attributes that callers resolve at call time (the name
``PrefixFleet`` in the grid driver and in the service, the classify
functions in the planner).  If a caller stops going through those names,
the benchmark's per-algorithm walk metrics silently read zero while its
own self-tests, which only check metric names, still pass.  This test
runs a small table and one service batch under the tracer and asserts
that every algorithm produced its walk, classify and estimate spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tables  # noqa: E402
from perfbench.common import SMOKE_NODES, TARGET_PAIR, build_graph, build_suite  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    NoTracer,
    Tracer,
    install_server_spans,
    install_walk_spans,
)

from repro.experiments.algorithms import ALL_ALGORITHM_ORDER  # noqa: E402
from repro.service import EstimationService  # noqa: E402

WALK, CLASSIFY, ESTIMATE = (
    "experiments.planner.walk",
    "core.samplers.classify",
    "experiments.planner.estimate",
)


def _layers_by_algorithm(tracer: Tracer):
    found = defaultdict(set)
    for _, _, name, _, _, algorithm, attrs in tracer.spans:
        if name == WALK and attrs["steps"] <= 0:
            continue
        found[algorithm].add(name)
    return found


def _assert_every_algorithm_traced(tracer: Tracer) -> None:
    found = _layers_by_algorithm(tracer)
    for algorithm in ALL_ALGORITHM_ORDER:
        assert {WALK, CLASSIFY, ESTIMATE} <= found[algorithm], algorithm


def _traced(install, run):
    tracer = Tracer()
    install(tracer)
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def test_table_walks_are_traced_per_algorithm():
    graph = build_graph(NoTracer(), SMOKE_NODES)
    suite = build_suite(NoTracer(), graph)

    def table():
        _, _, problems = tables.one_table(graph, suite, 4, seed=3)
        assert problems == []

    _assert_every_algorithm_traced(_traced(install_walk_spans, table))


def test_service_walks_are_traced_per_algorithm():
    graph = build_graph(NoTracer(), SMOKE_NODES)
    t1, t2 = TARGET_PAIR

    def batch():
        with EstimationService(
            graph, graph_store="ram", default_repetitions=4, default_burn_in=20
        ) as service:
            queries = [
                {"algorithm": name, "t1": t1, "t2": t2, "budget": 40, "seed": 3}
                for name in ALL_ALGORITHM_ORDER
            ]
            results = service.estimate_many(queries)
            assert [type(result).__name__ for result in results] == (
                ["EstimateAnswer"] * len(ALL_ALGORITHM_ORDER)
            )

    _assert_every_algorithm_traced(_traced(install_server_spans, batch))
