"""Table workloads: the paper's ten-algorithm NRMSE table, in process.

``table-narrow`` runs the table at 20 repetitions (the fleet width real
workloads use) and ``table-paper`` at the paper's 200.  Both use every
budget fraction of the paper (0.5-5 % of |V|), the pair (1, 2), a fixed
burn-in of 300, ``execution="fleet"`` and ``reuse="prefix"``.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Dict, List, Tuple

from repro.experiments.config import DEFAULT_SAMPLE_FRACTIONS
from repro.experiments.runner import compare_algorithms
from repro.utils.rng import derive_seed

from perfbench.common import (
    NODES,
    SMOKE_NODES,
    TARGET_PAIR,
    build_graph,
    build_suite,
    digest,
    peak_rss_mb,
)
from perfbench.layers import layer_metrics
from perfbench.tracing import NoTracer, Tracer, install_walk_spans

REPETITIONS = {"table-narrow": 20, "table-paper": 200}
SMOKE_REPETITIONS = {"table-narrow": 4, "table-paper": 8}
BURN_IN = 300
#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: The warm-up table's width: first-call costs stay out of timed tables.
WARM_REPETITIONS = 20


def one_table(graph, suite, repetitions: int, seed: int) -> Tuple[float, str, List[str]]:
    """Run one table; returns (seconds, output digest, failed checks)."""
    started = time.perf_counter()
    table = compare_algorithms(
        graph,
        *TARGET_PAIR,
        sample_fractions=DEFAULT_SAMPLE_FRACTIONS,
        repetitions=repetitions,
        algorithms=suite,
        burn_in=BURN_IN,
        seed=seed,
        execution="fleet",
        reuse="prefix",
    )
    elapsed = time.perf_counter() - started
    problems = []
    rows = []
    for name in table.algorithms():
        for cell in table.cells[name]:
            rows.append((cell.estimates, cell.api_calls))
            if len(cell.estimates) != repetitions:
                problems.append(f"{name}@{cell.sample_size}: {len(cell.estimates)} estimates")
            if not all(math.isfinite(value) for value in cell.estimates):
                problems.append(f"{name}@{cell.sample_size}: non-finite estimate")
            if min(cell.api_calls) <= 0:
                problems.append(f"{name}@{cell.sample_size}: a walker charged no calls")
    if len(rows) != len(suite) * len(DEFAULT_SAMPLE_FRACTIONS):
        problems.append(f"table has {len(rows)} cells")
    return elapsed, digest(rows), problems


def timed_tables(graph, suite, repetitions: int, seed: int, seconds: float):
    """Tables until *seconds* have passed (at least one)."""
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(one_table(graph, suite, repetitions, seed))
    return runs


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict:
    nodes = SMOKE_NODES if smoke else NODES
    repetitions = (SMOKE_REPETITIONS if smoke else REPETITIONS)[workload]
    table_seed = derive_seed(seed, workload)

    setups = []
    for _ in range(2 if smoke else SETUPS):
        started = time.perf_counter()
        graph = build_graph(NoTracer(), nodes)
        suite = build_suite(NoTracer(), graph)
        setups.append(time.perf_counter() - started)

    warm = one_table(graph, suite, min(WARM_REPETITIONS, repetitions), table_seed)
    runs = timed_tables(graph, suite, repetitions, table_seed, seconds)
    problems = list(warm[2])
    for _, _, failed in runs:
        problems.extend(failed)
    digests = {run_digest for _, run_digest, _ in runs}
    if len(digests) != 1:
        problems.append(f"tables at one seed disagree: digests {sorted(digests)}")
    times = [elapsed for elapsed, _, _ in runs]

    result = {
        "operations": times,
        "operation": "table",
        "completions": list(itertools.accumulate(times)),
        "rate_window": 1,
        "setups": setups,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": len(runs),
        "failed": sum(1 for _, _, failed in runs if failed),
        "problems": problems,
        "output_digest": runs[0][1],
    }
    if trace:
        tracer = Tracer()
        install_walk_spans(tracer)
        try:
            # A traced set-up for the set-up layers; the tables reuse the
            # warm graph so both phases see the same caches.
            build_suite(tracer, build_graph(tracer, nodes))
            traced = timed_tables(graph, suite, repetitions, table_seed, seconds)
        finally:
            tracer.uninstall()
        for _, traced_digest, failed in traced:
            problems.extend(failed)
            if traced_digest != runs[0][1]:
                problems.append("a traced table differs from the untraced ones")
        result["per_layer"] = layer_metrics(tracer.spans, tracer.counters)
        result["traced_operations"] = [elapsed for elapsed, _, _ in traced]
        result["attempted"] += len(traced)
        result["failed"] += sum(1 for _, _, failed in traced if failed)
    return result
