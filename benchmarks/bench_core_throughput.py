"""Micro-benchmarks of the core pipeline components.

Unlike the table/figure benches (one-shot experiment regenerations),
these use pytest-benchmark conventionally: many rounds of the same
operation, so regressions in the samplers, the walk engine or the
estimators show up as timing changes.

Every reference-engine walk and sampler bench has a ``_csr`` twin doing
the same work as a one-walker fleet over the CSR arrays — what a
one-shot estimate on a :class:`CSRGraph` runs — so both engines are
tracked in the perf trajectory.

``test_fleet_cell_speedup`` additionally times one representative NRMSE
table cell on the sequential dict reference engine and on the fleet
path, ``test_oneshot_engines`` times a one-shot estimate on both
engines (the CSR freeze reported separately), and
``test_prefix_classify_budgets`` times the ten-budget prefix fleets of
all ten algorithms classified and charged once per pair against once
per budget.  They merge their keys into the machine-readable
``benchmarks/results/BENCH_core.json`` (fleet steps/s, per-path cell
wall-clock, speedups), so the perf trajectory of the experiment engine
is diffable across PRs.
"""

import json
import math
import time

import pytest

import bench_support
from repro.core.estimators import (
    EdgeHansenHurwitzEstimator,
    NodeHansenHurwitzEstimator,
    NodeReweightedEstimator,
)
from repro.core.pipeline import estimate_target_edge_count
from repro.core.samplers import (
    NeighborExplorationSampler,
    NeighborSampleSampler,
    explore_nodes_fleet,
    sample_edges_fleet,
)
from repro.datasets.labeling import zipf_label_array
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import chung_lu_edges, powerlaw_degree_sequence
from repro.experiments.algorithms import ALL_ALGORITHM_ORDER, build_algorithm_suite
from repro.experiments.config import DEFAULT_SAMPLE_FRACTIONS
from repro.experiments.planner import FleetSpec, PrefixFleet
from repro.experiments.runner import run_trials, run_trials_prefix
from repro.graph.api import RestrictedGraphAPI
from repro.graph.cleaning import largest_connected_component_csr
from repro.graph.csr import CSRGraph, csr_view
from repro.walks.batched import BatchedWalkEngine
from repro.walks.engine import RandomWalk
from repro.walks.kernels import SimpleRandomWalkKernel


@pytest.fixture(scope="module")
def facebook_graph(settings):
    return load_dataset("facebook", seed=settings["seed"], scale=min(settings["scale"], 0.25)).graph


@pytest.fixture(scope="module")
def facebook_csr(facebook_graph):
    return CSRGraph.from_labeled_graph(facebook_graph)


def test_throughput_simple_walk(benchmark, facebook_graph):
    api = RestrictedGraphAPI(facebook_graph)

    def run():
        return RandomWalk(api, SimpleRandomWalkKernel(), burn_in=0, rng=1).run(500)

    result = benchmark(run)
    assert len(result) == 500


def test_throughput_simple_walk_csr(benchmark, facebook_csr):
    # One walker: the fleet a one-shot estimate on a CSRGraph runs.
    engine = BatchedWalkEngine(facebook_csr, rng=1)

    def run():
        return engine.run_fleet(1, 500)

    result = benchmark(run)
    assert result.collected.shape == (1, 500)


def test_throughput_batched_walks_csr(benchmark, facebook_csr):
    # 512 walkers amortise the per-step numpy dispatch; this bench tracks
    # fleet throughput (steps/second), not single-walk latency.
    engine = BatchedWalkEngine(facebook_csr, rng=1)

    def run():
        return engine.run_fleet(512, 500)

    result = benchmark(run)
    assert result.collected.shape == (512, 500)


def test_throughput_neighbor_sample(benchmark, facebook_graph):
    api = RestrictedGraphAPI(facebook_graph)

    def run():
        sampler = NeighborSampleSampler(api, 1, 2, burn_in=10, rng=2)
        return sampler.sample(200)

    samples = benchmark(run)
    assert samples.k == 200


def test_throughput_neighbor_sample_csr(benchmark, facebook_csr):
    def run():
        return sample_edges_fleet(facebook_csr, 1, 2, 200, 1, burn_in=10, rng=2).sample_set(0)

    samples = benchmark(run)
    assert samples.k == 200


def test_throughput_neighbor_exploration(benchmark, facebook_graph):
    api = RestrictedGraphAPI(facebook_graph)

    def run():
        sampler = NeighborExplorationSampler(api, 1, 2, burn_in=10, rng=3)
        return sampler.sample(200)

    samples = benchmark(run)
    assert samples.k == 200


def test_throughput_neighbor_exploration_csr(benchmark, facebook_csr):
    def run():
        return explore_nodes_fleet(facebook_csr, 1, 2, 200, 1, burn_in=10, rng=3).sample_set(0)

    samples = benchmark(run)
    assert samples.k == 200


def test_fleet_cell_speedup(facebook_graph, facebook_csr, settings):
    """Time representative NRMSE cells: sequential dict engine vs fleet.

    Two cells mirroring the paper's setting — NeighborSample-HH and
    NeighborExploration-HH at a 5%·|V| budget with 200 repetitions
    (env-overridable via ``REPRO_REPETITIONS``) — each timed best-of-3
    per path; the wall-clocks land in ``BENCH_core.json`` together with
    the raw fleet walker throughput, so the perf trajectory of the
    experiment engine is diffable across PRs.  Each cell keeps the
    ``sequential_csr_seconds`` an earlier version of this bench wrote,
    as history: the scalar CSR walk it timed no longer exists.
    """
    repetitions = max(50, settings["repetitions"])
    sample_size = max(1, math.ceil(0.05 * facebook_graph.num_nodes))
    burn_in = 100
    suite = build_algorithm_suite(facebook_graph, include_baselines=False)

    def run_cell(algorithm, execution):
        args = (facebook_graph, 1, 2, suite[algorithm], algorithm)
        started = time.perf_counter()
        if execution == "fleet":
            (outcome,) = run_trials_prefix(
                *args, [sample_size], repetitions, burn_in,
                seed=settings["seed"], csr=facebook_csr,
            )
        else:
            outcome = run_trials(*args, sample_size, repetitions, burn_in, seed=settings["seed"])
        assert outcome.repetitions == repetitions
        return time.perf_counter() - started

    path = bench_support.RESULTS_DIR / "BENCH_core.json"
    history = json.loads(path.read_text()).get("cells", {}) if path.exists() else {}
    cells = {}
    for algorithm in ("NeighborSample-HH", "NeighborExploration-HH"):
        # Warm the shared caches (label masks, incident counts, list
        # views) so both paths are measured steady-state.
        run_trials_prefix(
            facebook_graph, 1, 2, suite[algorithm], algorithm,
            [sample_size], repetitions=2, burn_in=10, seed=0, csr=facebook_csr,
        )
        sequential_seconds = min(run_cell(algorithm, "sequential") for _ in range(3))
        fleet_seconds = min(run_cell(algorithm, "fleet") for _ in range(3))
        cells[algorithm] = {
            "sample_size": sample_size,
            "burn_in": burn_in,
            "repetitions": repetitions,
            "sequential_seconds": round(sequential_seconds, 4),
            "fleet_seconds": round(fleet_seconds, 4),
            "fleet_speedup": round(sequential_seconds / fleet_seconds, 2),
        }
        old = history.get(algorithm, {}).get("sequential_csr_seconds")
        if old is not None:
            cells[algorithm]["sequential_csr_seconds"] = old

    # Raw fleet walker throughput (steps/second) on the same graph.
    engine = BatchedWalkEngine(facebook_csr, rng=1)
    started = time.perf_counter()
    engine.run_fleet(512, 500)
    engine_seconds = time.perf_counter() - started

    bench_support.merge_json(
        "BENCH_core.json",
        {
            "dataset": "facebook",
            "scale": min(settings["scale"], 0.25),
            "num_nodes": facebook_graph.num_nodes,
            "num_edges": facebook_graph.num_edges,
            "cells": cells,
            "batched_walk": {
                "walkers": 512,
                "steps_per_walker": 500,
                "steps_per_second": round(512 * 500 / engine_seconds),
            },
        },
    )
    # Acceptance floor: the fleet path must reproduce a representative
    # table cell at least 5x faster than the sequential dict engine
    # (NeighborExploration gets a softer regression floor to absorb
    # timer noise).
    speedup_ns = cells["NeighborSample-HH"]["fleet_speedup"]
    speedup_ne = cells["NeighborExploration-HH"]["fleet_speedup"]
    assert speedup_ns >= 5, f"fleet speedup {speedup_ns:.1f}x below the 5x floor"
    assert speedup_ne >= 3.5, f"exploration fleet speedup regressed: {speedup_ne:.1f}x"


def test_oneshot_engines():
    """One-shot estimates on both engines at 10^4 nodes, freeze apart.

    A Chung-Lu graph of 10^4 nodes (the perfbench generator at a tenth
    of its size) as a dict graph runs the reference engine; its
    ``csr_view`` runs a one-walker fleet.  The first ``csr_view`` call
    freezes the arrays and is reported on its own, so a cold CSR
    one-shot costs ``freeze_seconds`` plus the warm time.  Best of 5
    at a 5%·|V| budget and a burn-in of 300.
    """
    weights = powerlaw_degree_sequence(10_000, average_degree=12.0)
    csr = largest_connected_component_csr(
        CSRGraph.from_edge_array(chung_lu_edges(weights, rng=1), num_nodes=10_000)
    )
    csr = csr.with_labels(
        label_array=zipf_label_array(csr.num_nodes, num_labels=50, exponent=1.0, rng=2)
    )
    graph = csr.to_labeled_graph()
    started = time.perf_counter()
    frozen = csr_view(graph)
    freeze_seconds = time.perf_counter() - started

    def best_of_five(substrate, algorithm):
        seconds = []
        for seed in range(5):
            started = time.perf_counter()
            result = estimate_target_edge_count(
                substrate, 1, 2, algorithm=algorithm,
                budget_fraction=0.05, burn_in=300, seed=seed,
            )
            seconds.append(time.perf_counter() - started)
            assert result.api_calls > 0
        return round(min(seconds), 4)

    algorithms = {
        algorithm: {
            "dict_seconds": best_of_five(graph, algorithm),
            "csr_seconds": best_of_five(frozen, algorithm),
        }
        for algorithm in ("NeighborSample-HH", "NeighborExploration-HH")
    }
    bench_support.merge_json(
        "BENCH_core.json",
        {
            "oneshot": {
                "num_nodes": csr.num_nodes,
                "num_edges": csr.num_edges,
                "burn_in": 300,
                "budget_fraction": 0.05,
                "freeze_seconds": round(freeze_seconds, 4),
                "algorithms": algorithms,
            }
        },
    )


def test_prefix_classify_budgets():
    """Ten-algorithm prefix fleets: classify once per pair vs per budget.

    The paper's ten budgets (0.5-5 % of |V|) on the 10^5-node Chung-Lu
    graph of ``perfbench`` at the fleet widths the tables use (20 and
    200 walkers), for every algorithm of the table:
    :meth:`PrefixFleet.estimate_many` classifies each fleet once at the
    largest budget and charges every budget in one ledger pass, a loop
    of :meth:`PrefixFleet.estimate` classifies and charges each prefix
    from scratch.  The answers (estimates and per-walker ledgers) must
    be equal; the wall-clocks land in ``BENCH_core.json`` without a
    timing floor.
    """
    weights = powerlaw_degree_sequence(100_000, average_degree=12.0)
    graph = largest_connected_component_csr(
        CSRGraph.from_edge_array(chung_lu_edges(weights, rng=1), num_nodes=100_000)
    )
    graph = graph.with_labels(
        label_array=zipf_label_array(graph.num_nodes, num_labels=50, exponent=1.0, rng=2)
    )
    suite = build_algorithm_suite(graph)
    budgets = [max(1, math.ceil(f * graph.num_nodes)) for f in DEFAULT_SAMPLE_FRACTIONS]

    def best_of(runs, call):
        seconds, answers = [], None
        for _ in range(runs):
            started = time.perf_counter()
            answers = call()
            seconds.append(time.perf_counter() - started)
        return min(seconds), answers

    widths = {}
    for walkers in (20, 200):
        algorithms = {}
        for name in ALL_ALGORITHM_ORDER:
            fleet = PrefixFleet(graph, suite[name], FleetSpec(name, 7, walkers, 300), max(budgets))
            loop_seconds, per_budget = best_of(
                2, lambda: [fleet.estimate(1, 2, budget) for budget in budgets]
            )
            many_seconds, many = best_of(2, lambda: fleet.estimate_many(1, 2, budgets))
            assert many == per_budget, name
            algorithms[name] = {
                "per_budget_estimate_seconds": round(loop_seconds, 4),
                "estimate_many_seconds": round(many_seconds, 4),
            }
        loop_total = sum(row["per_budget_estimate_seconds"] for row in algorithms.values())
        many_total = sum(row["estimate_many_seconds"] for row in algorithms.values())
        widths[str(walkers)] = {
            "algorithms": algorithms,
            "per_budget_estimate_seconds": round(loop_total, 4),
            "estimate_many_seconds": round(many_total, 4),
            "speedup": round(loop_total / many_total, 2),
        }

    bench_support.merge_json(
        "BENCH_core.json",
        {
            "prefix_classify": {
                "num_nodes": graph.num_nodes,
                "num_edges": graph.num_edges,
                "burn_in": 300,
                "budgets": budgets,
                "walkers": widths,
            }
        },
    )


def test_throughput_edge_hh_estimator(benchmark, facebook_graph):
    api = RestrictedGraphAPI(facebook_graph)
    samples = NeighborSampleSampler(api, 1, 2, burn_in=10, rng=4).sample(500)
    result = benchmark(EdgeHansenHurwitzEstimator().estimate, samples)
    assert result.estimate >= 0


def test_throughput_node_estimators(benchmark, facebook_graph):
    api = RestrictedGraphAPI(facebook_graph)
    samples = NeighborExplorationSampler(api, 1, 2, burn_in=10, rng=5).sample(500)

    def run():
        hh = NodeHansenHurwitzEstimator().estimate(samples).estimate
        rw = NodeReweightedEstimator().estimate(samples).estimate
        return hh, rw

    hh, rw = benchmark(run)
    assert hh >= 0 and rw >= 0
