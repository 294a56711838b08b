"""Scale ladder: the CSR-native data plane from 10⁴ to 10⁶ nodes.

One test climbs the rungs (``REPRO_SCALE_RUNGS``, default
``10000,100000,1000000``) and, per rung, times the whole paper
preprocessing pipeline on the array-native path — Chung–Lu edge draws,
CSR assembly, largest-connected-component cleaning, Zipf labeling and a
fleet walk — plus the networkx/dict reference path on the rungs where
it is still affordable (``REPRO_SCALE_NX_LIMIT``, default ``100000``),
so the generation speedup is tracked in the perf trajectory.

A second test times a Figure-1-shaped frequency sweep with
``reuse="none"`` (fresh fleet per point) against ``reuse="prefix"``
(one fleet per algorithm, classified per pair) and records both NRMSE
series side by side; the statistical KS equivalence of the two modes is
enforced by ``tests/integration/test_prefix_equivalence.py``.

A third test (``bench_baselines``) times every EX-* baseline's scalar
reference path (sequential Python line-graph walks) against the
vectorized line-graph fleet, asserting the ≥5× acceptance floor, and —
when the ladder includes a ≥10⁵ rung — runs a full **ten-algorithm**
``compare_algorithms`` table CSR-natively with ``execution="fleet"``,
recording its wall-clock and NRMSE rows (the statistical equivalence of
the fleet baselines is enforced by
``tests/integration/test_baseline_fleet_equivalence.py``).

A fourth test (``graph_store``) benches the buffer-backend plane: the
same multi-process fleet jobs fed by-value graph pickles (``ram``)
versus one shared-memory segment whose O(1) handles the workers
reattach (``shm``), recording worker-spawn overhead per transport and
asserting — at the ≥10⁶ rung — that handles beat the pickling path.
That gap is why the harness pool publishes every CSR graph instead of
pickling it.

A fifth test (``prefix_jobs``) times a ten-algorithm ``reuse="prefix"``
table on the 10⁴ rung at ``n_jobs`` 1 and 2: the prefix fleets are pool
jobs like any other, and the two tables must be bit-identical.

Everything lands in ``benchmarks/results/BENCH_scale.json``.  CI runs
the 10⁴ rung (see ``.github/workflows/ci.yml``) with
``-W error::ResourceWarning`` — a leaked shared-memory publication
fails the build — and uploads the JSON as an artifact; the committed
file is a full-ladder run including the ≥10⁶-node rung.
"""

import json
import os
import resource
import time

import numpy as np
import pytest

import bench_support
from repro.datasets.labeling import zipf_label_array
from repro.datasets.registry import select_target_pairs
from repro.datasets.synthetic import (
    chung_lu_edges,
    chung_lu_osn,
    powerlaw_degree_sequence,
)
from repro.experiments.sweeps import frequency_sweep
from repro.graph.cleaning import largest_connected_component_csr
from repro.graph.csr import CSRGraph
from repro.walks.batched import BatchedWalkEngine

#: Node counts to climb, comma-separated (env-overridable for CI).
RUNGS = tuple(
    int(value)
    for value in os.environ.get("REPRO_SCALE_RUNGS", "10000,100000,1000000").split(",")
)

#: Largest rung on which the networkx/dict reference path is also timed.
NX_LIMIT = int(os.environ.get("REPRO_SCALE_NX_LIMIT", "100000"))

AVERAGE_DEGREE = 14.0
FLEET_WALKERS = 256
FLEET_STEPS = 1000

_RESULTS: dict = {}


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _peak_rss_mb() -> float:
    """This process's lifetime-peak resident set (Linux: ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_scale_ladder_rungs():
    """Generate → clean → label → fleet-walk each rung; record wall-clocks."""
    rungs = {}
    for num_nodes in RUNGS:
        weights = powerlaw_degree_sequence(num_nodes, AVERAGE_DEGREE)
        rung_started = time.perf_counter()
        edges, generate_seconds = _timed(lambda: chung_lu_edges(weights, rng=1))
        raw, assemble_seconds = _timed(
            lambda: CSRGraph.from_edge_array(edges, num_nodes=num_nodes)
        )
        graph, lcc_seconds = _timed(lambda: largest_connected_component_csr(raw))
        labeled, label_seconds = _timed(
            lambda: graph.with_labels(
                label_array=zipf_label_array(
                    graph.num_nodes, num_labels=150, exponent=1.1, rng=2
                )
            )
        )
        engine = BatchedWalkEngine(labeled, rng=3)
        fleet, walk_seconds = _timed(
            lambda: engine.run_fleet(FLEET_WALKERS, FLEET_STEPS)
        )
        end_to_end = time.perf_counter() - rung_started
        assert fleet.num_walkers == FLEET_WALKERS
        assert labeled.count_target_edges(1, 2) > 0  # labeled and walkable

        entry = {
            "requested_nodes": num_nodes,
            "num_nodes": labeled.num_nodes,
            "num_edges": labeled.num_edges,
            "indices_dtype": str(labeled.indices.dtype),
            "adjacency_bytes": int(
                labeled.indices.nbytes + labeled.indptr.nbytes
            ),
            "generate_seconds": round(generate_seconds, 4),
            "assemble_seconds": round(assemble_seconds, 4),
            "lcc_seconds": round(lcc_seconds, 4),
            "label_seconds": round(label_seconds, 4),
            "fleet_walk": {
                "walkers": FLEET_WALKERS,
                "steps_per_walker": FLEET_STEPS,
                "seconds": round(walk_seconds, 4),
                "steps_per_second": round(FLEET_WALKERS * FLEET_STEPS / walk_seconds),
            },
            "end_to_end_seconds": round(end_to_end, 4),
            # Lifetime-peak RSS after this rung (cumulative across rungs
            # by getrusage semantics; the per-store deltas live in the
            # graph_store bench).
            "peak_rss_mb_cumulative": round(_peak_rss_mb(), 1),
        }

        if num_nodes <= NX_LIMIT:
            # The dict path the CSR plane replaces: networkx Chung–Lu +
            # per-node conversion + dict flood-fill cleaning.
            reference, nx_seconds = _timed(
                lambda: chung_lu_osn([float(w) for w in weights], rng=1)
            )
            csr_seconds = generate_seconds + assemble_seconds + lcc_seconds
            entry["networkx_path_seconds"] = round(nx_seconds, 4)
            entry["generation_speedup_vs_networkx"] = round(nx_seconds / csr_seconds, 1)
            assert reference.num_nodes > 0
            if num_nodes >= 100_000:
                # Acceptance floor: ≥20× at the 10⁵ rung.
                assert entry["generation_speedup_vs_networkx"] >= 20, entry
        rungs[str(num_nodes)] = entry
    _RESULTS["rungs"] = rungs


def test_prefix_reuse_sweep_speedup():
    """Figure-1-shaped sweep: reuse='prefix' vs reuse='none' (fleet)."""
    num_nodes = min(RUNGS)
    weights = powerlaw_degree_sequence(num_nodes, AVERAGE_DEGREE)
    graph = largest_connected_component_csr(
        CSRGraph.from_edge_array(chung_lu_edges(weights, rng=4), num_nodes=num_nodes)
    )
    graph = graph.with_labels(
        label_array=zipf_label_array(graph.num_nodes, num_labels=60, exponent=1.0, rng=5)
    )
    pairs = select_target_pairs(graph, count=6)
    repetitions = max(20, bench_support.DEFAULT_REPETITIONS)
    burn_in = 100

    def run(reuse, execution, seed):
        started = time.perf_counter()
        points = frequency_sweep(
            graph,
            pairs,
            budget_fraction=0.05,
            repetitions=repetitions,
            burn_in=burn_in,
            seed=seed,
            execution=execution,
            reuse=reuse,
        )
        return points, time.perf_counter() - started

    # Warm the shared caches (masks, incident counts) before timing.
    frequency_sweep(
        graph, pairs[:1], budget_fraction=0.01, repetitions=2,
        burn_in=5, seed=0, reuse="prefix",
    )
    fresh_points, fresh_seconds = min(
        (run("none", "fleet", seed) for seed in (6, 7)), key=lambda pair: pair[1]
    )
    prefix_points, prefix_seconds = min(
        (run("prefix", "sequential", seed) for seed in (8, 9)), key=lambda pair: pair[1]
    )
    speedup = fresh_seconds / prefix_seconds

    series = []
    for fresh_point, prefix_point in zip(fresh_points, prefix_points):
        assert fresh_point.target_pair == prefix_point.target_pair
        series.append(
            {
                "pair": [str(label) for label in fresh_point.target_pair],
                "relative_count": round(fresh_point.relative_count, 6),
                "nrmse_reuse_none": {
                    name: round(value, 4)
                    for name, value in fresh_point.nrmse_by_algorithm.items()
                },
                "nrmse_reuse_prefix": {
                    name: round(value, 4)
                    for name, value in prefix_point.nrmse_by_algorithm.items()
                },
            }
        )
    _RESULTS["prefix_reuse_sweep"] = {
        "num_nodes": graph.num_nodes,
        "num_pairs": len(pairs),
        "repetitions": repetitions,
        "budget_fraction": 0.05,
        "reuse_none_fleet_seconds": round(fresh_seconds, 4),
        "reuse_prefix_seconds": round(prefix_seconds, 4),
        "speedup": round(speedup, 2),
        "points": series,
        "equivalence": "KS-tested in tests/integration/test_prefix_equivalence.py",
    }
    # Acceptance floor: ≥3× vs the strongest fresh-walk baseline (fleet).
    assert speedup >= 3, f"prefix-reuse sweep speedup {speedup:.2f}x below 3x"


def _ladder_graph(num_nodes, seed):
    """One labeled LCC Chung–Lu rung, shared by the baseline benches."""
    weights = powerlaw_degree_sequence(num_nodes, AVERAGE_DEGREE)
    graph = largest_connected_component_csr(
        CSRGraph.from_edge_array(chung_lu_edges(weights, rng=seed), num_nodes=num_nodes)
    )
    return graph.with_labels(
        label_array=zipf_label_array(
            graph.num_nodes, num_labels=40, exponent=1.0, rng=seed + 1
        )
    )


def test_baseline_fleet_speedup():
    """bench_baselines: vectorized EX-* line fleets vs the scalar kernels."""
    from repro.experiments.algorithms import build_algorithm_suite
    from repro.experiments.runner import run_trials, run_trials_prefix

    graph = _ladder_graph(min(RUNGS), seed=10)
    dict_graph = graph.to_labeled_graph()  # scalar reference substrate
    suite = build_algorithm_suite(dict_graph)
    repetitions, k, burn_in = 6, 400, 50

    baselines = {}
    floor = []
    for name in ("EX-MHRW", "EX-MDRW", "EX-RCMH", "EX-GMD", "EX-RW"):
        scalar, scalar_seconds = _timed(
            lambda: run_trials(
                dict_graph, 1, 2, suite[name], name, k, repetitions, burn_in, seed=20
            )
        )
        fleet, fleet_seconds = _timed(
            lambda: run_trials_prefix(
                graph, 1, 2, suite[name], name, [k], repetitions, burn_in, seed=21
            )[0]
        )
        assert len(fleet.estimates) == len(scalar.estimates) == repetitions
        speedup = scalar_seconds / fleet_seconds
        steps = repetitions * (burn_in + k)
        baselines[name] = {
            "scalar_seconds": round(scalar_seconds, 4),
            "fleet_seconds": round(fleet_seconds, 4),
            "speedup": round(speedup, 1),
            "scalar_steps_per_second": round(steps / scalar_seconds),
            "fleet_steps_per_second": round(steps / fleet_seconds),
        }
        if name != "EX-RW":  # the acceptance floor names the four EX-* kernels
            floor.append(speedup)

    _RESULTS["bench_baselines"] = {
        "num_nodes": graph.num_nodes,
        "repetitions": repetitions,
        "sample_size": k,
        "burn_in": burn_in,
        "baselines": baselines,
        "equivalence": (
            "KS-tested in tests/integration/test_baseline_fleet_equivalence.py"
        ),
    }
    # Acceptance floor: every vectorized EX-* kernel >= 5x its scalar twin.
    assert min(floor) >= 5, f"EX-* fleet speedups below 5x: {baselines}"


def test_ten_algorithm_table_at_scale():
    """Full ten-algorithm CSR-native fleet table at the >=10^5 rung."""
    from repro.experiments.algorithms import build_algorithm_suite
    from repro.experiments.runner import compare_algorithms

    rungs = [rung for rung in RUNGS if rung >= 100_000]
    if not rungs:
        pytest.skip("ladder has no >=10^5 rung (CI runs 10^4 only)")
    graph = _ladder_graph(min(rungs), seed=30)
    suite, suite_seconds = _timed(lambda: build_algorithm_suite(graph))
    assert len(suite) == 10
    table, table_seconds = _timed(
        lambda: compare_algorithms(
            graph, 1, 2,
            sample_fractions=(0.01, 0.05),
            repetitions=bench_support.DEFAULT_REPETITIONS,
            algorithms=suite,
            burn_in=200,
            seed=31,
            execution="fleet",
        )
    )
    best_name, best_nrmse = table.best_algorithm()
    _RESULTS["ten_algorithm_table"] = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "representation": "csr",
        "execution": "fleet",
        "repetitions": bench_support.DEFAULT_REPETITIONS,
        "sample_fractions": [0.01, 0.05],
        "suite_build_seconds": round(suite_seconds, 4),
        "table_seconds": round(table_seconds, 4),
        "best_algorithm_at_5pct": best_name,
        "best_nrmse_at_5pct": round(best_nrmse, 4),
        "nrmse_rows": {
            name: [round(value, 4) for value in table.nrmse_row(name)]
            for name in table.algorithms()
        },
    }
    # The paper's headline claim should survive the CSR-native rerun.
    assert not best_name.startswith("EX-"), _RESULTS["ten_algorithm_table"]


def test_graph_store_fleets():
    """Buffer stores at the top rung: shm handles vs pickled workers."""
    import multiprocessing
    import pickle

    from repro.experiments import runner as runner_module
    from repro.experiments.algorithms import build_algorithm_suite
    from repro.experiments.runner import GridColumn, GridJob
    from repro.graph.store import publish_csr
    from repro.utils.rng import derive_seed

    num_nodes = max(RUNGS)
    graph = _ladder_graph(num_nodes, seed=40)
    inram_bytes = int(
        graph.indptr.nbytes + graph.indices.nbytes + graph.label_array().nbytes
    )
    # Warm the derived caches like compare_algorithms would (the ground
    # truth); the ram path ships them pickled, shm publishes them.
    true_count = graph.count_target_edges(1, 2)
    full_suite = build_algorithm_suite(include_baselines=False)
    suite = {
        name: full_suite[name]
        for name in ("NeighborSample-HH", "NeighborExploration-HH")
    }
    suite_blob = pickle.dumps(suite)
    graph_blob_mb = round(len(pickle.dumps(graph)) / 2**20, 1)

    def make_jobs(fractions, repetitions):
        jobs = []
        for name in suite:
            for column, fraction in enumerate(fractions):
                size = max(1, int(fraction * graph.num_nodes))
                jobs.append(
                    GridJob(
                        name, derive_seed(42, name, column), (column,),
                        (GridColumn(1, 2, size, true_count),),
                        size, repetitions, 50, fleet=True,
                    )
                )
        return jobs

    # The comparison runs under the *spawn* start method — the default
    # everywhere but today's Linux, and the only one where worker state
    # is genuinely serialized (under fork, "ram" ships zero bytes: the
    # workers inherit the parent heap copy-on-write, an accident of one
    # platform that hides exactly the cost this bench measures).  An
    # *eager* pool (multiprocessing.Pool) stands all four workers up on
    # both sides; the lazy executor would let the pickling path quietly
    # skip spawning workers it is too slow to feed.
    ctx = multiprocessing.get_context("spawn")

    def run_pool(store, jobs):
        publication = None
        graph_ref = graph
        started = time.perf_counter()
        if store == "shm":
            publication = publish_csr(graph)
            graph_ref = publication.handle
        try:
            with ctx.Pool(
                4,
                initializer=runner_module._init_job_worker,
                initargs=(graph_ref, suite_blob),
            ) as pool:
                outcomes = pool.map(runner_module._run_job_in_worker, jobs)
        finally:
            if publication is not None:
                publication.close()
                publication.unlink()
        return outcomes, time.perf_counter() - started

    # Worker-spawn overhead: near-empty jobs, so four worker start-ups
    # plus the per-store graph transfer is essentially all that is
    # measured (ram: 4 × the adjacency through a pipe; shm: one publish
    # plus 4 O(1) handles).
    spawn = {}
    for store in ("ram", "shm"):
        _, spawn_seconds = run_pool(store, make_jobs((0.0002,), 2)[:1] * 4)
        spawn[store] = round(spawn_seconds, 4)

    jobs = make_jobs((0.002, 0.005), 8)
    ram_outcomes, ram_seconds = run_pool("ram", jobs)
    shm_outcomes, shm_seconds = run_pool("shm", jobs)
    for (ours,), (theirs,) in zip(shm_outcomes, ram_outcomes):
        # The store moves bytes, never random draws.
        assert ours.estimates == theirs.estimates

    _RESULTS["graph_store"] = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "graph_inram_mb": round(inram_bytes / 2**20, 1),
        "graph_pickle_mb": graph_blob_mb,
        "n_jobs": 4,
        "start_method": "spawn",
        "worker_spawn_overhead_seconds": spawn,
        "fleet_table": {
            "repetitions": 8,
            "sample_fractions": [0.002, 0.005],
            "ram_pickled_seconds": round(ram_seconds, 4),
            "shm_handles_seconds": round(shm_seconds, 4),
            "shm_speedup": round(ram_seconds / shm_seconds, 2),
            "bit_identical_tables": True,
        },
    }
    if num_nodes >= 1_000_000:
        # Acceptance floor (10⁶ rung): shm multi-process beats the
        # pickling path.
        assert shm_seconds < ram_seconds, _RESULTS["graph_store"]


def test_prefix_jobs():
    """prefix_jobs: a ten-algorithm reuse="prefix" table at n_jobs 1 and 2."""
    from repro.experiments.algorithms import build_algorithm_suite
    from repro.experiments.config import DEFAULT_SAMPLE_FRACTIONS
    from repro.experiments.runner import compare_algorithms

    graph = _ladder_graph(10_000, seed=50)
    suite = build_algorithm_suite(graph)
    widths = {}
    for repetitions in (20, 200):
        seconds = {}
        tables = {}
        for n_jobs in (1, 2):
            tables[n_jobs], seconds[n_jobs] = _timed(
                lambda: compare_algorithms(
                    graph, 1, 2,
                    sample_fractions=DEFAULT_SAMPLE_FRACTIONS,
                    repetitions=repetitions,
                    algorithms=suite,
                    burn_in=100,
                    seed=51,
                    execution="fleet",
                    reuse="prefix",
                    n_jobs=n_jobs,
                )
            )
        for name in suite:
            for ours, theirs in zip(tables[2].cells[name], tables[1].cells[name]):
                assert (ours.estimates, ours.api_calls) == (theirs.estimates, theirs.api_calls)
        widths[str(repetitions)] = {
            "n_jobs_1_seconds": round(seconds[1], 4),
            "n_jobs_2_seconds": round(seconds[2], 4),
        }
    _RESULTS["prefix_jobs"] = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "algorithms": len(suite),
        "budgets": len(DEFAULT_SAMPLE_FRACTIONS),
        "burn_in": 100,
        "n_jobs_2_includes": "shm publish and start of 2 workers",
        "by_repetitions": widths,
        "bit_identical_tables": True,
    }


def test_write_scale_json():
    """Persist the ladder (runs last: pytest executes in file order).

    Merges into the committed ``BENCH_scale.json``: this run's rungs
    replace the rungs of the same requested size and every other rung
    stays, and so do the keys of benches this run skipped.  A 10^4-only
    run therefore keeps the committed 10^5 and 10^6 rungs.
    """
    assert "rungs" in _RESULTS, "rung test did not run"
    path = bench_support.RESULTS_DIR / "BENCH_scale.json"
    committed = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    rungs = {**committed.get("rungs", {}), **_RESULTS["rungs"]}
    payload = {
        "average_degree": AVERAGE_DEGREE,
        "generator": "chung_lu_csr (power-law expected degrees, exponent 2.5)",
        "rungs": dict(sorted(rungs.items(), key=lambda item: int(item[0]))),
    }
    for key in (
        "prefix_reuse_sweep",
        "bench_baselines",
        "ten_algorithm_table",
        "graph_store",
        "prefix_jobs",
    ):
        if key in _RESULTS:
            payload[key] = _RESULTS[key]
    bench_support.merge_json("BENCH_scale.json", payload)
