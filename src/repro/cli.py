"""Command-line interface: ``repro-osn`` / ``python -m repro``.

Sub-commands
------------
``datasets``
    Print the Table 1-style summary of every dataset stand-in.
``estimate``
    Estimate a target-edge count on one dataset with one algorithm.
``table``
    Reproduce one of the paper's NRMSE tables (4–17).
``figure``
    Reproduce the data series behind Figure 1 or 2.
``bounds``
    Print the Theorem 4.1–4.5 sample-size bounds (Tables 18–22 style).
``mixing``
    Print the measured mixing time of a dataset stand-in.
``select``
    Run the adaptive pilot-then-select strategy (paper §5.3 automated).
``cost``
    Profile the charged API calls of every algorithm at a fixed budget.
``serve``
    Boot the long-lived estimation service: publish one dataset into
    the shm/mmap store and answer micro-batched estimate queries over
    HTTP (``/healthz``, ``/stats``, ``POST /estimate``).
``sweep-spills``
    Reclaim orphaned ``$REPRO_MMAP_DIR`` spill files left behind by
    killed runs, plus committed journals and dead-pid scratch temps.
``fsck``
    Verify durable ``.npz`` artifacts: blake2b manifest check plus the
    deep :meth:`CSRGraph.validate_invariants` structural check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.bounds import compute_all_bounds
from repro.core.samplers.csr_backend import BACKENDS, EXECUTIONS, REUSES
from repro.core.pipeline import available_algorithms, estimate_target_edge_count
from repro.datasets.registry import dataset_names, load_dataset
from repro.experiments.config import ExperimentConfig
from repro.graph.store import GRAPH_STORES
from repro.experiments.figures import run_paper_figure
from repro.experiments.reporting import (
    format_frequency_series,
    format_nrmse_table,
)
from repro.experiments.tables import list_tables, run_paper_table
from repro.graph.statistics import count_target_edges
from repro.utils.logging import configure_logging
from repro.walks.mixing import recommended_burn_in


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-osn`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-osn",
        description="Counting edges with target labels in OSNs via random walk "
        "(EDBT 2018 reproduction).",
    )
    parser.add_argument("--verbose", action="store_true", help="enable INFO logging")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the dataset stand-ins")

    estimate = subparsers.add_parser("estimate", help="run one estimation")
    estimate.add_argument("--dataset", choices=dataset_names(), default="facebook")
    estimate.add_argument("--pair-index", type=int, default=0, help="target pair index")
    estimate.add_argument(
        "--algorithm", choices=available_algorithms(), default="NeighborExploration-HH"
    )
    estimate.add_argument("--budget", type=float, default=0.05, help="fraction of |V|")
    estimate.add_argument("--scale", type=float, default=0.5, help="dataset scale")
    estimate.add_argument("--seed", type=int, default=2018)
    estimate.add_argument(
        "--backend",
        choices=BACKENDS,
        default="python",
        help="walk backend: dict-based reference engine or vectorized CSR "
        "arrays",
    )

    table = subparsers.add_parser("table", help="reproduce a paper NRMSE table")
    table.add_argument("number", type=int, choices=list_tables())
    # None sentinels: only flags the user actually passed are pinned
    # against the REPRO_* environment overrides.
    table.add_argument("--repetitions", type=int, default=None, help="default: 20")
    table.add_argument("--scale", type=float, default=None, help="default: 0.25")
    table.add_argument("--seed", type=int, default=2018)
    table.add_argument(
        "--budgets",
        type=float,
        nargs="+",
        default=[0.01, 0.03, 0.05],
        help="sample-size fractions of |V|",
    )
    table.add_argument(
        "--backend",
        choices=BACKENDS,
        default="python",
        help="walk backend of the proposed algorithms' sequential cells "
        "(fleets always run vectorized)",
    )
    table.add_argument(
        "--execution",
        choices=EXECUTIONS,
        default="sequential",
        help="run each cell's repetitions one at a time or as one vectorized "
        "walker fleet (all ten algorithms; EX-* run line-graph fleets); only "
        "matters with --reuse none",
    )
    table.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for cell-level parallelism (same table for any "
        "worker count; default: 1)",
    )
    table.add_argument(
        "--reuse",
        choices=REUSES,
        default="none",
        help="'prefix' reads every budget column off one max-budget fleet "
        "per algorithm, EX-* baselines included (O(max budget) walking)",
    )
    table.add_argument(
        "--representation",
        choices=("dict", "csr"),
        default="dict",
        help="dataset substrate; 'csr' synthesises array-natively (paper "
        "scale), reproduces all ten algorithm rows and needs "
        "--execution fleet or --reuse prefix",
    )
    table.add_argument(
        "--graph-store",
        choices=GRAPH_STORES,
        default="ram",
        dest="graph_store",
        help="CSR buffer store: 'shm' publishes one shared-memory segment "
        "that --jobs workers reattach via O(1) handles; 'mmap' memory-maps "
        "the dataset from an .npz sidecar (out-of-core); needs "
        "--representation csr (identical tables either way)",
    )
    table.add_argument(
        "--journal",
        default=None,
        help="path to an append-only experiment journal; every completed "
        "cell is made durable as it finishes, so a crashed run can be "
        "resumed (.journal.jsonl is appended to the name if missing)",
    )
    table.add_argument(
        "--resume",
        action="store_true",
        help="replay the finished cells of --journal and run only the "
        "missing ones (bit-identical to an uninterrupted run)",
    )

    figure = subparsers.add_parser("figure", help="reproduce a paper figure series")
    figure.add_argument("number", type=int, choices=[1, 2])
    figure.add_argument("--repetitions", type=int, default=None, help="default: 10")
    figure.add_argument("--scale", type=float, default=None, help="default: 0.25")
    figure.add_argument("--seed", type=int, default=2018)
    figure.add_argument(
        "--backend",
        choices=BACKENDS,
        default="python",
        help="walk backend of the proposed algorithms' sequential cells "
        "(fleets always run vectorized)",
    )
    figure.add_argument(
        "--execution",
        choices=EXECUTIONS,
        default="sequential",
        help="run each point's repetitions one at a time or as one vectorized "
        "walker fleet; only matters with --reuse none",
    )
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for point-level parallelism (same series for "
        "any worker count; default: 1)",
    )
    figure.add_argument(
        "--reuse",
        choices=REUSES,
        default="none",
        help="'prefix' classifies every target pair off one shared fleet "
        "per algorithm (the walk is label-agnostic)",
    )
    figure.add_argument(
        "--representation",
        choices=("dict", "csr"),
        default="dict",
        help="dataset substrate; 'csr' synthesises array-natively (paper "
        "scale) and needs --execution fleet or --reuse prefix",
    )
    figure.add_argument(
        "--graph-store",
        choices=GRAPH_STORES,
        default="ram",
        dest="graph_store",
        help="CSR buffer store: 'shm' shares one segment across --jobs "
        "workers; 'mmap' memory-maps the dataset (out-of-core); needs "
        "--representation csr",
    )
    figure.add_argument(
        "--journal",
        default=None,
        help="path to an append-only experiment journal (see 'table')",
    )
    figure.add_argument(
        "--resume",
        action="store_true",
        help="replay the finished points of --journal and run only the "
        "missing ones",
    )

    bounds = subparsers.add_parser("bounds", help="Theorem 4.1-4.5 sample-size bounds")
    bounds.add_argument("--dataset", choices=dataset_names(), default="facebook")
    bounds.add_argument("--pair-index", type=int, default=0)
    bounds.add_argument("--scale", type=float, default=0.5)
    bounds.add_argument("--epsilon", type=float, default=0.1)
    bounds.add_argument("--delta", type=float, default=0.1)
    bounds.add_argument("--seed", type=int, default=2018)

    mixing = subparsers.add_parser("mixing", help="measured mixing time of a dataset")
    mixing.add_argument("--dataset", choices=dataset_names(), default="facebook")
    mixing.add_argument("--scale", type=float, default=0.25)
    mixing.add_argument("--epsilon", type=float, default=1e-3)
    mixing.add_argument("--seed", type=int, default=2018)

    select = subparsers.add_parser(
        "select", help="adaptive pilot-then-select estimation (paper §5.3)"
    )
    select.add_argument("--dataset", choices=dataset_names(), default="pokec")
    select.add_argument("--pair-index", type=int, default=0)
    select.add_argument("--budget", type=float, default=0.05, help="fraction of |V|")
    select.add_argument("--threshold", type=float, default=0.05)
    select.add_argument("--scale", type=float, default=0.25)
    select.add_argument("--seed", type=int, default=2018)

    cost = subparsers.add_parser("cost", help="API calls charged per algorithm")
    cost.add_argument("--dataset", choices=dataset_names(), default="facebook")
    cost.add_argument("--pair-index", type=int, default=0)
    cost.add_argument("--budget", type=float, default=0.05, help="fraction of |V|")
    cost.add_argument("--repetitions", type=int, default=3)
    cost.add_argument("--scale", type=float, default=0.25)
    cost.add_argument("--seed", type=int, default=2018)

    serve = subparsers.add_parser(
        "serve", help="boot the long-lived estimation query server"
    )
    serve.add_argument("--dataset", choices=dataset_names(), default="facebook")
    serve.add_argument("--scale", type=float, default=0.25, help="dataset scale")
    serve.add_argument("--seed", type=int, default=0, help="dataset synthesis seed")
    serve.add_argument(
        "--graph-store",
        choices=GRAPH_STORES,
        default="shm",
        dest="graph_store",
        help="buffer store the graph is published into at startup: 'shm' "
        "(fits-in-RAM, fastest), 'mmap' (out-of-core sidecar), 'ram' "
        "(no publication; dev only)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=5.0,
        dest="batch_window_ms",
        help="micro-batch collection window; concurrent queries arriving "
        "within it share one max-budget prefix fleet",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        dest="cache_size",
        help="answer-cache capacity (0 disables caching)",
    )
    serve.add_argument(
        "--repetitions", type=int, default=20, help="default repetitions per query"
    )
    serve.add_argument(
        "--burn-in",
        type=int,
        default=None,
        dest="burn_in",
        help="default burn-in per query (default: measured on the graph)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        dest="deadline_ms",
        help="default per-query deadline; expired queries get a fast 504 "
        "and are skipped at fleet-plan boundaries (default: none)",
    )
    serve.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        dest="max_in_flight",
        help="admission bound on queries simultaneously awaiting answers; "
        "overflow is served from stale cache (degraded) or 429'd "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        dest="breaker_threshold",
        help="consecutive fleet failures that trip an algorithm's circuit "
        "breaker open",
    )
    serve.add_argument(
        "--breaker-cooldown-ms",
        type=float,
        default=5000.0,
        dest="breaker_cooldown_ms",
        help="how long an open breaker waits before half-opening on a "
        "probe query",
    )
    serve.add_argument(
        "--faults",
        default=None,
        help="deterministic fault-injection plan for chaos runs, e.g. "
        "'seed=7;store.attach=error,count=1;worker.cell=kill,count=1' "
        "(see docs/operations.md; REPRO_FAULTS is the env equivalent)",
    )
    serve.add_argument(
        "--snapshot",
        default=None,
        dest="snapshot_path",
        help="checkpoint the answer cache to this path for warm restarts "
        "(written on a timer and on graceful shutdown; loaded at boot "
        "when the graph fingerprint matches)",
    )
    serve.add_argument(
        "--snapshot-interval-ms",
        type=float,
        default=30000.0,
        dest="snapshot_interval_ms",
        help="periodic snapshot timer (needs --snapshot); this is what a "
        "SIGKILL'd server warm-restarts from",
    )

    sweep = subparsers.add_parser(
        "sweep-spills",
        help="reclaim orphaned $REPRO_MMAP_DIR spill files from dead runs",
    )
    sweep.add_argument(
        "--directory",
        default=None,
        help="spill directory to sweep (default: $REPRO_MMAP_DIR or the "
        "tempdir spill location)",
    )
    sweep.add_argument(
        "--max-age-seconds",
        type=float,
        default=None,
        dest="max_age_seconds",
        help="also delete pid-less spill files older than this (without it "
        "only files whose recorded owner pid is dead are touched)",
    )
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        dest="dry_run",
        help="report what would be deleted without deleting",
    )

    fsck = subparsers.add_parser(
        "fsck",
        help="verify checksums and CSR invariants of durable .npz artifacts",
    )
    fsck.add_argument(
        "paths",
        nargs="+",
        help=".npz artifact files, or directories to scan for them",
    )
    fsck.add_argument(
        "--mode",
        choices=("full", "sampled"),
        default="full",
        help="manifest verification depth: every byte, or member sizes "
        "plus sampled pages (default: full)",
    )
    fsck.add_argument(
        "--no-structure",
        action="store_true",
        dest="no_structure",
        help="skip the deep CSR invariant check (checksums only)",
    )
    fsck.add_argument(
        "--symmetry-samples",
        type=int,
        default=1024,
        dest="symmetry_samples",
        help="adjacency slots to spot-check for symmetry (0 disables)",
    )
    return parser


def _resolve_run_size(args, default_repetitions: int, default_scale: float):
    """Resolve --repetitions/--scale/--jobs sentinels against defaults.

    Returns ``(repetitions, scale, n_jobs, pinned)`` where *pinned*
    names only the flags the user actually passed — those beat exported
    ``REPRO_*`` variables, while untouched defaults stay overridable.
    """
    pinned = tuple(
        name
        for name, value in (
            ("repetitions", args.repetitions),
            ("scale", args.scale),
            ("n_jobs", args.jobs),
        )
        if value is not None
    )
    repetitions = default_repetitions if args.repetitions is None else args.repetitions
    scale = default_scale if args.scale is None else args.scale
    n_jobs = 1 if args.jobs is None else args.jobs
    return repetitions, scale, n_jobs, pinned


def _command_datasets(args) -> int:
    print(f"{'name':<14}{'|V|':>10}{'|E|':>12}{'max deg':>10}{'avg deg':>10}{'labels':>8}")
    for name in dataset_names():
        dataset = load_dataset(name, seed=0, scale=0.25)
        summary = dataset.summary()
        print(
            f"{name:<14}{summary.num_nodes:>10}{summary.num_edges:>12}"
            f"{summary.max_degree:>10}{summary.average_degree:>10.1f}"
            f"{summary.num_distinct_labels:>8}"
        )
        for pair in dataset.target_pairs:
            count = dataset.target_counts[pair]
            print(f"    target pair {pair}: F={count} ({100 * dataset.fraction(pair):.3f}% of |E|)")
    return 0


def _command_estimate(args) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    t1, t2 = dataset.target_pairs[args.pair_index]
    truth = count_target_edges(dataset.graph, t1, t2)
    result = estimate_target_edge_count(
        dataset.graph,
        t1,
        t2,
        algorithm=args.algorithm,
        budget_fraction=args.budget,
        seed=args.seed,
        backend=args.backend,
    )
    print(f"dataset            : {dataset.spec.paper_name} (scale {args.scale})")
    print(f"target labels      : ({t1}, {t2})")
    print(f"backend            : {args.backend}")
    print(f"algorithm          : {result.estimator}")
    print(f"sample size (k)    : {result.sample_size}")
    print(f"API calls charged  : {result.api_calls}")
    print(f"estimated F        : {result.estimate:.1f}")
    print(f"true F             : {truth}")
    print(f"relative error     : {result.relative_error(truth):.3f}")
    return 0


def _command_table(args) -> int:
    repetitions, scale, n_jobs, pinned = _resolve_run_size(
        args, default_repetitions=20, default_scale=0.25
    )
    config = ExperimentConfig(
        dataset="facebook",  # replaced by run_paper_table with the table's dataset
        sample_fractions=tuple(args.budgets),
        repetitions=repetitions,
        seed=args.seed,
        scale=scale,
        backend=args.backend,
        execution=args.execution,
        reuse=args.reuse,
        representation=args.representation,
        graph_store=args.graph_store,
        n_jobs=n_jobs,
        journal=args.journal,
        resume=args.resume,
        pinned=pinned,
    )
    result = run_paper_table(args.number, config)
    print(format_nrmse_table(result.table, caption=f"Reproduction of paper Table {args.number}"))
    reproduced_name, reproduced_value = result.reproduced_best()
    paper_name, paper_value = result.paper_best()
    print()
    print(f"paper best at 5%|V|      : {paper_name} (NRMSE {paper_value})")
    print(f"reproduced best (largest): {reproduced_name} (NRMSE {reproduced_value:.3f})")
    agreement = result.agreement()
    print(f"family agreement         : {agreement['family_match']}")
    print(f"proposed beats baselines : {agreement['proposed_wins']}")
    return 0


def _command_figure(args) -> int:
    repetitions, scale, n_jobs, pinned = _resolve_run_size(
        args, default_repetitions=10, default_scale=0.25
    )
    config = ExperimentConfig(
        dataset="orkut",  # replaced by run_paper_figure with the figure's dataset
        repetitions=repetitions,
        seed=args.seed,
        scale=scale,
        backend=args.backend,
        execution=args.execution,
        reuse=args.reuse,
        representation=args.representation,
        graph_store=args.graph_store,
        n_jobs=n_jobs,
        journal=args.journal,
        resume=args.resume,
        pinned=pinned,
    )
    result = run_paper_figure(
        args.number, config, repetitions=None if args.repetitions is None else repetitions
    )
    print(
        format_frequency_series(
            result.points,
            caption=f"Reproduction of paper Figure {args.number} "
            f"({result.definition.dataset}, 5%|V| API calls)",
        )
    )
    return 0


def _command_bounds(args) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    t1, t2 = dataset.target_pairs[args.pair_index]
    bounds = compute_all_bounds(dataset.graph, t1, t2, epsilon=args.epsilon, delta=args.delta)
    print(f"dataset      : {dataset.spec.paper_name} (scale {args.scale})")
    print(f"target labels: ({t1}, {t2}), F = {bounds.true_count}")
    print(f"(epsilon, delta) = ({args.epsilon}, {args.delta})")
    for name, value in bounds.as_dict().items():
        print(f"  {name:<26}{value:>16.1f}")
    return 0


def _command_mixing(args) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    burn_in = recommended_burn_in(dataset.graph, epsilon=args.epsilon, rng=args.seed)
    paper = dataset.spec.paper_mixing_time
    print(f"dataset                 : {dataset.spec.paper_name} (scale {args.scale})")
    print(f"measured burn-in T({args.epsilon}): {burn_in}")
    print(f"paper-reported mixing time (full graph): {paper}")
    return 0


def _command_select(args) -> int:
    from repro.core.selector import estimate_with_adaptive_selection

    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    t1, t2 = dataset.target_pairs[args.pair_index]
    truth = count_target_edges(dataset.graph, t1, t2)
    sample_size = max(1, int(args.budget * dataset.graph.num_nodes))
    report = estimate_with_adaptive_selection(
        dataset.graph,
        t1,
        t2,
        sample_size=sample_size,
        threshold=args.threshold,
        seed=args.seed,
    )
    print(f"dataset              : {dataset.spec.paper_name} (scale {args.scale})")
    print(f"target labels        : ({t1}, {t2})")
    print(f"pilot F/|E| estimate : {report.pilot_relative_count:.5f} (threshold {report.threshold})")
    print(f"selected algorithm   : {report.selected_algorithm}")
    print(f"final estimate       : {report.estimate:.1f}")
    print(f"true F               : {truth}")
    if truth:
        print(f"relative error       : {abs(report.estimate - truth) / truth:.3f}")
    return 0


def _command_cost(args) -> int:
    from repro.experiments.cost import format_cost_table, profile_api_costs

    dataset = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
    t1, t2 = dataset.target_pairs[args.pair_index]
    sample_size = max(1, int(args.budget * dataset.graph.num_nodes))
    profiles = profile_api_costs(
        dataset.graph,
        t1,
        t2,
        sample_size=sample_size,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    print(f"dataset: {dataset.spec.paper_name} (scale {args.scale}), "
          f"target pair ({t1}, {t2}), k={sample_size}")
    print(format_cost_table(profiles))
    return 0


def _command_serve(args) -> int:
    from repro.service import EstimationService, ServiceConfig, run_server

    config = ServiceConfig(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        graph_store=args.graph_store,
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        cache_size=args.cache_size,
        repetitions=args.repetitions,
        burn_in=args.burn_in,
        deadline_ms=args.deadline_ms,
        max_in_flight=args.max_in_flight,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_ms=args.breaker_cooldown_ms,
        faults=args.faults,
        snapshot_path=args.snapshot_path,
        snapshot_interval_ms=args.snapshot_interval_ms,
    )
    if config.faults is not None:
        from repro.resilience import FaultInjector, FaultPlan, install_injector

        install_injector(FaultInjector(FaultPlan.parse(config.faults)))
    dataset = load_dataset(config.dataset, seed=config.seed, scale=config.scale)
    service = EstimationService(
        dataset.graph,
        graph_store=config.graph_store,
        default_repetitions=config.repetitions,
        default_burn_in=config.burn_in,
        cache_size=config.cache_size,
        name=f"{config.dataset}-scale{config.scale}",
        breaker_threshold=config.breaker_threshold,
        breaker_cooldown_seconds=config.breaker_cooldown_seconds,
        snapshot_path=config.snapshot_path,
    )
    try:
        run_server(
            service,
            host=config.host,
            port=config.port,
            window_seconds=config.window_seconds,
            max_in_flight=config.max_in_flight,
            deadline_ms=config.deadline_ms,
            snapshot_interval_seconds=config.snapshot_interval_seconds,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("shutting down")
    finally:
        service.close()
    return 0


def _command_sweep_spills(args) -> int:
    from repro.graph.store import sweep_orphan_spills

    victims = sweep_orphan_spills(
        directory=args.directory,
        max_age_seconds=args.max_age_seconds,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    for victim in victims:
        print(f"{verb}: {victim}")
    print(f"{verb} {len(victims)} orphaned spill file(s)")
    return 0


def _command_fsck(args) -> int:
    import numpy as np

    from repro.durability import verify_artifact
    from repro.exceptions import ArtifactCorruptError
    from repro.graph.csr import CSRGraph

    targets: List = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            targets.extend(sorted(path.glob("*.npz")))
        else:
            targets.append(path)
    if not targets:
        print("fsck: no .npz artifacts found")
        return 0
    corrupt = 0
    for path in targets:
        try:
            outcome = verify_artifact(path, mode=args.mode)
            detail = f"manifest {outcome}"
            if not args.no_structure:
                with np.load(path) as payload:
                    arrays = {key: payload[key] for key in payload.files}
                if "indptr" in arrays and "indices" in arrays:
                    report = CSRGraph(
                        arrays.get("node_ids"),
                        arrays["indptr"],
                        arrays["indices"],
                        label_array=arrays.get("label_array"),
                        validate=False,
                    ).validate_invariants(symmetry_samples=args.symmetry_samples)
                    detail += (
                        f", structure ok ({report['num_nodes']} nodes, "
                        f"{report['num_edges']} edges)"
                    )
                else:
                    detail += ", structure skipped (not a CSR artifact)"
        except ArtifactCorruptError as exc:
            corrupt += 1
            print(f"CORRUPT {path}: {exc}")
            continue
        print(f"ok      {path}: {detail}")
    clean = len(targets) - corrupt
    print(f"fsck: {clean} clean, {corrupt} corrupt of {len(targets)} artifact(s)")
    return 1 if corrupt else 0


_COMMANDS = {
    "datasets": _command_datasets,
    "estimate": _command_estimate,
    "table": _command_table,
    "figure": _command_figure,
    "bounds": _command_bounds,
    "mixing": _command_mixing,
    "select": _command_select,
    "cost": _command_cost,
    "serve": _command_serve,
    "sweep-spills": _command_sweep_spills,
    "fsck": _command_fsck,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging()
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
