"""Frequency sweeps (Figures 1 and 2 of the paper).

For a fixed budget (5% of ``|V|``), measure the NRMSE of each proposed
algorithm across target-label pairs whose relative count ``F/|E|``
spans several orders of magnitude.  A sweep is the same NRMSE grid as a
table (:func:`repro.experiments.runner.compare_algorithms`), with target
pairs instead of budgets as its columns; both run through
:func:`repro.experiments.runner.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.statistics import count_target_edges
from repro.utils.rng import RandomSource, derive_seed

from repro.experiments.algorithms import (
    AlgorithmRunner,
    build_algorithm_suite,
    PAPER_ALGORITHM_ORDER,
)
from repro.experiments.runner import GridColumn, grid_budgets, run_grid


@dataclass
class FrequencyPoint:
    """One point of a Figure 1/2 series: a label pair and its NRMSE values."""

    target_pair: Tuple[Label, Label]
    true_count: int
    relative_count: float
    nrmse_by_algorithm: Dict[str, float] = field(default_factory=dict)


def frequency_sweep(
    graph: LabeledGraph,
    target_pairs: Sequence[Tuple[Label, Label]],
    budget_fraction: float = 0.05,
    repetitions: int = 50,
    algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
    burn_in: Optional[int] = None,
    seed: RandomSource = 2018,
    backend: str = "python",
    execution: str = "sequential",
    n_jobs: int = 1,
    reuse: str = "none",
    graph_store: str = "ram",
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> List[FrequencyPoint]:
    """NRMSE vs relative target-edge count at a fixed budget (Figures 1–2).

    Parameters
    ----------
    graph:
        The labeled graph — dict :class:`LabeledGraph` or array-native
        :class:`~repro.graph.csr.CSRGraph` (the latter requires
        ``execution="fleet"`` or ``reuse="prefix"``).
    target_pairs:
        The label pairs to evaluate; Figures 1–2 use many pairs spanning
        the frequency range (see
        :func:`repro.datasets.registry.select_target_pairs`).  Pairs
        with no target edges have undefined NRMSE and are skipped.
    budget_fraction:
        The fixed budget, a fraction of ``|V|`` in (0, 1]; the paper
        uses 5%.
    repetitions:
        Independent simulations per point.
    algorithms:
        Defaults to the paper's five proposed algorithms only — the
        figures omit the baselines, having already shown them to be far
        behind in the tables.
    execution:
        ``"sequential"`` or ``"fleet"`` (all repetitions of a sweep
        point as one single-budget prefix fleet; see
        :func:`repro.experiments.runner.run_trials`).  Only matters
        with ``reuse="none"``.
    n_jobs:
        Worker processes for (pair, algorithm) cell parallelism.  Seeds
        are pre-derived per cell (``derive_seed(seed, name,
        "frequency", pair_index)``), so any worker count produces the
        same series.
    reuse:
        ``"none"`` (default) walks every (pair, algorithm) point fresh.
        ``"prefix"`` exploits that the walk is label-agnostic: one
        max-budget fleet per registry algorithm (seeded
        ``derive_seed(seed, name, "prefix-frequency")``) serves *every*
        target pair of the sweep (classification against the label
        masks is all that differs per pair), so the sweep's walking
        cost is O(budget) instead of O(pairs × budget).  This covers the
        EX-* baselines too — their line-graph fleet is equally
        label-agnostic, only the target-node classification reads the
        masks.  Per-point estimate distributions are unchanged
        (KS-checked); points of one algorithm become correlated across
        pairs, which NRMSE — a per-point statistic — never reads.
    graph_store:
        Graph transport for the ``n_jobs`` pool: ``"ram"`` pickles the
        graph per worker; ``"shm"`` / ``"mmap"`` publish the CSR
        buffers once and ship O(1) reattach handles (see
        :func:`repro.experiments.runner.run_cells_parallel`).  The
        series is bit-identical across stores.
    journal / resume:
        The experiment WAL, keyed ``(algorithm, pair_index)`` here: with
        *journal* every completed point is made durable as it finishes;
        *resume* replays the finished points of a crashed sweep and
        re-runs only the missing ones, bit-identically (point and fleet
        seeds are pre-derived).
    """
    (sample_size,) = grid_budgets(graph, [budget_fraction])
    if algorithms is None:
        suite = build_algorithm_suite(include_baselines=False)
        algorithms = {name: suite[name] for name in PAPER_ALGORITHM_ORDER}
    # Ground truths up front: they define which pairs are plottable (the
    # paper only plots pairs that exist in the graph); count_target_edges
    # caches per (graph, pair).
    columns: Dict[int, GridColumn] = {}
    for pair_index, (t1, t2) in enumerate(target_pairs):
        true_count = count_target_edges(graph, t1, t2)
        if true_count > 0:
            columns[pair_index] = GridColumn(t1, t2, sample_size, true_count)
    outcomes = run_grid(
        graph,
        algorithms,
        columns,
        repetitions,
        burn_in,
        seed,
        cell_seed=lambda name, pair_index: derive_seed(seed, name, "frequency", pair_index),
        fleet_seed=lambda name: derive_seed(seed, name, "prefix-frequency"),
        fingerprint=dict(
            kind="frequency-sweep",
            target_pairs=[list(pair) for pair in target_pairs],
            budget_fraction=budget_fraction,
            sample_size=sample_size,
        ),
        backend=backend,
        execution=execution,
        n_jobs=n_jobs,
        reuse=reuse,
        graph_store=graph_store,
        journal=journal,
        resume=resume,
    )
    points = [
        FrequencyPoint(
            target_pair=(column.t1, column.t2),
            true_count=column.true_count,
            relative_count=column.true_count / graph.num_edges,
            nrmse_by_algorithm={
                name: outcomes[(name, pair_index)].nrmse for name in algorithms
            },
        )
        for pair_index, column in columns.items()
    ]
    points.sort(key=lambda item: item.relative_count)
    return points


__all__ = ["FrequencyPoint", "frequency_sweep"]
