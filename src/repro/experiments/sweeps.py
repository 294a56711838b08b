"""Parameter sweeps: sample-size sweeps (tables) and frequency sweeps (figures).

The frequency sweep reproduces Figures 1 and 2 of the paper: for a
fixed budget (5% of ``|V|``), measure the NRMSE of each proposed
algorithm across target-label pairs whose relative count ``F/|E|``
spans several orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.durability import ExperimentJournal, suite_fingerprint

from repro.core.pipeline import ProposedRunner
from repro.core.samplers.csr_backend import (
    validate_backend,
    validate_execution,
    validate_reuse,
)
from repro.exceptions import ConfigurationError
from repro.graph.csr import csr_view
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.store import validate_graph_store
from repro.graph.statistics import count_target_edges
from repro.utils.rng import RandomSource, derive_seed
from repro.utils.validation import check_positive_int
from repro.walks.mixing import recommended_burn_in

from repro.experiments.algorithms import (
    AlgorithmRunner,
    BaselineRunner,
    build_algorithm_suite,
    PAPER_ALGORITHM_ORDER,
)
from repro.experiments.planner import FleetSpec, PrefixFleet
from repro.experiments.runner import (
    CellTask,
    NRMSETable,
    TrialOutcome,
    _outcome_from_record,
    compare_algorithms,
    run_cell,
    run_cells_parallel,
)


def sample_size_sweep(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    sample_fractions: Sequence[float],
    repetitions: int,
    algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
    burn_in: Optional[int] = None,
    seed: RandomSource = 2018,
    dataset_name: str = "dataset",
    backend: str = "python",
    execution: str = "sequential",
    n_jobs: int = 1,
    reuse: str = "none",
    graph_store: str = "ram",
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> NRMSETable:
    """NRMSE of every algorithm as the budget grows — one paper table.

    Thin wrapper over :func:`repro.experiments.runner.compare_algorithms`
    kept for symmetry with :func:`frequency_sweep`.  ``reuse="prefix"``
    walks one max-budget fleet per proposed algorithm and reads every
    smaller budget off its prefixes.  *journal* / *resume* thread
    through to the experiment WAL (see ``compare_algorithms``).
    """
    return compare_algorithms(
        graph,
        t1,
        t2,
        sample_fractions=sample_fractions,
        repetitions=repetitions,
        algorithms=algorithms,
        burn_in=burn_in,
        seed=seed,
        dataset_name=dataset_name,
        backend=backend,
        execution=execution,
        n_jobs=n_jobs,
        reuse=reuse,
        graph_store=graph_store,
        journal=journal,
        resume=resume,
    )


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
        :func:`repro.datasets.registry.select_target_pairs`).
    budget_fraction:
        The fixed budget; the paper uses 5% of ``|V|``.
    repetitions:
        Independent simulations per point.
    algorithms:
        Defaults to the paper's five proposed algorithms only — the
        figures omit the baselines, having already shown them to be far
        behind in the tables.
    execution:
        ``"sequential"`` or ``"fleet"`` (all repetitions of a sweep
        point as one vectorized walker fleet; see
        :func:`repro.experiments.runner.run_trials`).
    n_jobs:
        Worker processes for (pair, algorithm) cell parallelism.  Seeds
        are pre-derived per cell, so any worker count produces the same
        series.
    reuse:
        ``"none"`` (default) walks every (pair, algorithm) point fresh.
        ``"prefix"`` exploits that the walk is label-agnostic: one
        max-budget fleet per registry algorithm serves *every* target
        pair of the sweep (classification against the label masks is
        all that differs per pair), so the sweep's walking cost is
        O(budget) instead of O(pairs × budget).  This covers the EX-*
        baselines too — their line-graph fleet is equally
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
        re-runs only the missing ones, bit-identically (point seeds are
        pre-derived; a partially journaled prefix fleet re-runs whole
        from its pre-derived fleet seed).
    """
    check_positive_int(n_jobs, "n_jobs")
    validate_backend(backend)
    validate_execution(execution)
    validate_reuse(reuse)
    validate_graph_store(graph_store)
    if algorithms is None:
        suite = build_algorithm_suite(include_baselines=False)
        algorithms = {name: suite[name] for name in PAPER_ALGORITHM_ORDER}
    if burn_in is None:
        burn_in = recommended_burn_in(graph, rng=seed)
    sample_size = max(1, math.ceil(budget_fraction * graph.num_nodes))
    # Freeze the CSR arrays once for the whole sweep, not once per point.
    needs_csr = backend == "csr" or execution == "fleet" or reuse == "prefix"
    shared_csr = csr_view(graph) if needs_csr else None

    # Ground truths up front: they define which pairs are plottable and
    # the per-cell tasks; count_target_edges caches per (graph, pair).
    plottable: List[Tuple[int, Tuple[Label, Label], int]] = []
    for pair_index, (t1, t2) in enumerate(target_pairs):
        true_count = count_target_edges(graph, t1, t2)
        if true_count == 0:
            # A pair with no target edges has undefined NRMSE; skip it
            # (the paper only plots pairs that exist in the graph).
            continue
        plottable.append((pair_index, (t1, t2), true_count))

    outcomes: Dict[Tuple[str, int], TrialOutcome] = {}
    if resume and journal is None:
        raise ConfigurationError("resume=True needs a journal path to replay")
    active_journal: Optional[ExperimentJournal] = None
    if journal is not None:
        plottable_indices = {pair_index for pair_index, _, _ in plottable}
        fingerprint = suite_fingerprint(
            graph,
            kind="frequency-sweep",
            target_pairs=[list(pair) for pair in target_pairs],
            budget_fraction=budget_fraction,
            sample_size=sample_size,
            repetitions=repetitions,
            seed=seed,
            burn_in=burn_in,
            backend=backend,
            execution=execution,
            reuse=reuse,
            algorithms=list(algorithms),
        )
        active_journal = ExperimentJournal(journal, fingerprint, resume=resume)
        for (name, column), record in active_journal.completed_cells().items():
            if (
                name in algorithms
                and isinstance(column, int)
                and column in plottable_indices
            ):
                outcomes[(name, column)] = _outcome_from_record(record)

    def record_point(name: str, pair_index: int, outcome: TrialOutcome) -> None:
        if active_journal is not None:
            active_journal.append_cell(
                name,
                pair_index,
                outcome.sample_size,
                outcome.true_count,
                outcome.estimates,
                outcome.api_calls,
            )

    prefix_names = [
        name
        for name in algorithms
        if reuse == "prefix"
        and isinstance(algorithms[name], (ProposedRunner, BaselineRunner))
    ]
    try:
        for name in prefix_names:
            if all(
                (name, pair_index) in outcomes
                for pair_index, _, _ in plottable
            ):
                continue  # the whole fleet's points were replayed
            # One label-agnostic fleet per algorithm; every target pair of
            # the sweep is classified off the same walk (PrefixFleet is the
            # shared planner — budget sweeps and the serving layer reuse it).
            fleet = PrefixFleet(
                shared_csr,
                algorithms[name],
                FleetSpec(
                    name, derive_seed(seed, name, "prefix-frequency"), repetitions, burn_in
                ),
                sample_size,
            )
            for pair_index, (t1, t2), true_count in plottable:
                fresh = (name, pair_index) not in outcomes
                estimates, api_calls = fleet.estimate(t1, t2, sample_size)
                outcomes[(name, pair_index)] = TrialOutcome(
                    algorithm=name,
                    sample_size=sample_size,
                    true_count=true_count,
                    estimates=estimates,
                    api_calls=api_calls,
                )
                if fresh:
                    record_point(name, pair_index, outcomes[(name, pair_index)])

        cells = [
            CellTask(
                algorithm=name,
                column=pair_index,
                sample_size=sample_size,
                seed=_derive_point_seed(seed, name, pair_index),
                t1=t1,
                t2=t2,
                repetitions=repetitions,
                burn_in=burn_in,
                true_count=true_count,
                backend=backend,
                execution=execution,
            )
            for pair_index, (t1, t2), true_count in plottable
            for name in algorithms
            if name not in prefix_names and (name, pair_index) not in outcomes
        ]
        if cells and n_jobs > 1:
            outcomes.update(
                run_cells_parallel(
                    graph, algorithms, cells, n_jobs, None,
                    graph_store=graph_store,
                    on_cell=lambda cell, outcome: record_point(
                        cell.algorithm, cell.column, outcome
                    ),
                )
            )
        else:
            for cell in cells:
                outcome = run_cell(
                    graph, algorithms[cell.algorithm], cell, shared_csr
                )
                outcomes[(cell.algorithm, cell.column)] = outcome
                record_point(cell.algorithm, cell.column, outcome)
        if active_journal is not None:
            active_journal.commit(len(algorithms) * len(plottable))
    finally:
        if active_journal is not None:
            active_journal.close()

    points: List[FrequencyPoint] = []
    for pair_index, pair, true_count in plottable:
        point = FrequencyPoint(
            target_pair=pair,
            true_count=true_count,
            relative_count=true_count / graph.num_edges,
        )
        for name in algorithms:
            point.nrmse_by_algorithm[name] = outcomes[(name, pair_index)].nrmse
        points.append(point)
    points.sort(key=lambda item: item.relative_count)
    return points


def _derive_point_seed(seed: RandomSource, algorithm: str, pair_index: int) -> int:
    return derive_seed(seed, algorithm, "frequency", pair_index)


__all__ = ["sample_size_sweep", "FrequencyPoint", "frequency_sweep"]
