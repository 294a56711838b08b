"""Running repeated estimation trials and collecting NRMSE tables.

Two entry points:

* :func:`run_trials` — one (algorithm, budget) cell: repeat the
  estimation over fresh API wrappers / random streams and summarise.
* :func:`compare_algorithms` — a whole table: every algorithm × every
  budget, returning an :class:`NRMSETable` whose rows mirror Tables 4–17
  of the paper.

Three orthogonal performance knobs:

* ``execution="fleet"`` runs *all repetitions of a cell at once* as one
  vectorized walker fleet over the shared CSR arrays (one walker per
  repetition, per-walker budget ledgers, array-native estimators).
  Every registry algorithm vectorizes: the proposed algorithms through
  the NS/NE fleet samplers, the EX-* baselines through the implicit
  line-graph fleet (:mod:`repro.baselines.fleet`); only hand-written
  runner callables fall back to the sequential loop.
* ``reuse="prefix"`` exploits that a budget-``b₁`` crawl from a given
  seed is a literal prefix of a budget-``b₂ > b₁`` crawl from the same
  seed: one max-budget fleet per (pair, algorithm) and every smaller
  budget column is classified and estimated off trajectory/ledger
  prefixes (:func:`run_trials_prefix`) — sweep walking cost drops from
  O(Σ budgets) to O(max budget).  Applies to the proposed algorithms
  *and* the EX-* baselines (whose prefixes keep the rejected-proposal
  probes in the ledgers); hand-written runners keep fresh walks per
  cell.
* ``n_jobs > 1`` distributes whole cells across worker processes.
  Per-cell seeds are derived with :func:`derive_seed` before
  submission, so the resulting table is identical for any worker count
  and scheduling order.  ``graph_store`` controls how the graph reaches
  the workers: ``"ram"`` pickles it once per worker (the only option
  for dict graphs), while ``"shm"`` / ``"mmap"`` publish the CSR
  buffers once (shared-memory segment / memory-mapped sidecar) and ship
  an O(1) :class:`~repro.graph.store.CSRHandle` that workers reattach
  zero-copy — at the 10⁶-node rung the serialization this avoids dwarfs
  the cell work itself.  The store never touches any random stream, so
  tables are bit-identical across all three stores.

One durability knob: ``journal=`` names an append-only JSONL WAL
(:class:`repro.durability.ExperimentJournal`) that records every
completed cell the moment it finishes, keyed by a suite fingerprint.
``resume=True`` replays the finished cells out of it and re-runs only
the missing ones — bit-identical to an uninterrupted run, because each
cell's seed is pre-derived.
"""

from __future__ import annotations

import math
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.durability import ExperimentJournal, suite_fingerprint

from repro.baselines.fleet import (
    classify_line_fleet,
    reweighted_estimates,
    run_baseline_fleet,
)
from repro.core.pipeline import ProposedRunner
from repro.core.samplers.csr_backend import (
    explore_nodes_fleet,
    sample_edges_fleet,
    validate_backend,
    validate_execution,
    validate_reuse,
)
from repro.exceptions import ConfigurationError, ExperimentError
from repro.graph.api import RestrictedGraphAPI
from repro.graph.csr import CSRGraph, csr_view, ensure_same_graph
from repro.graph.store import CSRHandle, attach_csr, publish_csr, validate_graph_store
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.statistics import count_target_edges
from repro.resilience.faults import fire
from repro.resilience.retry import Retry
from repro.utils.rng import RandomSource, derive_seed, ensure_numpy_rng, spawn_rngs
from repro.utils.validation import check_positive_int
from repro.walks.mixing import recommended_burn_in

from repro.experiments.algorithms import (
    AlgorithmRunner,
    BaselineRunner,
    build_algorithm_suite,
)
from repro.experiments.metrics import nrmse
from repro.experiments.planner import FleetSpec, PrefixFleet


@dataclass
class TrialOutcome:
    """Summary of repeated estimation runs for one algorithm at one budget."""

    algorithm: str
    sample_size: int
    true_count: int
    estimates: List[float] = field(default_factory=list)
    api_calls: List[int] = field(default_factory=list)

    @property
    def repetitions(self) -> int:
        """Number of independent simulations aggregated."""
        return len(self.estimates)

    @property
    def nrmse(self) -> float:
        """NRMSE of the estimates against the true count."""
        return nrmse(self.estimates, self.true_count)

    @property
    def mean_estimate(self) -> float:
        """Average estimate across repetitions."""
        if not self.estimates:
            raise ExperimentError("no estimates recorded")
        return sum(self.estimates) / len(self.estimates)

    @property
    def mean_api_calls(self) -> float:
        """Average charged API calls per repetition (0 when not recorded)."""
        if not self.api_calls:
            return 0.0
        return sum(self.api_calls) / len(self.api_calls)


@dataclass
class NRMSETable:
    """A reproduced NRMSE table: algorithms × sample sizes.

    ``cells[algorithm][i]`` is the :class:`TrialOutcome` at
    ``sample_sizes[i]``.
    """

    dataset: str
    target_pair: Tuple[Label, Label]
    true_count: int
    sample_sizes: List[int]
    sample_fractions: List[float]
    cells: Dict[str, List[TrialOutcome]] = field(default_factory=dict)

    def nrmse_row(self, algorithm: str) -> List[float]:
        """The NRMSE values of one algorithm across all budgets."""
        return [outcome.nrmse for outcome in self.cells[algorithm]]

    def algorithms(self) -> List[str]:
        """Algorithm names in insertion (paper table) order."""
        return list(self.cells)

    def best_algorithm(self, column: int = -1) -> Tuple[str, float]:
        """The winner (lowest NRMSE) at one budget column; default: the largest."""
        best_name: Optional[str] = None
        best_value = math.inf
        for name, outcomes in self.cells.items():
            value = outcomes[column].nrmse
            if value < best_value:
                best_name, best_value = name, value
        if best_name is None:
            raise ExperimentError("the table has no cells")
        return best_name, best_value


def run_trials(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    runner: AlgorithmRunner,
    algorithm_name: str,
    sample_size: int,
    repetitions: int,
    burn_in: int,
    seed: RandomSource = None,
    true_count: Optional[int] = None,
    backend: str = "python",
    csr: Optional[CSRGraph] = None,
    execution: str = "sequential",
) -> TrialOutcome:
    """Repeat one estimation *repetitions* times and summarise.

    With ``execution="sequential"`` (default) every repetition gets a
    fresh :class:`RestrictedGraphAPI` (so API calls and caches do not
    leak across repetitions) and an independent random stream derived
    from *seed*.  With ``backend="csr"`` the CSR arrays are frozen once
    and shared by every repetition (the walks stay independent; only the
    read-only adjacency is reused); callers looping over many cells
    should freeze once and pass *csr* down, as
    :func:`compare_algorithms` does.

    With ``execution="fleet"`` all *repetitions* run as **one**
    vectorized walker fleet over the shared CSR arrays: one walker per
    repetition (each with its own distinct-page ledger, matching the
    fresh wrapper it stands for), vectorized burn-in, and array-native
    ``estimate_batch`` estimators instead of per-sample Python loops.
    Fleet estimates are distributionally equivalent to sequential ones
    (enforced by the KS equivalence suite) but not bit-identical — the
    random streams are consumed walker-by-step instead of
    trial-by-trial.  Any :class:`ProposedRunner` vectorizes through the
    NS/NE fleet samplers — its own sampler kind and estimator
    configuration are honored, custom or registry alike.  Any
    :class:`~repro.experiments.algorithms.BaselineRunner` (the EX-*
    rows) vectorizes through the implicit line-graph fleet
    (:mod:`repro.baselines.fleet`) with its own ``alpha`` / ``delta`` /
    line-max-degree knobs.  Only hand-written runner callables fall
    back to the sequential loop, exactly like ``backend="csr"``.

    Support matrix (``execution`` × walk reuse × graph representation)
    — ``reuse`` lives on :func:`run_trials_prefix` /
    :func:`compare_algorithms`, but the combinations are decided here:

    ========== ========== ============== =================================
    execution  reuse      representation behavior
    ========== ========== ============== =================================
    sequential none       dict           reference path, all runners
    sequential none       csr            **raises** ``ConfigurationError``
                                         (no dict graph to simulate the
                                         restricted API over)
    sequential prefix     dict / csr     registry runners go through
                                         :func:`run_trials_prefix`
                                         fleets; hand-written runners
                                         keep sequential cells (dict
                                         only — csr raises for them)
    fleet      none       dict / csr     registry runners vectorize
                                         (NS/NE fleet or line fleet);
                                         hand-written runners fall back
                                         to sequential (csr raises)
    fleet      prefix     dict / csr     prefix fleets for registry
                                         runners; remaining cells as
                                         ``fleet``/``none``
    ========== ========== ============== =================================

    ``backend`` is orthogonal: it selects the per-walk engine of the
    *sequential* proposed algorithms (``"csr"`` still requires the dict
    graph for the wrapper); fleets always run the vectorized numpy
    engine.  :class:`ExperimentConfig` enforces the same matrix eagerly
    for whole experiment runs.
    """
    check_positive_int(sample_size, "sample_size")
    check_positive_int(repetitions, "repetitions")
    validate_backend(backend)
    validate_execution(execution)
    if true_count is None:
        true_count = count_target_edges(graph, t1, t2)
    if true_count <= 0:
        raise ExperimentError(
            f"the target pair ({t1!r}, {t2!r}) has no target edges; NRMSE is undefined"
        )
    if execution == "fleet" and isinstance(runner, ProposedRunner):
        return _run_trials_fleet(
            graph,
            t1,
            t2,
            runner,
            algorithm_name,
            sample_size,
            repetitions,
            burn_in,
            seed,
            true_count,
            csr,
        )
    if execution == "fleet" and isinstance(runner, BaselineRunner):
        return _run_trials_fleet_baseline(
            graph,
            t1,
            t2,
            runner,
            algorithm_name,
            sample_size,
            repetitions,
            burn_in,
            seed,
            true_count,
            csr,
        )
    if isinstance(graph, CSRGraph):
        raise ConfigurationError(
            "the sequential execution path simulates the restricted API over "
            "the dict graph; pass graph.to_labeled_graph() (or a dict-"
            "representation dataset), or run a registry algorithm with "
            "execution='fleet'"
        )
    outcome = TrialOutcome(
        algorithm=algorithm_name, sample_size=sample_size, true_count=true_count
    )
    # Only pass backend through when non-default, so hand-written runners
    # with the historical 6-argument signature keep working.
    extra = {} if backend == "python" else {"backend": backend}
    shared_csr = csr
    if backend == "csr" and shared_csr is None:
        shared_csr = csr_view(graph)
    for rng in spawn_rngs(seed, repetitions):
        api = RestrictedGraphAPI(graph)
        if shared_csr is not None:
            api.adopt_csr(shared_csr)
        result = runner(api, t1, t2, sample_size, burn_in, rng, **extra)
        outcome.estimates.append(result.estimate)
        outcome.api_calls.append(api.api_calls)
    return outcome


def _run_trials_fleet(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    runner: ProposedRunner,
    algorithm_name: str,
    sample_size: int,
    repetitions: int,
    burn_in: int,
    seed: RandomSource,
    true_count: int,
    csr: Optional[CSRGraph],
) -> TrialOutcome:
    """One (algorithm, budget) cell as a single vectorized walker fleet.

    The sampler kind and estimator come off the *runner* itself, so a
    custom :class:`ProposedRunner` (e.g. a thinning ablation) vectorizes
    with its own configuration rather than a registry lookup's.
    """
    shared_csr = ensure_same_graph(csr, graph) if csr is not None else csr_view(graph)
    sampler = sample_edges_fleet if runner.sampler == "edge" else explore_nodes_fleet
    batch = sampler(
        shared_csr,
        t1,
        t2,
        sample_size,
        repetitions,
        burn_in=burn_in,
        rng=ensure_numpy_rng(seed),
    )
    estimates = runner.estimator_factory().estimate_batch(batch)
    return TrialOutcome(
        algorithm=algorithm_name,
        sample_size=sample_size,
        true_count=true_count,
        estimates=[float(value) for value in estimates],
        api_calls=[int(calls) for calls in batch.api_calls],
    )


def _run_trials_fleet_baseline(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    runner: BaselineRunner,
    algorithm_name: str,
    sample_size: int,
    repetitions: int,
    burn_in: int,
    seed: RandomSource,
    true_count: int,
    csr: Optional[CSRGraph],
) -> TrialOutcome:
    """One EX-* (algorithm, budget) cell as a single line-graph fleet.

    The kernel spec — ``alpha`` / ``delta`` / line-max-degree included —
    comes off the wrapped baseline instance, so tuned suites vectorize
    with their own configuration.  Estimates and per-trial ledgers are
    distributionally equivalent to the sequential
    :meth:`LineGraphBaseline.estimate` loop (KS-enforced).
    """
    shared_csr = ensure_same_graph(csr, graph) if csr is not None else csr_view(graph)
    baseline = runner.baseline
    fleet = run_baseline_fleet(
        shared_csr,
        baseline,
        sample_size,
        repetitions,
        burn_in=burn_in,
        rng=ensure_numpy_rng(seed),
    )
    batch = classify_line_fleet(shared_csr, fleet, t1, t2)
    estimates = reweighted_estimates(batch)
    return TrialOutcome(
        algorithm=algorithm_name,
        sample_size=sample_size,
        true_count=true_count,
        estimates=[float(value) for value in estimates],
        api_calls=[int(calls) for calls in batch.api_calls],
    )


def run_trials_prefix(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    runner: AlgorithmRunner,
    algorithm_name: str,
    sample_sizes: Sequence[int],
    repetitions: int,
    burn_in: int,
    seed: RandomSource = None,
    true_count: Optional[int] = None,
    csr: Optional[CSRGraph] = None,
) -> List[TrialOutcome]:
    """Every budget column of one algorithm from a single max-budget fleet.

    The prefix-reuse engine: a budget-``b`` crawl from a given seed *is*
    the first ``b`` collected steps of a longer crawl from the same
    seed, so one fleet at ``max(sample_sizes)`` steps serves every
    column — smaller budgets are read off trajectory prefixes
    (:meth:`FleetWalkResult.prefix`), classified against the label masks
    and pushed through the estimator's ``estimate_batch``, with
    per-walker distinct-page ledgers that match a fleet run to exactly
    that budget.  Walk cost is O(max budget) instead of O(Σ budgets),
    and so is the NeighborExploration ledger cost: one
    :meth:`PrefixFleet.estimate_many` call charges every prefix in a
    single ascending pass over the budgets.

    Within one call the columns are nested (the budget-``b₁`` estimates
    are computed from a prefix of the budget-``b₂`` walks), exactly as
    if one crawler kept crawling and re-estimated at checkpoints;
    per-column estimate *distributions* are unchanged (KS-checked
    against ``reuse="none"``), only the across-column correlation
    differs from independently re-walked cells.

    Both registry runner kinds vectorize this way:
    :class:`ProposedRunner` cells come off one NS/NE fleet,
    :class:`~repro.experiments.algorithms.BaselineRunner` (EX-*) cells
    off one implicit line-graph fleet — whose prefixes keep the
    rejected-proposal probes in the per-trial ledgers, so a truncated
    MH-family crawl charges exactly what a fresh crawl to that budget
    would.  Hand-written runner callables raise
    :class:`ConfigurationError` (the harness falls back to per-cell
    walks for those).

    The fleet mechanics live in
    :class:`repro.experiments.planner.PrefixFleet`, which is shared
    with the frequency sweeps and the :mod:`repro.service`
    micro-batcher; this function is the table-shaped wrapper (one pair,
    many budgets, :class:`TrialOutcome` rows).
    """
    if not sample_sizes:
        raise ConfigurationError("sample_sizes must not be empty")
    for sample_size in sample_sizes:
        check_positive_int(sample_size, "sample_size")
    if true_count is None:
        true_count = count_target_edges(graph, t1, t2)
    if true_count <= 0:
        raise ExperimentError(
            f"the target pair ({t1!r}, {t2!r}) has no target edges; NRMSE is undefined"
        )
    shared_csr = ensure_same_graph(csr, graph) if csr is not None else csr_view(graph)
    fleet = PrefixFleet(
        shared_csr,
        runner,
        FleetSpec(algorithm_name, seed, repetitions, burn_in),
        max(sample_sizes),
    )
    return [
        TrialOutcome(
            algorithm=algorithm_name,
            sample_size=sample_size,
            true_count=true_count,
            estimates=estimates,
            api_calls=api_calls,
        )
        for sample_size, (estimates, api_calls) in zip(
            sample_sizes, fleet.estimate_many(t1, t2, sample_sizes)
        )
    ]


def compare_algorithms(
    graph: LabeledGraph,
    t1: Label,
    t2: Label,
    sample_fractions: Sequence[float],
    repetitions: int,
    algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
    burn_in: Optional[int] = None,
    seed: RandomSource = 2018,
    dataset_name: str = "dataset",
    progress: Optional[Callable[[str, int, float], None]] = None,
    backend: str = "python",
    execution: str = "sequential",
    n_jobs: int = 1,
    reuse: str = "none",
    graph_store: str = "ram",
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> NRMSETable:
    """Reproduce one NRMSE table: every algorithm at every budget.

    Parameters
    ----------
    graph:
        The labeled graph (full access is needed for the ground truth
        and, if *burn_in* is omitted, the mixing-time-based burn-in).
    t1, t2:
        The target-label pair of the table.
    sample_fractions:
        Budgets as fractions of ``|V|`` (the paper: 0.5%–5%).
    repetitions:
        Independent simulations per cell (the paper: 200).
    algorithms:
        Mapping name -> runner; defaults to the full ten-algorithm suite.
    burn_in:
        Walk burn-in; derived from the graph's mixing time when omitted.
    seed:
        Master seed; cells get deterministic derived streams.
    progress:
        Optional callback ``(algorithm, sample_size, fraction_done)``.
    backend:
        Walk backend of the *sequential* proposed algorithms:
        ``"python"`` (the dict reference engine) or ``"csr"``.  Under
        ``execution="fleet"`` / ``reuse="prefix"`` the fleets run the
        vectorized numpy engine whatever the backend, and the EX-*
        baselines sequentially run the reference line-graph engine
        regardless.
    execution:
        ``"sequential"`` (one repetition at a time) or ``"fleet"`` (all
        repetitions of a cell as one vectorized walker fleet — NS/NE
        fleets for the proposed algorithms, line-graph fleets for the
        EX-* baselines; see :func:`run_trials`).
    n_jobs:
        Number of worker processes for cell-level parallelism.  Every
        cell's seed is derived with :func:`derive_seed` *before*
        submission, so the table is identical for any worker count and
        scheduling order.  ``n_jobs > 1`` ships the actual runner
        objects to the workers, so it requires picklable runners —
        registry suites (tuned or not) qualify; hand-written closures
        do not and must run with ``n_jobs=1`` (a clear
        :class:`ConfigurationError` is raised otherwise).
    reuse:
        ``"none"`` (default) walks every cell fresh; ``"prefix"`` runs
        one max-budget fleet per registry algorithm — proposed and
        EX-* alike — and reads all smaller budget columns off
        trajectory prefixes (:func:`run_trials_prefix`) — O(max
        budget) walking for the whole row.  Hand-written runners keep
        fresh per-cell walks (and the ``n_jobs`` pool) either way.
    graph_store:
        How ``n_jobs > 1`` workers receive the graph: ``"ram"``
        (default) pickles it once per worker; ``"shm"`` / ``"mmap"``
        publish the CSR buffers once (shared-memory segment /
        memory-mapped sidecar) and ship an O(1) reattach handle — the
        cheap-parallelism path at million-node scale.  Requires a
        :class:`CSRGraph`; irrelevant (and ignored) at ``n_jobs=1``.
        Tables are bit-identical across stores: the store moves bytes,
        never random draws.
    journal:
        Optional path to an append-only experiment journal (WAL).  Every
        completed cell is made durable the moment it finishes (fsync'd
        JSONL, self-checking lines), keyed by a fingerprint of the graph
        content and every run-shaping parameter.  A run that dies
        mid-table leaves the journal behind as resume state.
    resume:
        With *journal*, replay the cells a previous (crashed) run
        already finished and execute only the missing ones.  Because
        cell and fleet seeds are pre-derived, the resumed table is
        bit-identical to an uninterrupted run.  Raises
        :class:`ExperimentError` if the journal belongs to a different
        suite (fingerprint mismatch).
    """
    check_positive_int(n_jobs, "n_jobs")
    validate_backend(backend)
    validate_execution(execution)
    validate_reuse(reuse)
    validate_graph_store(graph_store)
    if algorithms is None:
        if isinstance(graph, CSRGraph) and execution != "fleet" and reuse != "prefix":
            # Without a vectorized execution mode a CSR-native run has
            # no engine for the baselines' line-graph walks.
            algorithms = build_algorithm_suite(include_baselines=False)
        else:
            algorithms = build_algorithm_suite(graph)
    if burn_in is None:
        burn_in = recommended_burn_in(graph, rng=seed)
    true_count = count_target_edges(graph, t1, t2)
    # Freeze the CSR arrays once for the whole table, not once per cell.
    needs_csr = backend == "csr" or execution == "fleet" or reuse == "prefix"
    shared_csr = csr_view(graph) if needs_csr else None

    sample_sizes = [max(1, math.ceil(fraction * graph.num_nodes)) for fraction in sample_fractions]
    table = NRMSETable(
        dataset=dataset_name,
        target_pair=(t1, t2),
        true_count=true_count,
        sample_sizes=sample_sizes,
        sample_fractions=list(sample_fractions),
    )
    outcomes: Dict[Tuple[str, int], TrialOutcome] = {}
    if resume and journal is None:
        raise ConfigurationError("resume=True needs a journal path to replay")
    active_journal: Optional[ExperimentJournal] = None
    if journal is not None:
        # The fingerprint covers the graph content and every parameter
        # that shapes a cell, so a journal can never replay into a run
        # it does not belong to.
        fingerprint = suite_fingerprint(
            graph,
            kind="nrmse-table",
            dataset=dataset_name,
            target_pair=[t1, t2],
            sample_sizes=sample_sizes,
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
                and 0 <= column < len(sample_sizes)
            ):
                outcomes[(name, column)] = _outcome_from_record(record)

    def record_cell(cell: CellTask, outcome: TrialOutcome) -> None:
        if active_journal is not None:
            active_journal.append_cell(
                outcome.algorithm,
                cell.column,
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
    total_cells = len(algorithms) * len(sample_sizes)
    done = len(outcomes)
    try:
        for name in prefix_names:
            if all(
                (name, column) in outcomes
                for column in range(len(sample_sizes))
            ):
                continue  # every column of this fleet was replayed
            # A partially journaled fleet re-runs whole: the fleet seed
            # is pre-derived, so recomputed columns are bit-identical to
            # the journaled ones they overwrite.
            row = run_trials_prefix(
                graph,
                t1,
                t2,
                algorithms[name],
                name,
                sample_sizes,
                repetitions,
                burn_in,
                seed=_derive_group_seed(seed, name),
                true_count=true_count,
                csr=shared_csr,
            )
            for column, outcome in enumerate(row):
                fresh = (name, column) not in outcomes
                outcomes[(name, column)] = outcome
                if fresh:
                    if active_journal is not None:
                        active_journal.append_cell(
                            name,
                            column,
                            outcome.sample_size,
                            outcome.true_count,
                            outcome.estimates,
                            outcome.api_calls,
                        )
                    done += 1
                    if progress is not None:
                        progress(name, outcome.sample_size, done / total_cells)

        cells = [
            CellTask(
                algorithm=name,
                column=column,
                sample_size=sample_size,
                seed=_derive_cell_seed(seed, name, column),
                t1=t1,
                t2=t2,
                repetitions=repetitions,
                burn_in=burn_in,
                true_count=true_count,
                backend=backend,
                execution=execution,
            )
            for name in algorithms
            if name not in prefix_names
            for column, sample_size in enumerate(sample_sizes)
            if (name, column) not in outcomes
        ]
        if cells and n_jobs > 1:

            def pool_progress(
                algorithm: str, sample_size: int, _fraction: float
            ) -> None:
                nonlocal done
                done += 1
                if progress is not None:
                    progress(algorithm, sample_size, done / total_cells)

            outcomes.update(
                run_cells_parallel(
                    graph, algorithms, cells, n_jobs,
                    pool_progress if progress is not None else None,
                    graph_store=graph_store,
                    on_cell=record_cell,
                )
            )
        else:
            for cell in cells:
                outcome = run_cell(
                    graph, algorithms[cell.algorithm], cell, shared_csr
                )
                outcomes[(cell.algorithm, cell.column)] = outcome
                record_cell(cell, outcome)
                done += 1
                if progress is not None:
                    progress(cell.algorithm, cell.sample_size, done / total_cells)
        for name in algorithms:
            table.cells[name] = [
                outcomes[(name, column)] for column in range(len(sample_sizes))
            ]
        if active_journal is not None:
            active_journal.commit(total_cells)
    finally:
        # On failure the journal stays uncommitted — that *is* the
        # resume state a crashed run leaves behind.
        if active_journal is not None:
            active_journal.close()
    return table


def _outcome_from_record(record: Mapping[str, object]) -> TrialOutcome:
    """Rebuild a :class:`TrialOutcome` from a journal ``cell`` record.

    JSON floats round-trip exactly (shortest-repr), so a replayed cell
    is bit-identical to the one the crashed run computed.
    """
    return TrialOutcome(
        algorithm=str(record["algorithm"]),
        sample_size=int(record["sample_size"]),  # type: ignore[arg-type]
        true_count=int(record["true_count"]),  # type: ignore[arg-type]
        estimates=[float(value) for value in record["estimates"]],  # type: ignore[union-attr]
        api_calls=[int(value) for value in record["api_calls"]],  # type: ignore[union-attr]
    )


def _derive_cell_seed(seed: RandomSource, algorithm: str, column: int) -> int:
    """Deterministic per-cell seed so tables are reproducible cell-by-cell."""
    return derive_seed(seed, algorithm, column)


def _derive_group_seed(seed: RandomSource, algorithm: str) -> int:
    """Deterministic seed for one algorithm's whole prefix-reuse fleet."""
    return derive_seed(seed, algorithm, "prefix")


# ----------------------------------------------------------------------
# cell-level process parallelism
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellTask:
    """Everything one worker needs to run one (algorithm, budget) cell.

    Only scalars and labels — the graph and the suite live in per-worker
    globals (:func:`_init_cell_worker`), so submitting a task ships a
    few bytes, not the adjacency.  Shared harness plumbing: both
    :func:`compare_algorithms` and
    :func:`repro.experiments.sweeps.frequency_sweep` build their cells
    with it (deliberately not in ``__all__`` — it is not part of the
    user-facing API).
    """

    algorithm: str
    column: int
    sample_size: int
    seed: int
    t1: Label
    t2: Label
    repetitions: int
    burn_in: int
    true_count: int
    backend: str
    execution: str


def run_cell(
    graph: LabeledGraph,
    runner: AlgorithmRunner,
    cell: CellTask,
    csr: Optional[CSRGraph],
) -> TrialOutcome:
    """Run one :class:`CellTask` through :func:`run_trials`.

    The single unpacking of a cell into a trial run, shared by the
    serial loops (tables and sweeps) and the process-pool workers.
    """
    return run_trials(
        graph,
        cell.t1,
        cell.t2,
        runner,
        cell.algorithm,
        cell.sample_size,
        cell.repetitions,
        cell.burn_in,
        seed=cell.seed,
        true_count=cell.true_count,
        backend=cell.backend,
        csr=csr,
        execution=cell.execution,
    )


#: Per-worker state: the shared graph, its frozen CSR view and the suite.
_WORKER_STATE: Dict[str, object] = {}


def _init_cell_worker(
    graph_ref: Union[LabeledGraph, CSRGraph, CSRHandle],
    suite_blob: bytes,
    needs_csr: bool,
    cache_payload: Optional[Dict] = None,
) -> None:
    """Materialise the per-worker state from what the parent shipped.

    *graph_ref* is either the graph itself (``graph_store="ram"``, one
    pickle per worker) or an O(1) :class:`CSRHandle` that reattaches
    the published buffers zero-copy.  *suite_blob* is the suite pickled
    **once** in the parent — the same bytes serve both the eager
    picklability check and the transfer, so the suite is never
    serialized twice.  *cache_payload* carries the parent's derived
    label caches when the handle could not (a re-published graph keeps
    its pre-existing handle), so workers never repeat the parent's
    O(|E|) classification passes.
    """
    if isinstance(graph_ref, CSRHandle):
        # Attach with backoff: the publisher may be racing a re-publish
        # (sidecar mid-rewrite) and StoreAttachError is retryable.
        handle = graph_ref
        graph_ref = Retry(attempts=3, base_seconds=0.05).call(
            lambda: attach_csr(handle), describe="worker store attach"
        )
        if cache_payload is not None:
            graph_ref.adopt_label_caches(cache_payload)
    _WORKER_STATE["graph"] = graph_ref
    _WORKER_STATE["suite"] = pickle.loads(suite_blob)
    _WORKER_STATE["csr"] = csr_view(graph_ref) if needs_csr else None


def _run_cell_in_worker(cell: CellTask) -> TrialOutcome:
    fire("worker.cell", algorithm=cell.algorithm, column=cell.column)
    suite: Mapping[str, AlgorithmRunner] = _WORKER_STATE["suite"]  # type: ignore[assignment]
    return run_cell(
        _WORKER_STATE["graph"],  # type: ignore[arg-type]
        suite[cell.algorithm],
        cell,
        _WORKER_STATE["csr"],  # type: ignore[arg-type]
    )


def run_cells_parallel(
    graph: LabeledGraph,
    algorithms: Mapping[str, AlgorithmRunner],
    cells: Sequence[CellTask],
    n_jobs: int,
    progress: Optional[Callable[[str, int, float], None]],
    graph_store: str = "ram",
    max_pool_respawns: int = 2,
    on_cell: Optional[Callable[[CellTask, TrialOutcome], None]] = None,
) -> Dict[Tuple[str, int], TrialOutcome]:
    """Run cells across a process pool; results keyed (algorithm, column).

    The workers receive the graph and the *actual* suite — runner
    objects, tuning knobs included — through the pool initializer (one
    transfer per worker, not per cell), so a tuned suite behaves
    identically at any worker count.  Because every cell carries its own
    pre-derived seed, scheduling order cannot change any result, only
    the completion order of the progress callback.  The suite is pickled
    exactly once: the resulting bytes double as the eager picklability
    check (hand-written closure runners fail with a clear error on every
    platform — under ``fork`` they would silently work, under ``spawn``
    they would crash mid-pool) and as the per-worker transfer payload.

    *graph_store* selects the graph transport.  ``"ram"`` pickles the
    graph into each worker (dict graphs have no other option).  For a
    :class:`CSRGraph`, ``"shm"`` publishes the buffers once into a
    shared-memory segment and ``"mmap"`` into a memory-mapped sidecar
    (a graph already mmap-backed re-uses its existing handle for free);
    workers then reattach zero-copy from an O(1) handle.  The published
    resource is released in a ``finally`` block, so a worker crash or a
    raising cell cannot leak a segment.

    A **killed worker** (OOM reaper, SIGKILL, a segfaulting kernel)
    breaks the whole :class:`ProcessPoolExecutor`, which historically
    aborted the table.  Now the break is contained: results that
    completed before the crash are kept, the pool is respawned, and
    only the still-missing cells are resubmitted — at most
    *max_pool_respawns* times before giving up with
    :class:`ExperimentError`.  Because every cell carries its own
    pre-derived seed, a cell re-run after a crash produces bit-identical
    results to an uninterrupted run — recovery cannot change the table
    (pinned by the recovery integration tests).  Exceptions *raised by*
    a cell (as opposed to a dead worker) still propagate immediately;
    they are deterministic and a retry would just repeat them.

    *on_cell* is invoked **in the parent** as each cell's result is
    retained (the experiment-journal hook): it sees every completed
    cell exactly once, including cells that finished before a pool
    break, and never sees a cell that died with its worker.
    """
    validate_graph_store(graph_store)
    suite = dict(algorithms)
    try:
        suite_blob = pickle.dumps(suite)
    except Exception as error:
        raise ConfigurationError(
            "n_jobs > 1 ships the algorithm suite to worker processes, which "
            f"requires picklable runners ({error}); run custom closure-based "
            "suites with n_jobs=1"
        ) from error
    needs_csr = any(
        cell.backend == "csr" or cell.execution == "fleet"
        for cell in cells
    )
    publication = None
    graph_ref: Union[LabeledGraph, CSRGraph, CSRHandle] = graph
    cache_payload: Optional[Dict] = None
    if graph_store != "ram":
        if not isinstance(graph, CSRGraph):
            raise ConfigurationError(
                f"graph_store={graph_store!r} publishes CSR buffers; the dict "
                "graph has none — use representation='csr' (or graph_store='ram')"
            )
        publication = publish_csr(graph, graph_store)
        graph_ref = publication.handle
        if not publication.owns_resource:
            # The graph was already externally backed, so its pre-existing
            # handle was reused — any caches computed *since* it was
            # written are not in it; ship them by value (O(|V|), vs the
            # O(|E|) recompute every worker would otherwise pay).
            exported = graph.export_label_caches()
            if any(exported.values()):
                cache_payload = exported
    outcomes: Dict[Tuple[str, int], TrialOutcome] = {}
    respawns = 0
    try:
        while True:
            pending = [
                cell
                for cell in cells
                if (cell.algorithm, cell.column) not in outcomes
            ]
            if not pending:
                break
            pool_broken = False
            with ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_init_cell_worker,
                initargs=(graph_ref, suite_blob, needs_csr, cache_payload),
            ) as pool:
                futures = {
                    pool.submit(_run_cell_in_worker, cell): cell
                    for cell in pending
                }
                for future in as_completed(futures):
                    cell = futures[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # A worker died (kill/OOM/segfault); every pending
                        # future fails this way.  Keep draining so cells
                        # that finished *before* the break are retained.
                        pool_broken = True
                        continue
                    outcomes[(cell.algorithm, cell.column)] = outcome
                    if on_cell is not None:
                        on_cell(cell, outcome)
                    if progress is not None:
                        progress(
                            cell.algorithm,
                            cell.sample_size,
                            len(outcomes) / len(cells),
                        )
            if pool_broken:
                respawns += 1
                if respawns > max_pool_respawns:
                    missing = len(cells) - len(outcomes)
                    raise ExperimentError(
                        f"worker pool broke {respawns} times running the "
                        f"table ({missing} of {len(cells)} cells still "
                        f"missing); giving up after {max_pool_respawns} "
                        f"respawns"
                    )
    finally:
        if publication is not None:
            publication.close()
            publication.unlink()
    return outcomes


__all__ = [
    "TrialOutcome",
    "NRMSETable",
    "run_trials",
    "run_trials_prefix",
    "compare_algorithms",
]
