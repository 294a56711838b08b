"""Running repeated estimation trials and collecting NRMSE grids.

Entry points:

* :func:`run_trials` — one (algorithm, budget) cell on the dict
  reference engine: repeat the estimation over fresh API wrappers and
  random streams, and summarise.
* :func:`run_trials_prefix` — every budget of one algorithm and one
  target pair off a single max-budget walker fleet; at one budget it is
  the vectorized twin of :func:`run_trials`.
* :func:`compare_algorithms` — a whole table: every algorithm × every
  budget, returning an :class:`NRMSETable` whose rows mirror Tables 4–17
  of the paper.

Tables and the frequency sweeps of Figures 1–2
(:func:`repro.experiments.sweeps.frequency_sweep`) are the same object,
an NRMSE grid of algorithms × columns, where a column is a target pair
at one budget (:class:`GridColumn`).  Both run through one driver,
:func:`run_grid`, which owns the input validation, the journal and one
list of :class:`GridJob` s, each run by :func:`run_job`.

A job is one algorithm's walk over some columns, of one of two kinds.
A *reference* job runs one column on the dict reference engine
(:func:`run_trials`, one fresh :class:`RestrictedGraphAPI` per
repetition); it is the accounting reference.  A *fleet* job walks one
numpy walker fleet and reads its columns off trajectory prefixes, as
one plan of :meth:`~repro.experiments.planner.PrefixFleet.answer_plans`
(the walk-and-answer path the service shares).  The knobs pick the kind:

* ``reuse="prefix"`` gives each registry algorithm **one** fleet job
  at the grid's max budget covering every column.  A budget-``b₁``
  crawl from a given seed is a literal prefix of a budget-``b₂ > b₁``
  crawl from the same seed, and the walk is label-agnostic, so walking
  cost drops from O(Σ columns) to O(max budget).  This covers the
  proposed algorithms *and* the EX-* baselines (whose prefixes keep the
  rejected-proposal probes in the ledgers).
* ``execution="fleet"`` with ``reuse="none"`` gives each registry
  algorithm one single-budget fleet job per column: all repetitions of
  a cell walk at once as one vectorized fleet.
* Everything else — ``execution="sequential", reuse="none"``, and
  hand-written runner callables under any knobs — runs reference jobs.

``n_jobs == 1`` runs the jobs in the parent; ``n_jobs > 1`` runs them in
a process pool (:func:`run_jobs_parallel`).  Every job's seed is derived
with :func:`derive_seed` before submission, so the result is identical
for any worker count and scheduling order.  The graph decides how it
reaches the workers: a dict graph is pickled once per worker, and a
:class:`CSRGraph` — a dict graph's frozen CSR view too, which is what
ships when every job is a fleet job — is published into a fresh
shared-memory segment whose O(1)
:class:`~repro.graph.store.CSRHandle` workers reattach zero-copy.
The transport never touches a random stream.

One durability knob: ``journal=`` names an append-only JSONL WAL
(:class:`repro.durability.ExperimentJournal`) that records every
completed cell the moment its job finishes, keyed by a suite
fingerprint.  ``resume=True`` replays the finished cells out of it and
builds jobs for the missing ones only — bit-identical to an
uninterrupted run, because each job's seed is pre-derived.
"""

from __future__ import annotations

import math
import pickle
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.durability import ExperimentJournal, suite_fingerprint

from repro.core.pipeline import ProposedRunner
from repro.core.samplers.csr_backend import validate_execution, validate_reuse
from repro.exceptions import ConfigurationError, ExperimentError
from repro.graph.api import RestrictedGraphAPI
from repro.graph.csr import CSRGraph, csr_view, ensure_same_graph
from repro.graph.store import CSRHandle, attach_csr, publish_csr
from repro.graph.labeled_graph import Label, LabeledGraph
from repro.graph.statistics import count_target_edges
from repro.resilience.faults import fire
from repro.resilience.retry import Retry
from repro.utils.rng import RandomSource, derive_seed, spawn_rngs
from repro.utils.validation import check_fraction, check_positive_int
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
) -> TrialOutcome:
    """Repeat one estimation *repetitions* times on the dict reference engine.

    Every repetition runs through a fresh :class:`RestrictedGraphAPI`
    (so API calls and caches do not leak across repetitions) with an
    independent random stream derived from *seed*.  Any runner works,
    hand-written callables included.

    This is the accounting reference.  The vectorized engine is
    :func:`run_trials_prefix`: ``run_trials_prefix(..., [sample_size],
    ...)[0]`` runs the same cell as one walker fleet.  Its estimates are
    distributionally equivalent (enforced by the KS equivalence suite)
    but not bit-identical — the random streams are consumed
    walker-by-step instead of trial-by-trial.  A :class:`CSRGraph` has
    no dict graph to simulate the restricted API over and raises
    :class:`ConfigurationError`.
    """
    check_positive_int(sample_size, "sample_size")
    check_positive_int(repetitions, "repetitions")
    _require_dict_graph(graph)
    true_count = _true_count(graph, t1, t2, true_count)
    outcome = TrialOutcome(
        algorithm=algorithm_name, sample_size=sample_size, true_count=true_count
    )
    for rng in spawn_rngs(seed, repetitions):
        api = RestrictedGraphAPI(graph)
        result = runner(api, t1, t2, sample_size, burn_in, rng)
        outcome.estimates.append(result.estimate)
        outcome.api_calls.append(api.api_calls)
    return outcome


def _require_dict_graph(graph: LabeledGraph) -> None:
    """Raise unless *graph* can run the dict reference engine."""
    if isinstance(graph, CSRGraph):
        raise ConfigurationError(
            "the reference engine simulates the restricted API over the dict "
            "graph; pass graph.to_labeled_graph() (or a dict-representation "
            "dataset), or run registry algorithms with execution='fleet' or "
            "reuse='prefix'"
        )


def _true_count(graph: LabeledGraph, t1: Label, t2: Label, true_count: Optional[int]) -> int:
    """The ground truth *F* of the pair (counted when not given); must be positive."""
    if true_count is None:
        true_count = count_target_edges(graph, t1, t2)
    if true_count <= 0:
        raise ExperimentError(
            f"the target pair ({t1!r}, {t2!r}) has no target edges; NRMSE is undefined"
        )
    return true_count


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
    :meth:`repro.experiments.planner.PrefixFleet.answer_plans`, which is
    shared with the :mod:`repro.service` micro-batcher; this function is
    a one-pair call into the grid driver's prefix helper (one pair, many
    budgets, :class:`TrialOutcome` rows).
    """
    if not sample_sizes:
        raise ConfigurationError("sample_sizes must not be empty")
    for sample_size in sample_sizes:
        check_positive_int(sample_size, "sample_size")
    true_count = _true_count(graph, t1, t2, true_count)
    shared_csr = ensure_same_graph(csr, graph) if csr is not None else csr_view(graph)
    return _prefix_outcomes(
        shared_csr,
        runner,
        FleetSpec(algorithm_name, seed, repetitions, burn_in),
        max(sample_sizes),
        [GridColumn(t1, t2, sample_size, true_count) for sample_size in sample_sizes],
    )


# ----------------------------------------------------------------------
# the NRMSE grid: tables and frequency sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridColumn:
    """One column of an NRMSE grid: a target pair at one budget.

    A table's columns are the budgets of one pair; a frequency sweep's
    columns are target pairs at one budget.
    """

    t1: Label
    t2: Label
    sample_size: int
    true_count: int


def grid_budgets(graph: LabeledGraph, fractions: Sequence[float]) -> List[int]:
    """Budgets as fractions of ``|V|`` → sample sizes (at least 1 each).

    The one validation of a grid's budgets: an empty list, or any
    fraction outside (0, 1], raises :class:`ConfigurationError`.
    """
    if not fractions:
        raise ConfigurationError("sample_fractions must not be empty")
    return [
        max(1, math.ceil(check_fraction(fraction, "sample fraction") * graph.num_nodes))
        for fraction in fractions
    ]


def _prefix_outcomes(
    csr: CSRGraph,
    runner: AlgorithmRunner,
    spec: FleetSpec,
    max_budget: int,
    columns: Sequence[GridColumn],
) -> List[TrialOutcome]:
    """*columns* of one algorithm, in order, off one
    :meth:`PrefixFleet.answer_plans` plan walked to *max_budget*."""
    asks = [(column.t1, column.t2, column.sample_size) for column in columns]
    ((_, answers),) = PrefixFleet.answer_plans(
        csr, {spec.algorithm: runner}, [(spec, max_budget, asks)]
    )
    if isinstance(answers, Exception):
        raise answers
    return [
        TrialOutcome(spec.algorithm, column.sample_size, column.true_count, *answer)
        for column, answer in zip(columns, answers)
    ]


@dataclass(frozen=True)
class GridJob:
    """One unit of grid work: one algorithm's walk over some columns.

    A *fleet* job walks one :class:`PrefixFleet` to *max_budget* and
    reads every column off it; a *reference* job has one column and
    runs :func:`run_trials`.  Only scalars and labels — the graph and
    the suite live in per-worker globals (:func:`_init_job_worker`), so
    submitting a job ships a few bytes, not the adjacency.  *keys* name
    the columns in the grid (:func:`run_grid`'s column keys).
    """

    algorithm: str
    seed: int
    keys: Tuple[int, ...]
    columns: Tuple[GridColumn, ...]
    max_budget: int
    repetitions: int
    burn_in: int
    fleet: bool


def run_job(graph: LabeledGraph, runner: AlgorithmRunner, job: GridJob) -> List[TrialOutcome]:
    """Run one :class:`GridJob`; one :class:`TrialOutcome` per column, in order.

    The one executor of grid work, shared by the parent (``n_jobs=1``)
    and the pool workers.  A fleet job freezes (or reuses) the graph's
    CSR view, which :func:`csr_view` caches, so a grid freezes once.
    """
    if job.fleet:
        spec = FleetSpec(job.algorithm, job.seed, job.repetitions, job.burn_in)
        return _prefix_outcomes(csr_view(graph), runner, spec, job.max_budget, job.columns)
    (column,) = job.columns
    return [
        run_trials(
            graph,
            column.t1,
            column.t2,
            runner,
            job.algorithm,
            column.sample_size,
            job.repetitions,
            job.burn_in,
            seed=job.seed,
            true_count=column.true_count,
        )
    ]


def run_grid(
    graph: LabeledGraph,
    algorithms: Mapping[str, AlgorithmRunner],
    columns: Mapping[int, GridColumn],
    repetitions: int,
    burn_in: Optional[int],
    seed: RandomSource,
    *,
    cell_seed: Callable[[str, int], int],
    fleet_seed: Callable[[str], int],
    fingerprint: Mapping[str, object],
    execution: str,
    n_jobs: int,
    reuse: str,
    journal: Optional[Union[str, Path]],
    resume: bool,
    progress: Optional[Callable[[str, int, float], None]] = None,
) -> Dict[Tuple[str, int], TrialOutcome]:
    """Every (algorithm, column) cell of an NRMSE grid, keyed ``(name, key)``.

    The one driver behind :func:`compare_algorithms` (columns keyed by
    budget index) and :func:`repro.experiments.sweeps.frequency_sweep`
    (columns keyed by pair index).  In order it:

    1. validates the knobs (and ``resume`` without a journal), and
       refuses a :class:`CSRGraph` when any algorithm would run
       reference jobs — all before any expensive work; then derives the
       burn-in if none was given;
    2. opens the journal, fingerprinted by *fingerprint* (the caller's
       ``kind`` and its own fields) plus the shared run parameters, and
       replays its finished cells under ``resume``;
    3. builds one :class:`GridJob` list for the missing cells — under
       ``reuse="prefix"`` one fleet job per registry algorithm at the
       grid's max budget, seeded ``fleet_seed(name)``; otherwise one job
       per cell, seeded ``cell_seed(name, key)``, a fleet job for a
       registry algorithm under ``execution="fleet"`` and a reference
       job for everything else;
    4. runs the jobs with :func:`run_job`, in the parent when
       ``n_jobs == 1`` and through :func:`run_jobs_parallel` otherwise
       (handing it a dict graph's CSR view when no job needs the dict).

    Every fresh cell is journaled and reported to *progress* as its job
    finishes.  Seeds are pre-derived, so the result does not depend on
    worker count, scheduling, crashes or resumes.
    """
    check_positive_int(n_jobs, "n_jobs")
    check_positive_int(repetitions, "repetitions")
    validate_execution(execution)
    validate_reuse(reuse)
    if resume and journal is None:
        raise ConfigurationError("resume=True needs a journal path to replay")
    vectorized = execution == "fleet" or reuse == "prefix"
    fleet_names = {
        name
        for name, runner in algorithms.items()
        if vectorized and isinstance(runner, (ProposedRunner, BaselineRunner))
    }
    if len(fleet_names) < len(algorithms):
        _require_dict_graph(graph)
    if burn_in is None:
        burn_in = recommended_burn_in(graph, rng=seed)
    total_cells = len(algorithms) * len(columns)
    outcomes: Dict[Tuple[str, int], TrialOutcome] = {}
    active_journal: Optional[ExperimentJournal] = None
    if journal is not None:
        # The fingerprint covers the graph content and every parameter
        # that shapes a cell, so a journal can never replay into a run
        # it does not belong to.  The ``backend`` entry is the default
        # of a knob the harness no longer has; it stays so that journals
        # written before the knob went keep their fingerprints.
        active_journal = ExperimentJournal(
            journal,
            suite_fingerprint(
                graph,
                **fingerprint,
                repetitions=repetitions,
                seed=seed,
                burn_in=burn_in,
                backend="python",
                execution=execution,
                reuse=reuse,
                algorithms=list(algorithms),
            ),
            resume=resume,
        )
        for (name, key), record in active_journal.completed_cells().items():
            if name in algorithms and isinstance(key, int) and key in columns:
                outcomes[(name, key)] = _outcome_from_record(record)

    max_budget = max((column.sample_size for column in columns.values()), default=0)
    jobs: List[GridJob] = []
    for name in algorithms:
        missing = [key for key in columns if (name, key) not in outcomes]
        if not missing:
            continue  # every cell of this algorithm was replayed
        if name in fleet_names and reuse == "prefix":
            jobs.append(
                GridJob(
                    name, fleet_seed(name), tuple(missing),
                    tuple(columns[key] for key in missing),
                    max_budget, repetitions, burn_in, fleet=True,
                )
            )
            continue
        for key in missing:
            column = columns[key]
            jobs.append(
                GridJob(
                    name, cell_seed(name, key), (key,), (column,),
                    column.sample_size, repetitions, burn_in, fleet=name in fleet_names,
                )
            )

    def finish(job: GridJob, row: Sequence[TrialOutcome]) -> None:
        for key, outcome in zip(job.keys, row):
            outcomes[(job.algorithm, key)] = outcome
            if active_journal is not None:
                active_journal.append_cell(
                    job.algorithm,
                    key,
                    outcome.sample_size,
                    outcome.true_count,
                    outcome.estimates,
                    outcome.api_calls,
                )
            if progress is not None:
                progress(job.algorithm, outcome.sample_size, len(outcomes) / total_cells)

    try:
        if n_jobs > 1 and jobs:
            # Fleet jobs read only the CSR view: freeze a dict graph once, here.
            shipped = csr_view(graph) if all(job.fleet for job in jobs) else graph
            run_jobs_parallel(shipped, algorithms, jobs, n_jobs, finish)
        else:
            for job in jobs:
                finish(job, run_job(graph, algorithms[job.algorithm], job))
        if active_journal is not None:
            active_journal.commit(total_cells)
    finally:
        # On failure the journal stays uncommitted — that *is* the
        # resume state a crashed run leaves behind.
        if active_journal is not None:
            active_journal.close()
    return outcomes


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
    execution: str = "sequential",
    n_jobs: int = 1,
    reuse: str = "none",
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> NRMSETable:
    """Reproduce one NRMSE table: every algorithm at every budget.

    The table is an NRMSE grid whose columns are the budgets of one
    target pair; :func:`run_grid` runs it.

    Parameters
    ----------
    graph:
        The labeled graph (full access is needed for the ground truth
        and, if *burn_in* is omitted, the mixing-time-based burn-in).
        A :class:`CSRGraph` needs every algorithm to run fleet jobs
        (registry runners with ``execution="fleet"`` or
        ``reuse="prefix"``); otherwise :class:`ConfigurationError` is
        raised before the burn-in and before the journal opens.
    t1, t2:
        The target-label pair of the table.
    sample_fractions:
        Budgets as fractions of ``|V|`` (the paper: 0.5%–5%); must be
        non-empty, each in (0, 1].
    repetitions:
        Independent simulations per cell (the paper: 200).
    algorithms:
        Mapping name -> runner; defaults to the full ten-algorithm suite.
    burn_in:
        Walk burn-in; derived from the graph's mixing time when omitted.
    seed:
        Master seed; cells get deterministic derived streams
        (``derive_seed(seed, name, column)`` per cell,
        ``derive_seed(seed, name, "prefix")`` per prefix fleet).
    progress:
        Optional callback ``(algorithm, sample_size, fraction_done)``.
    execution:
        ``"sequential"`` (one repetition at a time, on the dict
        reference engine) or ``"fleet"`` (all repetitions of a cell as
        one single-budget walker fleet, as
        ``run_trials_prefix(..., [k], ...)[0]``).  Only matters with
        ``reuse="none"``: under ``reuse="prefix"`` every registry cell
        comes off the prefix fleets and hand-written runners run
        sequentially either way.
    n_jobs:
        Number of worker processes for the grid's jobs — prefix fleets,
        fleet cells and reference cells alike.  Every job's seed is
        derived with :func:`derive_seed` *before* submission, so the
        table is identical for any worker count and scheduling order.
        ``n_jobs > 1`` ships the actual runner objects to the workers,
        so it requires picklable runners — registry suites (tuned or
        not) qualify; hand-written closures do not and must run with
        ``n_jobs=1`` (a clear :class:`ConfigurationError` is raised
        otherwise).  A :class:`CSRGraph` in RAM is published to shared
        memory for the workers, which seals its buffers read-only.
    reuse:
        ``"none"`` (default) walks every cell fresh; ``"prefix"`` runs
        one max-budget fleet per registry algorithm — proposed and
        EX-* alike — and reads all smaller budget columns off
        trajectory prefixes (:func:`run_trials_prefix`) — O(max
        budget) walking for the whole row.  Hand-written runners keep
        fresh per-cell walks either way.
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
        suite (fingerprint mismatch), and :class:`ConfigurationError`
        without a *journal*.
    """
    sample_sizes = grid_budgets(graph, sample_fractions)
    true_count = _true_count(graph, t1, t2, None)
    if algorithms is None:
        algorithms = build_algorithm_suite(graph)
    outcomes = run_grid(
        graph,
        algorithms,
        {
            column: GridColumn(t1, t2, sample_size, true_count)
            for column, sample_size in enumerate(sample_sizes)
        },
        repetitions,
        burn_in,
        seed,
        cell_seed=lambda name, column: derive_seed(seed, name, column),
        fleet_seed=lambda name: _derive_group_seed(seed, name),
        fingerprint=dict(
            kind="nrmse-table",
            dataset=dataset_name,
            target_pair=[t1, t2],
            sample_sizes=sample_sizes,
        ),
        execution=execution,
        n_jobs=n_jobs,
        reuse=reuse,
        journal=journal,
        resume=resume,
        progress=progress,
    )
    table = NRMSETable(
        dataset=dataset_name,
        target_pair=(t1, t2),
        true_count=true_count,
        sample_sizes=sample_sizes,
        sample_fractions=list(sample_fractions),
    )
    for name in algorithms:
        table.cells[name] = [outcomes[(name, column)] for column in range(len(sample_sizes))]
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


def _derive_group_seed(seed: RandomSource, algorithm: str) -> int:
    """Deterministic seed for one algorithm's whole prefix-reuse fleet."""
    return derive_seed(seed, algorithm, "prefix")


# ----------------------------------------------------------------------
# job-level process parallelism
# ----------------------------------------------------------------------
#: Per-worker state: the shared graph and the suite.
_WORKER_STATE: Dict[str, object] = {}


def _init_job_worker(graph_ref: Union[LabeledGraph, CSRHandle], suite_blob: bytes) -> None:
    """Materialise the per-worker state from what the parent shipped.

    *graph_ref* is either a dict graph (one pickle per worker) or an
    O(1) :class:`CSRHandle` that reattaches the published buffers
    zero-copy; classification derives its masks and ``T(u)`` from them
    per job, so there is no label state to carry.  *suite_blob* is the
    suite pickled **once** in the parent — the same bytes serve both
    the eager picklability check and the transfer, so the suite is
    never serialized twice.
    """
    if isinstance(graph_ref, CSRHandle):
        # Attach with backoff: StoreAttachError is retryable, and an
        # injected store.attach fault clears within a retry or two.
        handle = graph_ref
        graph_ref = Retry(attempts=3, base_seconds=0.05).call(
            lambda: attach_csr(handle), describe="worker store attach"
        )
    _WORKER_STATE["graph"] = graph_ref
    _WORKER_STATE["suite"] = pickle.loads(suite_blob)


def _run_job_in_worker(job: GridJob) -> List[TrialOutcome]:
    fire("worker.cell", algorithm=job.algorithm, columns=job.keys)
    suite: Mapping[str, AlgorithmRunner] = _WORKER_STATE["suite"]  # type: ignore[assignment]
    return run_job(_WORKER_STATE["graph"], suite[job.algorithm], job)  # type: ignore[arg-type]


def run_jobs_parallel(
    graph: LabeledGraph,
    algorithms: Mapping[str, AlgorithmRunner],
    jobs: Sequence[GridJob],
    n_jobs: int,
    on_job: Callable[[GridJob, List[TrialOutcome]], None],
    max_pool_respawns: int = 2,
) -> None:
    """Run grid jobs across a process pool, handing each result to *on_job*.

    The workers receive the graph and the *actual* suite — runner
    objects, tuning knobs included — through the pool initializer (one
    transfer per worker, not per job), so a tuned suite behaves
    identically at any worker count.  Because every job carries its own
    pre-derived seed, scheduling order cannot change any result, only
    the completion order.  The suite is pickled exactly once: the
    resulting bytes double as the eager picklability check (hand-written
    closure runners fail with a clear error on every platform — under
    ``fork`` they would silently work, under ``spawn`` they would crash
    mid-pool) and as the per-worker transfer payload.

    The graph picks its own transport.  A dict graph is pickled into
    each worker.  A :class:`CSRGraph` is published once into a fresh
    shared-memory segment (its defining buffers only), and workers
    reattach its O(1) handle zero-copy; publishing seals the caller's
    buffers read-only.  Node ids or label values that no flat buffer
    holds exactly raise :class:`ConfigurationError` before any worker
    starts.
    Handles win at scale: at the 10⁶-node rung, a 4-worker spawn pool
    fed by-value pickles ran a fleet table about 3× slower than one fed
    handles (the store bench in ``benchmarks/results/BENCH_scale.json``).
    The published segment is released in a ``finally`` block, so a
    worker crash or a raising job cannot leak it.

    A **killed worker** (OOM reaper, SIGKILL, a segfaulting kernel)
    breaks the whole :class:`ProcessPoolExecutor`.  The break is
    contained: results that completed before the crash are kept, the
    pool is respawned, and only the still-missing jobs are resubmitted
    — at most *max_pool_respawns* times before giving up with
    :class:`ExperimentError`.  A job re-run after a crash produces
    bit-identical results (its seed is pre-derived), so recovery cannot
    change the table.  Exceptions *raised by* a job (as opposed to a
    dead worker) still propagate immediately; they are deterministic and
    a retry would just repeat them.

    *on_job* is invoked **in the parent** as each job's result is
    retained (the experiment-journal hook): it sees every completed job
    exactly once, including jobs that finished before a pool break, and
    never sees a job that died with its worker.
    """
    try:
        suite_blob = pickle.dumps(dict(algorithms))
    except Exception as error:
        raise ConfigurationError(
            "n_jobs > 1 ships the algorithm suite to worker processes, which "
            f"requires picklable runners ({error}); run custom closure-based "
            "suites with n_jobs=1"
        ) from error
    publication = None
    graph_ref: Union[LabeledGraph, CSRHandle] = graph
    if isinstance(graph, CSRGraph):
        publication = publish_csr(graph)
        graph_ref = publication.handle
    done: Set[int] = set()
    respawns = 0
    try:
        while len(done) < len(jobs):
            pool_broken = False
            with ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_init_job_worker,
                initargs=(graph_ref, suite_blob),
            ) as pool:
                futures: Dict[Future, int] = {}
                try:
                    for index, job in enumerate(jobs):
                        if index not in done:
                            futures[pool.submit(_run_job_in_worker, job)] = index
                except BrokenProcessPool:
                    # A worker died before the last job was submitted:
                    # the pool is broken, so drain what it took and
                    # respawn for the rest.
                    pool_broken = True
                for future in as_completed(futures):
                    try:
                        row = future.result()
                    except BrokenProcessPool:
                        # A worker died (kill/OOM/segfault); every pending
                        # future fails this way.  Keep draining so jobs
                        # that finished *before* the break are retained.
                        pool_broken = True
                        continue
                    index = futures[future]
                    done.add(index)
                    on_job(jobs[index], row)
            if pool_broken:
                respawns += 1
                if respawns > max_pool_respawns:
                    raise ExperimentError(
                        f"worker pool broke {respawns} times running the "
                        f"grid ({len(jobs) - len(done)} of {len(jobs)} jobs "
                        f"still missing); giving up after {max_pool_respawns} "
                        f"respawns"
                    )
    finally:
        if publication is not None:
            publication.close()
            publication.unlink()


__all__ = [
    "TrialOutcome",
    "NRMSETable",
    "run_trials",
    "run_trials_prefix",
    "compare_algorithms",
]
