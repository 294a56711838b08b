"""Running repeated estimation trials and collecting NRMSE grids.

Entry points:

* :func:`run_trials` — one (algorithm, budget) cell: repeat the
  estimation over fresh API wrappers / random streams and summarise.
* :func:`run_trials_prefix` — every budget of one algorithm and one
  target pair off a single max-budget fleet.
* :func:`compare_algorithms` — a whole table: every algorithm × every
  budget, returning an :class:`NRMSETable` whose rows mirror Tables 4–17
  of the paper.

Tables and the frequency sweeps of Figures 1–2
(:func:`repro.experiments.sweeps.frequency_sweep`) are the same object,
an NRMSE grid of algorithms × columns, where a column is a target pair
at one budget (:class:`GridColumn`).  Both run through one driver,
:func:`run_grid`, which owns the input validation, the CSR freeze, the
journal, the prefix fleets and the remaining cells.

Two engines run the cells.  Sequential cells run the dict reference
engine, one fresh :class:`RestrictedGraphAPI` per repetition; it is the
accounting reference.  Everything vectorized runs the numpy walker
fleets of :class:`~repro.experiments.planner.PrefixFleet`.

The performance knobs, and how they interact:

* ``reuse="prefix"`` exploits that a budget-``b₁`` crawl from a given
  seed is a literal prefix of a budget-``b₂ > b₁`` crawl from the same
  seed, and that the walk is label-agnostic: one max-budget
  :class:`~repro.experiments.planner.PrefixFleet` per registry
  algorithm serves every column of the grid, each classified and
  estimated off trajectory/ledger prefixes — walking cost drops from
  O(Σ columns) to O(max budget).  Applies to the proposed algorithms
  *and* the EX-* baselines (whose prefixes keep the rejected-proposal
  probes in the ledgers).
* ``execution="fleet"`` runs *all repetitions of a cell at once* as one
  vectorized walker fleet: a fleet cell is a single-budget prefix fleet.
  It only matters for the cells ``reuse="prefix"`` leaves over — all
  cells under ``reuse="none"``, none of the registry cells under
  ``reuse="prefix"``.  Hand-written runner callables cannot vectorize
  and run the sequential loop either way.
* ``n_jobs > 1`` distributes the remaining cells across worker
  processes.  Per-cell seeds are derived with :func:`derive_seed`
  before submission, so the result is identical for any worker count
  and scheduling order.  ``graph_store`` controls how the graph reaches
  the workers: ``"ram"`` pickles it once per worker (the only option
  for dict graphs), while ``"shm"`` / ``"mmap"`` publish the CSR
  buffers once (shared-memory segment / memory-mapped sidecar) and ship
  an O(1) :class:`~repro.graph.store.CSRHandle` that workers reattach
  zero-copy — at the 10⁶-node rung the serialization this avoids dwarfs
  the cell work itself.  The store never touches any random stream, so
  results are bit-identical across all three stores.

One durability knob: ``journal=`` names an append-only JSONL WAL
(:class:`repro.durability.ExperimentJournal`) that records every
completed cell the moment it finishes, keyed by a suite fingerprint.
``resume=True`` replays the finished cells out of it and re-runs only
the missing ones — bit-identical to an uninterrupted run, because each
cell's and each fleet's seed is pre-derived.
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

from repro.core.pipeline import ProposedRunner
from repro.core.samplers.csr_backend import validate_execution, validate_reuse
from repro.exceptions import ConfigurationError, ExperimentError
from repro.graph.api import RestrictedGraphAPI
from repro.graph.csr import CSRGraph, csr_view, ensure_same_graph
from repro.graph.store import CSRHandle, attach_csr, publish_csr, validate_graph_store
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
    csr: Optional[CSRGraph] = None,
    execution: str = "sequential",
) -> TrialOutcome:
    """Repeat one estimation *repetitions* times and summarise.

    With ``execution="sequential"`` (default) every repetition runs the
    dict reference engine through a fresh :class:`RestrictedGraphAPI`
    (so API calls and caches do not leak across repetitions) with an
    independent random stream derived from *seed*.

    With ``execution="fleet"`` all *repetitions* run as **one**
    vectorized walker fleet over the CSR arrays (frozen here unless the
    caller passes *csr*, as :func:`compare_algorithms` does): the cell
    is a single-budget :class:`~repro.experiments.planner.PrefixFleet` (one
    walker per repetition, each with its own distinct-page ledger
    matching the fresh wrapper it stands for), so it equals
    :func:`run_trials_prefix` at ``[sample_size]`` bit for bit.  Fleet
    estimates are distributionally equivalent to sequential ones
    (enforced by the KS equivalence suite) but not bit-identical — the
    random streams are consumed walker-by-step instead of
    trial-by-trial.  Any :class:`ProposedRunner` vectorizes through the
    NS/NE fleet samplers with its own sampler kind and estimator, and
    any :class:`~repro.experiments.algorithms.BaselineRunner` (the EX-*
    rows) through the implicit line-graph fleet with its own ``alpha``
    / ``delta`` / line-max-degree knobs.  Only hand-written runner
    callables fall back to the sequential loop.

    Support matrix of the harness (``reuse`` lives on
    :func:`compare_algorithms` / ``frequency_sweep``; ``execution`` only
    matters for the cells that ``reuse`` leaves over):

    ========== ========== ============== =================================
    execution  reuse      representation behavior
    ========== ========== ============== =================================
    sequential none       dict           reference path, all runners
    sequential none       csr            **raises** ``ConfigurationError``
                                         (no dict graph to simulate the
                                         restricted API over)
    fleet      none       dict / csr     registry runners run
                                         single-budget prefix fleets;
                                         hand-written runners fall back
                                         to sequential (csr raises)
    either     prefix     dict / csr     one max-budget prefix fleet per
                                         registry runner for the whole
                                         grid; hand-written runners keep
                                         per-cell walks as under
                                         ``none`` (dict only)
    ========== ========== ============== =================================

    :class:`ExperimentConfig` enforces the same matrix eagerly for whole
    experiment runs.
    """
    check_positive_int(sample_size, "sample_size")
    check_positive_int(repetitions, "repetitions")
    validate_execution(execution)
    true_count = _true_count(graph, t1, t2, true_count)
    if execution == "fleet" and isinstance(runner, (ProposedRunner, BaselineRunner)):
        return run_trials_prefix(
            graph,
            t1,
            t2,
            runner,
            algorithm_name,
            [sample_size],
            repetitions,
            burn_in,
            seed=seed,
            true_count=true_count,
            csr=csr,
        )[0]
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
    for rng in spawn_rngs(seed, repetitions):
        api = RestrictedGraphAPI(graph)
        result = runner(api, t1, t2, sample_size, burn_in, rng)
        outcome.estimates.append(result.estimate)
        outcome.api_calls.append(api.api_calls)
    return outcome


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
    :class:`repro.experiments.planner.PrefixFleet`, which is shared
    with the :mod:`repro.service` micro-batcher; this function is a
    one-pair call into the grid driver's prefix helper (one pair, many
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
    """*columns* of one algorithm off one :class:`PrefixFleet`, in order.

    The fleet walks once to *max_budget*; the columns of each distinct
    target pair share one :meth:`PrefixFleet.estimate_many` call over
    that pair's budgets (one NeighborExploration ledger pass per pair).
    """
    fleet = PrefixFleet(csr, runner, spec, max_budget)
    by_pair: Dict[Tuple[Label, Label], List[int]] = {}
    for index, column in enumerate(columns):
        by_pair.setdefault((column.t1, column.t2), []).append(index)
    answers: Dict[int, Tuple[List[float], List[int]]] = {}
    for (t1, t2), indices in by_pair.items():
        budgets = [columns[index].sample_size for index in indices]
        answers.update(zip(indices, fleet.estimate_many(t1, t2, budgets)))
    return [
        TrialOutcome(spec.algorithm, column.sample_size, column.true_count, *answers[index])
        for index, column in enumerate(columns)
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
    graph_store: str,
    journal: Optional[Union[str, Path]],
    resume: bool,
    progress: Optional[Callable[[str, int, float], None]] = None,
) -> Dict[Tuple[str, int], TrialOutcome]:
    """Every (algorithm, column) cell of an NRMSE grid, keyed ``(name, key)``.

    The one driver behind :func:`compare_algorithms` (columns keyed by
    budget index) and :func:`repro.experiments.sweeps.frequency_sweep`
    (columns keyed by pair index).  In order it:

    1. validates the knobs (and ``resume`` without a journal) before
       any expensive work, then derives the burn-in if none was given;
    2. freezes the CSR arrays once for the whole grid;
    3. opens the journal, fingerprinted by *fingerprint* (the caller's
       ``kind`` and its own fields) plus the shared run parameters, and
       replays its finished cells under ``resume``;
    4. under ``reuse="prefix"`` walks one :class:`PrefixFleet` per
       registry algorithm at the grid's max budget, seeded
       ``fleet_seed(name)``, and reads every missing column off it;
    5. runs the remaining cells, seeded ``cell_seed(name, key)``,
       serially or through :func:`run_cells_parallel`.

    Every fresh cell is journaled and reported to *progress* as it
    finishes.  Seeds are pre-derived, so the result does not depend on
    worker count, scheduling, crashes or resumes.
    """
    check_positive_int(n_jobs, "n_jobs")
    check_positive_int(repetitions, "repetitions")
    validate_execution(execution)
    validate_reuse(reuse)
    validate_graph_store(graph_store)
    if resume and journal is None:
        raise ConfigurationError("resume=True needs a journal path to replay")
    if burn_in is None:
        burn_in = recommended_burn_in(graph, rng=seed)
    # Freeze the CSR arrays once for the whole grid, not once per cell.
    needs_csr = execution == "fleet" or reuse == "prefix"
    shared_csr = csr_view(graph) if needs_csr else None
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

    def finish(name: str, key: int, outcome: TrialOutcome) -> None:
        outcomes[(name, key)] = outcome
        if active_journal is not None:
            active_journal.append_cell(
                name,
                key,
                outcome.sample_size,
                outcome.true_count,
                outcome.estimates,
                outcome.api_calls,
            )
        if progress is not None:
            progress(name, outcome.sample_size, len(outcomes) / total_cells)

    prefix_names = [
        name
        for name in algorithms
        if reuse == "prefix"
        and isinstance(algorithms[name], (ProposedRunner, BaselineRunner))
    ]
    try:
        for name in prefix_names:
            missing = [key for key in columns if (name, key) not in outcomes]
            if not missing:
                continue  # every column of this fleet was replayed
            row = _prefix_outcomes(
                shared_csr,
                algorithms[name],
                FleetSpec(name, fleet_seed(name), repetitions, burn_in),
                max(column.sample_size for column in columns.values()),
                [columns[key] for key in missing],
            )
            for key, outcome in zip(missing, row):
                finish(name, key, outcome)

        cells = [
            CellTask(
                algorithm=name,
                column=key,
                sample_size=column.sample_size,
                seed=cell_seed(name, key),
                t1=column.t1,
                t2=column.t2,
                repetitions=repetitions,
                burn_in=burn_in,
                true_count=column.true_count,
                execution=execution,
            )
            for name in algorithms
            if name not in prefix_names
            for key, column in columns.items()
            if (name, key) not in outcomes
        ]
        if cells and n_jobs > 1:
            run_cells_parallel(
                graph, algorithms, cells, n_jobs, None,
                graph_store=graph_store,
                on_cell=lambda cell, outcome: finish(cell.algorithm, cell.column, outcome),
            )
        else:
            for cell in cells:
                finish(
                    cell.algorithm,
                    cell.column,
                    run_cell(graph, algorithms[cell.algorithm], cell, shared_csr),
                )
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
    graph_store: str = "ram",
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
        reference engine) or ``"fleet"`` (all
        repetitions of a cell as one single-budget prefix fleet; see
        :func:`run_trials`).  Only matters with ``reuse="none"``: under
        ``reuse="prefix"`` every registry cell comes off the prefix
        fleets and hand-written runners run sequentially either way.
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
        suite (fingerprint mismatch), and :class:`ConfigurationError`
        without a *journal*.
    """
    sample_sizes = grid_budgets(graph, sample_fractions)
    true_count = _true_count(graph, t1, t2, None)
    if algorithms is None:
        if isinstance(graph, CSRGraph) and execution != "fleet" and reuse != "prefix":
            # Without a vectorized execution mode a CSR-native run has
            # no engine for the baselines' line-graph walks.
            algorithms = build_algorithm_suite(include_baselines=False)
        else:
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
        graph_store=graph_store,
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
# cell-level process parallelism
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellTask:
    """Everything one worker needs to run one (algorithm, budget) cell.

    Only scalars and labels — the graph and the suite live in per-worker
    globals (:func:`_init_cell_worker`), so submitting a task ships a
    few bytes, not the adjacency.  Harness plumbing: :func:`run_grid`
    builds its cells with it (deliberately not in ``__all__`` — it is
    not part of the user-facing API).
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
    execution: str


def run_cell(
    graph: LabeledGraph,
    runner: AlgorithmRunner,
    cell: CellTask,
    csr: Optional[CSRGraph],
) -> TrialOutcome:
    """Run one :class:`CellTask` through :func:`run_trials`.

    The single unpacking of a cell into a trial run, shared by the
    grid driver's serial loop and the process-pool workers.
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
    needs_csr = any(cell.execution == "fleet" for cell in cells)
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
