"""Prefix-fleet planning: one max-budget fleet answers many queries.

The prefix-reuse engine (PR 3) established the load-bearing exactness
property this module packages: a budget-``b`` crawl from a given seed
*is* the first ``b`` collected steps of a longer crawl from the same
seed, for the NS/NE walker fleets **and** the EX-* implicit line-graph
fleets alike.  Classification is the only label-dependent step, so one
fleet also answers *every* target pair.  :class:`PrefixFleet` is the
one fleet dispatcher, and :meth:`PrefixFleet.answer_plans` the one
walk-and-answer path over it: the harness's grid driver
(:func:`repro.experiments.runner.run_grid`, behind tables and frequency
sweeps, for prefix fleets and single-budget fleet cells alike),
:func:`repro.experiments.runner.run_trials_prefix` and the :mod:`repro.service`
micro-batcher, which coalesces concurrent (pair, budget) queries from
many clients, all walk through it.

The exactness contract callers rely on:

* :meth:`PrefixFleet.estimate` at budget ``b`` is **bit-identical** to
  building a fresh fleet of exactly ``b`` steps from the same
  :class:`FleetSpec` and estimating off that (pinned by
  ``tests/service/test_planner.py``), because the fleet engines consume
  their random streams step-by-step across all walkers;
* two queries differing only in target pair and/or budget are served
  from the *same* walk, so coalescing them changes no estimate;
* :meth:`PrefixFleet.estimate_many` at several budgets equals one
  :meth:`PrefixFleet.estimate` per budget, bit for bit; it only shares
  the work.  It classifies the fleet against the pair **once**, at the
  largest requested budget — target flags, stationary weights, and the
  NeighborExploration label, ``T(u)`` and degree gathers — and
  answers each budget with a column slice ``[:, :b]`` of that batch
  (:meth:`~repro.core.samplers.base.EdgeSampleBatch.prefix`).  The
  per-walker charged calls of every budget come from one ledger pass
  (:class:`~repro.core.samplers.csr_backend.PrefixLedger`), for node,
  NeighborExploration and line fleets alike.  The held classification
  lives only for that one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.baselines.fleet import (
    classify_line_fleet,
    reweighted_estimates,
    run_baseline_fleet,
)
from repro.core.pipeline import ProposedRunner
from repro.core.samplers.csr_backend import (
    PrefixLedger,
    classify_edge_fleet,
    classify_node_fleet,
)
from repro.exceptions import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label
from repro.utils.rng import RandomSource, ensure_numpy_rng
from repro.utils.validation import check_positive_int
from repro.walks.batched import BatchedWalkEngine

from repro.experiments.algorithms import AlgorithmRunner, BaselineRunner

#: One budget's answer: per-repetition estimates and charged-call ledgers.
Answer = Tuple[List[float], List[int]]


@dataclass(frozen=True)
class FleetSpec:
    """Everything that pins one fleet's walk bit-for-bit.

    Two queries can share a fleet exactly when their specs are equal:
    the *seed* fixes the random streams, *repetitions* the walker count,
    *burn_in* the discarded prefix, and *algorithm* selects the runner
    (NS/NE walker fleet vs EX-* line-graph fleet and, downstream, the
    estimator).  Target pair and budget are deliberately **not** here —
    they are classification-time parameters served off prefixes.
    """

    algorithm: str
    seed: RandomSource
    repetitions: int
    burn_in: int

    def steps(self, budget: int) -> int:
        """Transitions a fleet of this spec walks to *budget*, burn-in included."""
        return self.repetitions * (self.burn_in + budget)


class PrefixFleet:
    """One max-budget walker fleet, answering any (pair, budget ≤ max).

    Wraps the two vectorized fleet families behind one query surface:

    * :class:`~repro.core.pipeline.ProposedRunner` → one NS/NE
      simple-random-walk fleet
      (:class:`~repro.walks.batched.BatchedWalkEngine`); the runner's
      own sampler kind selects edge- vs node-classification and its
      estimator factory the batch estimator.
    * :class:`~repro.experiments.algorithms.BaselineRunner` (EX-*) →
      one implicit line-graph fleet (:func:`run_baseline_fleet`) with
      the wrapped baseline's ``alpha`` / ``delta`` / line-max-degree
      knobs; prefixes keep the rejected-proposal probes in the
      per-trial ledgers.

    Hand-written runner callables cannot vectorize and raise
    :class:`ConfigurationError`, exactly like the historical inline
    check in ``run_trials_prefix``.
    """

    def __init__(
        self,
        csr: CSRGraph,
        runner: AlgorithmRunner,
        spec: FleetSpec,
        max_budget: int,
    ) -> None:
        if not isinstance(runner, (ProposedRunner, BaselineRunner)):
            raise ConfigurationError(
                f"prefix reuse needs a vectorizable registry runner "
                f"(ProposedRunner or BaselineRunner); {spec.algorithm!r} is "
                "not one — run it with reuse='none'"
            )
        check_positive_int(max_budget, "max_budget")
        check_positive_int(spec.repetitions, "repetitions")
        self.csr = csr
        self.runner = runner
        self.spec = spec
        self.max_budget = int(max_budget)
        #: The pair's ledger, and its max-budget batch once classified,
        #: while estimate_many runs.
        self._ledger: Optional[PrefixLedger] = None
        self._batch = None
        rng = ensure_numpy_rng(spec.seed)
        if isinstance(runner, BaselineRunner):
            self._fleet = run_baseline_fleet(
                csr,
                runner.baseline,
                self.max_budget,
                spec.repetitions,
                burn_in=spec.burn_in,
                rng=rng,
            )
        else:
            self._fleet = BatchedWalkEngine(csr, rng).run_fleet(
                spec.repetitions, self.max_budget, spec.burn_in
            )

    @classmethod
    def answer_plans(
        cls,
        csr: CSRGraph,
        suite: Mapping[str, AlgorithmRunner],
        plans: Iterable[Tuple[FleetSpec, int, Sequence[Tuple[Label, Label, int]]]],
    ) -> Iterator[Tuple[FleetSpec, Union[List[Answer], Exception]]]:
        """Walk each ``(spec, max_budget, asks)`` plan once and answer it.

        Per plan, in order: build ``cls(csr, suite[spec.algorithm], spec,
        max_budget)`` (``cls``, so a subclass bound to a caller's
        ``PrefixFleet`` name sees every walk), answer its ``(t1, t2,
        budget)`` asks with one :meth:`estimate_many` call per distinct
        pair, and yield ``(spec, answers)`` (one per ask, in order) or
        ``(spec, exception)`` if walking or answering raised.  The fleet
        is dropped before the next plan is read: one fleet is alive at a
        time, and a lazy *plans* lets the caller act between walks.
        """
        for spec, max_budget, asks in plans:
            try:
                fleet = cls(csr, suite[spec.algorithm], spec, max_budget)
                by_pair: Dict[Tuple[Label, Label], Dict[int, int]] = {}
                for index, (t1, t2, budget) in enumerate(asks):
                    by_pair.setdefault((t1, t2), {})[index] = budget
                answers: Dict[int, Answer] = {}
                for (t1, t2), budgets in by_pair.items():
                    pair_answers = fleet.estimate_many(t1, t2, list(budgets.values()))
                    answers.update(zip(budgets, pair_answers))
                result = [answers[index] for index in range(len(asks))]
            except Exception as exc:
                result = exc
            fleet = None  # one fleet alive at a time: drop it before the next walk
            yield spec, result

    @property
    def steps_walked(self) -> int:
        """Total transitions this fleet advanced (burn-in included)."""
        return self.spec.steps(self.max_budget)

    def _check_budget(self, budget: int) -> int:
        check_positive_int(budget, "budget")
        if budget > self.max_budget:
            raise ConfigurationError(
                f"budget {budget} exceeds this fleet's max budget "
                f"{self.max_budget}"
            )
        return int(budget)

    def _classify(self, t1, t2, prefix, ledger: Optional[PrefixLedger] = None):
        """*prefix* classified against the pair by the runner's fleet kind."""
        if isinstance(self.runner, BaselineRunner):
            return classify_line_fleet(self.csr, prefix, t1, t2, ledger=ledger)
        if self.runner.sampler == "edge":
            return classify_edge_fleet(self.csr, prefix, t1, t2, ledger=ledger)
        return classify_node_fleet(self.csr, prefix, t1, t2, ledger=ledger)

    def estimate(self, t1, t2, budget: int) -> Answer:
        """Per-repetition estimates and charged-call ledgers at *budget*.

        Classifies the fleet's first *budget* collected steps against
        the (*t1*, *t2*) label masks and pushes them through the
        runner's batch estimator.  Bit-identical to a fresh fleet of
        exactly *budget* steps from the same spec; the per-walker
        ledgers cover the truncated trajectories (rejection probes
        included), so the charged-call accounting matches a crawl
        stopped at exactly that budget.  Inside :meth:`estimate_many`
        the batch is instead a column slice of the pair's held
        max-budget classification, charged off its one-pass
        :class:`PrefixLedger`.
        """
        budget = self._check_budget(budget)
        prefix = self._fleet.prefix(budget)
        ledger = self._ledger
        if ledger is not None and ledger.targets == (t1, t2):
            if self._batch is None:
                # The pair's one classification, at its largest budget.
                top = self._fleet.prefix(ledger.budgets[-1])
                self._batch = self._classify(t1, t2, top, ledger)
            batch = self._batch.prefix(budget, ledger.charges(prefix, t1, t2))
        else:
            batch = self._classify(t1, t2, prefix)
        if isinstance(self.runner, BaselineRunner):
            estimates = reweighted_estimates(batch)
        else:
            estimates = self.runner.estimator_factory().estimate_batch(batch)
        return (
            [float(value) for value in estimates],
            [int(calls) for calls in batch.api_calls],
        )

    def estimate_many(
        self, t1, t2, budgets: Sequence[int]
    ) -> List[Answer]:
        """:meth:`estimate` at every budget, in the caller's order.

        Every budget is validated before any work is done.  The answers
        equal one :meth:`estimate` call per budget, bit for bit.  With
        more than one distinct budget the first :meth:`estimate` call
        classifies the fleet once, at the largest budget, and every
        budget reads a column slice of that batch with its charges from
        one :class:`PrefixLedger` pass; the batch and ledger are held
        only for this call.  A single budget keeps the plain
        :meth:`estimate` path (a per-row sort ledger).
        """
        budgets = [self._check_budget(budget) for budget in budgets]
        if len(set(budgets)) > 1:
            self._ledger = PrefixLedger(self.csr, self._fleet, t1, t2, budgets)
        try:
            return [self.estimate(t1, t2, budget) for budget in budgets]
        finally:
            self._ledger = self._batch = None


__all__ = ["FleetSpec", "PrefixFleet"]
