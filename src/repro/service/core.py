"""The estimation service engine: publish once, answer forever.

:class:`EstimationService` owns everything below the event loop:

* **Graph publication.**  At startup the graph is frozen into CSR
  arrays, published into the configured buffer store (``"shm"`` /
  ``"mmap"`` via :func:`repro.graph.store.publish_csr`, or kept
  in-process for ``"ram"``), and the service serves from an attached
  read-only view.  The source graph is frozen
  (:meth:`~repro.graph.labeled_graph.LabeledGraph.freeze`) and the CSR
  buffers sealed, so nothing can mutate the topology underneath
  version-stamped cached answers — replacing the graph goes through
  :meth:`EstimationService.swap_graph`, which bumps the version and
  invalidates the cache atomically.
* **Planning and execution.**  A batch of queries (from the
  micro-batcher, or a single synchronous caller) is split into cache
  hits and misses; the misses are grouped by
  :func:`repro.service.planner.plan_queries` into shared max-budget
  fleets, each executed once through
  :class:`repro.experiments.planner.PrefixFleet` — the same walks the
  batch harness does, so served answers are bit-identical to
  ``run_trials_prefix`` at the same user seed.
* **Accounting.**  Steps walked, wall-clock walking time, fleet and
  query counters — the substance behind ``/stats``.

The engine is synchronous and thread-safe for the batcher's
run-in-executor calls (one lock around plan execution); all asyncio
lives in :mod:`repro.service.batcher` and :mod:`repro.service.http`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Union

from repro.durability import artifact_counters, graph_fingerprint, read_blob, write_blob
from repro.exceptions import (
    ArtifactCorruptError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ExperimentError,
)
from repro.experiments.algorithms import AlgorithmRunner, build_algorithm_suite
from repro.experiments.metrics import nrmse
from repro.experiments.planner import PrefixFleet
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.store import CSRPublication, publish_csr, validate_graph_store
from repro.resilience.breaker import BreakerBoard
from repro.resilience.deadline import Deadline
from repro.resilience.faults import active_injector, fire
from repro.resilience.retry import Retry
from repro.service.cache import AnswerCache
from repro.service.planner import EstimateQuery, FleetPlan, plan_queries
from repro.utils.validation import check_positive_int
from repro.walks.mixing import recommended_burn_in

GraphLike = Union[LabeledGraph, CSRGraph]


def publishable_csr_view(csr: CSRGraph) -> CSRGraph:
    """A view of *csr* the buffer stores accept (array labels/ids only).

    Dict-graph CSR views carry per-node label *sets* and Python-list
    node ids, which cannot live in a flat shm/mmap buffer.  The paper's
    graphs are all single-label (gender, location, degree bucket), so
    the sets collapse losslessly into a ``label_array`` sharing the
    adjacency buffers — classification reads the same boolean masks
    either way, keeping served answers bit-identical to the batch path
    on the original graph.  Genuinely multi-labeled graphs cannot be
    converted and raise with a pointer at ``graph_store="ram"``.
    """
    import numpy as np

    node_ids = csr._node_ids
    if node_ids is not None and not isinstance(node_ids, np.ndarray):
        node_ids = np.asarray(node_ids)
        if node_ids.dtype == object:
            raise ConfigurationError(
                "graphs with non-numeric node ids cannot be published to an "
                "external store; serve with graph_store='ram'"
            )
    label_array = csr.label_array()
    if csr._label_sets is not None:
        flattened = []
        for index in range(csr.num_nodes):
            labels = csr.labels_of(index)
            if len(labels) != 1:
                raise ConfigurationError(
                    "multi-labeled graphs cannot be flattened into a "
                    "label_array for shm/mmap serving; serve with "
                    "graph_store='ram'"
                )
            flattened.append(next(iter(labels)))
        label_array = np.asarray(flattened)
        if label_array.dtype == object:
            raise ConfigurationError(
                "graphs with non-numeric labels cannot be published to an "
                "external store; serve with graph_store='ram'"
            )
    if node_ids is csr._node_ids and label_array is csr.label_array():
        return csr
    replacement = CSRGraph(
        node_ids,
        csr.indptr,
        csr.indices,
        label_array=label_array,
        validate=False,
    )
    replacement.store = csr.store
    return replacement


@dataclass(frozen=True)
class EstimateAnswer:
    """A finished estimate: the query echoed back plus the results.

    *estimates* / *api_calls* are the per-repetition values (what
    :class:`~repro.experiments.runner.TrialOutcome` carries in the
    batch harness); *graph_version* stamps which publication produced
    them; *cached* is True when the answer was served from the cache
    rather than walked; *degraded* is True when the answer is a
    **stale fallback** — a version-matched cache entry for the same
    pair but a different budget/seed, served because the algorithm's
    breaker was open or the admission queue full (the echoed budget /
    seed / repetitions are the fallback's own, not the request's).
    """

    algorithm: str
    t1: Hashable
    t2: Hashable
    budget: int
    seed: int
    repetitions: int
    burn_in: int
    true_count: int
    graph_version: int
    estimates: List[float] = field(default_factory=list)
    api_calls: List[int] = field(default_factory=list)
    cached: bool = False
    degraded: bool = False

    @property
    def mean_estimate(self) -> float:
        return sum(self.estimates) / len(self.estimates)

    @property
    def nrmse(self) -> float:
        return nrmse(self.estimates, self.true_count)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload for the HTTP transport."""
        return {
            "algorithm": self.algorithm,
            "t1": self.t1,
            "t2": self.t2,
            "budget": self.budget,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "burn_in": self.burn_in,
            "true_count": self.true_count,
            "graph_version": self.graph_version,
            "estimates": list(self.estimates),
            "api_calls": list(self.api_calls),
            "mean_estimate": self.mean_estimate,
            "nrmse": self.nrmse,
            "cached": self.cached,
            "degraded": self.degraded,
        }


class EstimationService:
    """Long-lived query engine over one published, read-only graph.

    Parameters
    ----------
    graph:
        The graph to serve — dict :class:`LabeledGraph` or array-native
        :class:`CSRGraph`.  It is frozen/sealed on construction;
        mutating it afterwards raises at the mutation site.
    graph_store:
        ``"shm"`` (default: serve from a shared-memory segment),
        ``"mmap"`` (serve from a memory-mapped sidecar; the paging
        choice for graphs larger than RAM), or ``"ram"`` (no external
        publication; single-process serving).
    algorithms:
        The servable runner registry; defaults to the full paper suite
        (proposed + EX-* baselines) built against the serving graph.
    default_repetitions / default_burn_in:
        Filled into queries that omit them; *default_burn_in* defaults
        to :func:`repro.walks.mixing.recommended_burn_in` on the
        serving graph.
    cache_size:
        LRU capacity of the answer cache (0 disables caching).
    breaker_threshold / breaker_cooldown_seconds:
        Per-algorithm circuit breakers: *breaker_threshold* consecutive
        fleet failures for one algorithm trip its breaker open; after
        *breaker_cooldown_seconds* it half-opens and admits one probe
        query.  While open, queries for that algorithm are served
        version-matched stale cache answers flagged ``degraded: true``
        when any exist, or rejected with
        :class:`~repro.exceptions.CircuitOpenError` (HTTP 503).
    snapshot_path:
        Optional path for **warm restarts**: :meth:`save_snapshot`
        checkpoints the answer cache there (a checksummed, atomically
        written blob — :mod:`repro.durability.snapshot`), the HTTP
        layer snapshots on a timer and on graceful shutdown, and the
        constructor loads a snapshot back when its graph fingerprint
        matches the serving graph — so a restarted service answers its
        working set from cache instead of re-walking it.  A corrupt or
        mismatched snapshot costs a cold cache, never a wrong answer.
    """

    def __init__(
        self,
        graph: GraphLike,
        *,
        graph_store: str = "shm",
        algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
        default_repetitions: int = 20,
        default_burn_in: Optional[int] = None,
        cache_size: int = 1024,
        name: str = "graph",
        breaker_threshold: int = 3,
        breaker_cooldown_seconds: float = 5.0,
        snapshot_path: Optional[Union[str, Path]] = None,
    ) -> None:
        validate_graph_store(graph_store)
        check_positive_int(default_repetitions, "default_repetitions")
        self.name = name
        self.graph_store = graph_store
        self.default_repetitions = int(default_repetitions)
        self._cache = AnswerCache(cache_size)
        self.breakers = BreakerBoard(breaker_threshold, breaker_cooldown_seconds)
        self._lock = threading.Lock()
        self._graph_version = 0
        self._publication: Optional[CSRPublication] = None
        self._csr: Optional[CSRGraph] = None
        self._suite: Dict[str, AlgorithmRunner] = {}
        self._closed = False
        # throughput accounting
        self.queries_served = 0
        self.query_errors = 0
        self.fleets_built = 0
        self.steps_walked = 0
        self.walk_seconds = 0.0
        self.degraded_served = 0
        self.deadline_misses = 0
        # durability accounting (the /stats "durability" block)
        self.snapshot_path = Path(snapshot_path) if snapshot_path is not None else None
        self.snapshots_written = 0
        self.snapshot_failures = 0
        self.snapshot_loaded_entries = 0
        self.snapshot_load_error: Optional[str] = None
        self._last_snapshot_at: Optional[float] = None
        self._started_at = time.monotonic()
        self._install_graph(graph, algorithms)
        if default_burn_in is None:
            default_burn_in = recommended_burn_in(self._csr, rng=0)
        self.default_burn_in = int(default_burn_in)
        if self.snapshot_path is not None and self.snapshot_path.exists():
            self.load_snapshot()

    # ------------------------------------------------------------------
    # graph lifecycle
    # ------------------------------------------------------------------
    def _install_graph(
        self,
        graph: GraphLike,
        algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
    ) -> None:
        csr = csr_view(graph)
        if isinstance(graph, LabeledGraph):
            # Freeze the dict source too: its version feeds csr_view's
            # cache, and a version bump under live workers is exactly
            # the stale-answer hazard the service exists to prevent.
            graph.freeze(f"published to the estimation service {self.name!r}")
        if self.graph_store in ("shm", "mmap"):
            publication = publish_csr(publishable_csr_view(csr), self.graph_store)
            # Attach with backoff: StoreAttachError is retryable, and
            # the transient causes (a sidecar mid-rewrite, an injected
            # chaos fault) clear within a retry or two.
            try:
                serving = Retry(attempts=3, base_seconds=0.05).call(
                    publication.attach, describe="service store attach"
                )
            except BaseException:
                publication.close()
                publication.unlink()
                raise
        else:
            csr.seal_buffers("published to the estimation service (ram)")
            publication = None
            serving = csr
        if algorithms is None:
            algorithms = build_algorithm_suite(serving, include_baselines=True)
        self._publication = publication
        self._csr = serving
        self._suite = dict(algorithms)
        self._graph_version += 1

    @property
    def csr(self) -> CSRGraph:
        """The read-only serving graph (attached from the buffer store)."""
        return self._csr

    @property
    def graph_version(self) -> int:
        """Publication counter; bumped by every :meth:`swap_graph`."""
        return self._graph_version

    @property
    def algorithms(self) -> List[str]:
        """Names of the servable algorithms."""
        return list(self._suite)

    def swap_graph(
        self,
        graph: GraphLike,
        algorithms: Optional[Mapping[str, AlgorithmRunner]] = None,
    ) -> int:
        """Replace the served graph atomically; returns the new version.

        Publishes the new graph, retires the old publication, bumps the
        version, and invalidates the answer cache — in that order, under
        the execution lock, so in-flight batches finish against the old
        buffers and every later query sees only the new version.
        """
        with self._lock:
            old = self._publication
            self._install_graph(graph, algorithms)
            self._cache.invalidate()
            if old is not None:
                old.close()
                old.unlink()
            return self._graph_version

    # ------------------------------------------------------------------
    # warm-restart snapshots
    # ------------------------------------------------------------------
    def graph_fingerprint(self) -> str:
        """Content fingerprint of the serving graph (the snapshot key)."""
        return graph_fingerprint(self._csr)

    def save_snapshot(self) -> bool:
        """Checkpoint the answer cache to :attr:`snapshot_path`.

        Atomic and checksummed (:func:`repro.durability.write_blob`), so
        a crash mid-snapshot leaves the previous one intact.  Failures
        are counted, never raised — losing a snapshot degrades the next
        restart to a cold cache, which must not take the live service
        down with it.  Returns whether a snapshot was written.
        """
        if self.snapshot_path is None:
            return False
        payload = {
            "format": 1,
            "service": self.name,
            "graph_fingerprint": self.graph_fingerprint(),
            "graph_version": self._graph_version,
            "entries": self._cache.export_entries(),
        }
        try:
            write_blob(self.snapshot_path, payload)
        except Exception as exc:
            self.snapshot_failures += 1
            self.snapshot_load_error = f"write failed: {exc}"
            return False
        self.snapshots_written += 1
        self._last_snapshot_at = time.monotonic()
        return True

    def load_snapshot(self) -> int:
        """Warm the cache from :attr:`snapshot_path`; returns entries loaded.

        The snapshot must have been taken against a graph with the same
        content fingerprint — the version *number* restarts at 1 with
        every process, so loaded keys are re-stamped with the current
        version (and the answers' ``graph_version`` field with them).
        A corrupt, unreadable, or fingerprint-mismatched snapshot is
        recorded and skipped: a cold cache, never a poisoned one.
        """
        if self.snapshot_path is None:
            return 0
        try:
            payload = read_blob(self.snapshot_path)
        except ArtifactCorruptError as exc:
            self.snapshot_load_error = str(exc)
            return 0
        if not isinstance(payload, dict) or payload.get("format") != 1:
            self.snapshot_load_error = (
                f"snapshot {self.snapshot_path} has an unknown payload format"
            )
            return 0
        expected = self.graph_fingerprint()
        if payload.get("graph_fingerprint") != expected:
            self.snapshot_load_error = (
                f"snapshot {self.snapshot_path} was taken against a different "
                "graph (fingerprint mismatch); starting cold"
            )
            return 0
        entries = []
        for key, answer in payload.get("entries", []):
            # Re-stamp with this process's graph version: the content is
            # identical (fingerprint-checked), only the counter differs.
            rekeyed = (self._graph_version,) + tuple(key)[1:]
            if isinstance(answer, EstimateAnswer):
                answer = replace(answer, graph_version=self._graph_version)
            entries.append((rekeyed, answer))
        self.snapshot_loaded_entries = self._cache.load_entries(entries)
        self.snapshot_load_error = None
        return self.snapshot_loaded_entries

    def last_snapshot_age_seconds(self) -> Optional[float]:
        """Seconds since the last successful snapshot (None if never)."""
        if self._last_snapshot_at is None:
            return None
        return time.monotonic() - self._last_snapshot_at

    def close(self) -> None:
        """Snapshot (when configured) and release the publication (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.save_snapshot()
        if self._publication is not None:
            self._publication.close()
            self._publication.unlink()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def normalize_query(
        self, query: Union[EstimateQuery, Mapping[str, object]]
    ) -> EstimateQuery:
        """Validate *query* and fill service defaults; raises on bad input."""
        if isinstance(query, Mapping):
            payload = dict(query)
            unknown = set(payload) - {
                "algorithm", "t1", "t2", "budget", "seed", "repetitions", "burn_in",
            }
            if unknown:
                raise ConfigurationError(
                    f"unknown query fields: {', '.join(sorted(map(str, unknown)))}"
                )
            if "t1" not in payload or "t2" not in payload:
                raise ConfigurationError("a query needs both target labels t1 and t2")
            if "budget" not in payload:
                raise ConfigurationError("a query needs a budget (API-call allowance)")
            query = EstimateQuery(
                algorithm=str(payload.get("algorithm", "NeighborSample-HH")),
                t1=payload["t1"],
                t2=payload["t2"],
                budget=payload["budget"],
                seed=payload.get("seed", 2018),
                repetitions=payload.get(
                    "repetitions", self.default_repetitions
                ),
                burn_in=payload.get("burn_in", self.default_burn_in),
            )
        if query.algorithm not in self._suite:
            raise ConfigurationError(
                f"unknown algorithm {query.algorithm!r}; servable: "
                f"{', '.join(self._suite)}"
            )
        check_positive_int(query.budget, "budget")
        check_positive_int(query.repetitions, "repetitions")
        if int(query.burn_in) < 0:
            raise ConfigurationError("burn_in must be >= 0")
        return replace(
            query,
            budget=int(query.budget),
            seed=int(query.seed),
            repetitions=int(query.repetitions),
            burn_in=int(query.burn_in),
        )

    def estimate(
        self, query: Union[EstimateQuery, Mapping[str, object]]
    ) -> EstimateAnswer:
        """Answer one query synchronously (cache, then a fresh fleet)."""
        result = self.estimate_many([query])[0]
        if isinstance(result, Exception):
            raise result
        return result

    def estimate_many(
        self,
        queries: Sequence[Union[EstimateQuery, Mapping[str, object]]],
        deadlines: Optional[Sequence[Optional[Deadline]]] = None,
    ) -> List[Union[EstimateAnswer, Exception]]:
        """Answer a batch; returns one answer *or exception* per query.

        Per-query failures (unknown algorithm, zero-target pair, bad
        budget) are returned in their slots instead of raised, so one
        bad query can never poison the other members of a coalesced
        batch — the micro-batcher forwards each slot to its own client.
        Cache misses are grouped by :func:`plan_queries` and each plan
        walks exactly one max-budget fleet.

        *deadlines* (parallel to *queries*, ``None`` entries = no
        deadline) enables **cooperative cancellation**: an expired
        query is dropped at the next plan boundary — before its walks
        are spent — with :class:`DeadlineExceededError` in its slot,
        and a plan whose every member expired is skipped entirely.
        Walks are never interrupted mid-kernel; the event-loop side
        (:meth:`MicroBatcher.submit
        <repro.service.batcher.MicroBatcher.submit>`) answers the 504
        at the deadline regardless, this check just stops charging
        walk budget to clients that have already been answered.
        """
        if deadlines is None:
            deadlines = [None] * len(queries)
        results: List[Union[EstimateAnswer, Exception]] = [None] * len(queries)
        with self._lock:
            misses: List[EstimateQuery] = []
            miss_slots: Dict[int, EstimateQuery] = {}
            miss_deadlines: Dict[EstimateQuery, Optional[Deadline]] = {}
            for index, raw in enumerate(queries):
                try:
                    query = self.normalize_query(raw)
                except Exception as exc:
                    results[index] = exc
                    self.query_errors += 1
                    continue
                deadline = deadlines[index]
                if deadline is not None and deadline.expired():
                    results[index] = self._deadline_miss(deadline)
                    self.query_errors += 1
                    continue
                cached = self._cache.get(query.cache_key(self._graph_version))
                if cached is not None:
                    results[index] = replace(cached, cached=True)
                    self.queries_served += 1
                else:
                    miss_slots[index] = query
                    misses.append(query)
                    # Duplicate queries keep the laxest deadline: one
                    # expired client must not starve a patient one.
                    if query in miss_deadlines:
                        previous = miss_deadlines[query]
                        if deadline is None or previous is None:
                            deadline = None
                        elif previous.remaining() > deadline.remaining():
                            deadline = previous
                    miss_deadlines[query] = deadline
            answered = self._execute_plans(plan_queries(misses), miss_deadlines)
            for index, query in miss_slots.items():
                outcome = answered[query]
                results[index] = outcome
                if isinstance(outcome, Exception):
                    self.query_errors += 1
                else:
                    self.queries_served += 1
        return results

    def _deadline_miss(self, deadline: Deadline) -> DeadlineExceededError:
        self.deadline_misses += 1
        return DeadlineExceededError(
            f"query missed its {deadline.budget_seconds * 1000.0:.0f} ms "
            f"deadline before its fleet ran",
            deadline_seconds=deadline.budget_seconds,
        )

    def degraded_answer(
        self, query: Union[EstimateQuery, Mapping[str, object]]
    ) -> Optional[EstimateAnswer]:
        """A stale-cache fallback for *query*, or ``None``.

        The graceful-degradation read: a version-matched cached answer
        for the same (algorithm, pair) at whatever budget/seed is on
        hand, flagged ``degraded: true``.  Takes only the cache's
        internal lock — never the execution lock — so the event loop
        can shed to it while a fleet is mid-walk.
        """
        if not isinstance(query, EstimateQuery):
            try:
                query = self.normalize_query(query)
            except Exception:
                return None
        stale = self._cache.find_stale(
            self._graph_version, query.algorithm, query.t1, query.t2
        )
        if stale is None:
            return None
        self.degraded_served += 1
        return replace(stale, cached=True, degraded=True)

    def _execute_plans(
        self,
        plans: Sequence[FleetPlan],
        deadlines: Optional[Mapping[EstimateQuery, Optional[Deadline]]] = None,
    ) -> Dict[EstimateQuery, Union[EstimateAnswer, Exception]]:
        deadlines = deadlines or {}
        answered: Dict[EstimateQuery, Union[EstimateAnswer, Exception]] = {}
        for plan in plans:
            # Cooperative cancellation at the plan boundary: expired
            # queries are answered 504 without walking, and a fully
            # expired plan never builds its fleet.
            live: List[EstimateQuery] = []
            for query in plan.queries:
                deadline = deadlines.get(query)
                if deadline is not None and deadline.expired():
                    answered[query] = self._deadline_miss(deadline)
                else:
                    live.append(query)
            if not live:
                continue
            breaker = self.breakers.breaker(plan.spec.algorithm)
            if not breaker.admit():
                # Open (or probing) breaker: shed to stale cache when
                # possible, fail fast otherwise — never walk.
                for query in live:
                    fallback = self.degraded_answer(query)
                    answered[query] = (
                        fallback
                        if fallback is not None
                        else CircuitOpenError(
                            plan.spec.algorithm, breaker.retry_after()
                        )
                    )
                continue
            started = time.perf_counter()
            try:
                fire("fleet.run", algorithm=plan.spec.algorithm)
                fleet = PrefixFleet(
                    self._csr,
                    self._suite[plan.spec.algorithm],
                    plan.spec,
                    plan.max_budget,
                )
            except Exception as exc:
                breaker.record_failure()
                for query in live:
                    answered[query] = exc
                continue
            breaker.record_success()
            self.fleets_built += 1
            self.steps_walked += fleet.steps_walked
            for query in live:
                if query in answered and not isinstance(
                    answered[query], Exception
                ):
                    continue  # duplicate within one batch: answer once
                deadline = deadlines.get(query)
                if deadline is not None and deadline.expired():
                    answered[query] = self._deadline_miss(deadline)
                    continue
                try:
                    answered[query] = self._answer_from_fleet(fleet, query)
                except Exception as exc:
                    answered[query] = exc
            self.walk_seconds += time.perf_counter() - started
        return answered

    def _answer_from_fleet(
        self, fleet: PrefixFleet, query: EstimateQuery
    ) -> EstimateAnswer:
        true_count = self._csr.count_target_edges(query.t1, query.t2)
        if true_count <= 0:
            raise ExperimentError(
                f"the target pair ({query.t1!r}, {query.t2!r}) has no target "
                "edges in the served graph; NRMSE is undefined"
            )
        estimates, api_calls = fleet.estimate(query.t1, query.t2, query.budget)
        answer = EstimateAnswer(
            algorithm=query.algorithm,
            t1=query.t1,
            t2=query.t2,
            budget=query.budget,
            seed=query.seed,
            repetitions=query.repetitions,
            burn_in=query.burn_in,
            true_count=int(true_count),
            graph_version=self._graph_version,
            estimates=estimates,
            api_calls=api_calls,
        )
        self._cache.put(query.cache_key(self._graph_version), answer)
        return answer

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Engine-level health for ``/healthz`` (no locks, no walking).

        ``status`` is ``"degraded"`` while any algorithm's breaker is
        open — the service is still up, but part of the suite is being
        served from stale cache or rejected.  The HTTP layer overlays
        queue depth (admission control lives in the batcher).
        """
        open_breakers = self.breakers.open_algorithms()
        report: Dict[str, object] = {
            "status": "degraded" if open_breakers else "ok",
            "graph_version": self._graph_version,
            "open_breakers": open_breakers,
        }
        if self.snapshot_path is not None:
            report["last_snapshot_age_seconds"] = self.last_snapshot_age_seconds()
        return report

    def stats(self) -> Dict[str, object]:
        """Runtime snapshot for the ``/stats`` endpoint."""
        steps_per_second = (
            self.steps_walked / self.walk_seconds if self.walk_seconds > 0 else 0.0
        )
        return {
            "graph": {
                "name": self.name,
                "version": self._graph_version,
                "store": self.graph_store,
                "num_nodes": int(self._csr.num_nodes),
                "num_edges": int(self._csr.num_edges),
            },
            "cache": self._cache.stats(),
            "fleets": {
                "built": self.fleets_built,
                "steps_walked": self.steps_walked,
                "walk_seconds": self.walk_seconds,
                "steps_per_second": steps_per_second,
            },
            "queries": {
                "served": self.queries_served,
                "errors": self.query_errors,
            },
            "resilience": {
                "breakers": self.breakers.snapshot(),
                "degraded_served": self.degraded_served,
                "deadline_misses": self.deadline_misses,
                "faults": (
                    active_injector().plan.describe()
                    if active_injector() is not None
                    else "no faults"
                ),
            },
            "durability": {
                "snapshot_path": (
                    str(self.snapshot_path)
                    if self.snapshot_path is not None
                    else None
                ),
                "snapshots_written": self.snapshots_written,
                "snapshot_failures": self.snapshot_failures,
                "snapshot_loaded_entries": self.snapshot_loaded_entries,
                "snapshot_load_error": self.snapshot_load_error,
                "last_snapshot_age_seconds": self.last_snapshot_age_seconds(),
                "artifacts": artifact_counters(),
            },
            "uptime_seconds": time.monotonic() - self._started_at,
            "algorithms": list(self._suite),
            "defaults": {
                "repetitions": self.default_repetitions,
                "burn_in": self.default_burn_in,
            },
        }


__all__ = ["EstimateAnswer", "EstimateQuery", "EstimationService"]
