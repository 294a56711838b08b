"""The asyncio micro-batcher: collect a window, walk once, fan out.

Many concurrent clients asking for estimates at the same instant is
the serving layer's whole reason to exist: their walks are almost
always shareable (same algorithm and seed, different pairs/budgets),
but only if someone *holds* the requests long enough to notice.
:class:`MicroBatcher` does exactly that — each submitted query parks on
a future, the first submission of an idle period arms a flush timer,
and when the window closes the whole batch goes to
:meth:`EstimationService.estimate_many
<repro.service.core.EstimationService.estimate_many>` **off the event
loop** (a worker thread), where cache hits are peeled off and the
misses coalesce into shared max-budget fleets.

Failure isolation is per-future:

* a malformed query (unknown algorithm, bad field) is refused in
  ``submit`` before it parks; one that fails in the batch (zero-target
  pair) resolves *its* future with the exception; batch-mates are
  untouched;
* a client that disappears mid-batch (cancelled ``await``, dropped
  HTTP connection) leaves a cancelled future behind — a future already
  done at flush time is dropped *before* the batch executes, and one
  cancelled mid-execute is skipped at delivery; the shared fleet
  result still serves everyone else.  The flush itself runs under
  :func:`asyncio.shield`, so even cancelling the *flush task*
  mid-execute (shutdown racing a walk) finishes delivering to the
  surviving siblings before the cancellation propagates;
* an executor-level crash resolves every still-pending future with the
  error, so no client ever hangs on a dead batch.

Two failure policies live at this seam (see :mod:`repro.resilience`):

* **Admission control** — with *max_in_flight* set, a query arriving
  while that many are already awaiting answers is shed immediately:
  served a version-matched stale cache answer flagged
  ``degraded: true`` when one exists, rejected with
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429 +
  ``Retry-After``) otherwise.  Shed queries never park, so overload
  cannot grow the queue.
* **Deadlines** — a per-query (or default) deadline bounds the await:
  at expiry the caller gets
  :class:`~repro.exceptions.DeadlineExceededError` (HTTP 504)
  immediately and the slot's future is cancelled, which both drops it
  from an unflushed batch and lets the engine skip it at the next plan
  boundary (cooperative cancellation; the walk is never interrupted
  mid-kernel).
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.exceptions import DeadlineExceededError, ServiceOverloadedError
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import Deadline
from repro.resilience.faults import fire
from repro.service.core import EstimateAnswer, EstimationService
from repro.service.planner import EstimateQuery

QueryLike = Union[EstimateQuery, Mapping[str, object]]

#: One parked slot: the query, its future, and its (optional) deadline.
_Slot = Tuple[QueryLike, "asyncio.Future[EstimateAnswer]", Optional[Deadline]]


class MicroBatcher:
    """Window-based request coalescing in front of an :class:`EstimationService`.

    Parameters
    ----------
    service:
        The synchronous engine that executes batches.
    window_seconds:
        How long the first request of a batch waits for company.  The
        window trades a bounded latency floor for fleet sharing; 5 ms
        is generous next to a walk and invisible next to network RTT.
    max_in_flight:
        Admission bound: queries simultaneously awaiting answers.
        ``None`` (default) disables admission control.
    default_deadline_seconds:
        Deadline applied to queries that do not carry their own;
        ``None`` (default) means no deadline.
    """

    def __init__(
        self,
        service: EstimationService,
        window_seconds: float = 0.005,
        max_in_flight: Optional[int] = None,
        default_deadline_seconds: Optional[float] = None,
    ) -> None:
        if window_seconds < 0:
            raise ValueError("window_seconds must be >= 0")
        self.service = service
        self.window_seconds = float(window_seconds)
        self.admission: Optional[AdmissionController] = (
            AdmissionController(
                max_in_flight,
                retry_after_seconds=max(self.window_seconds * 2, 0.05),
            )
            if max_in_flight is not None
            else None
        )
        self.default_deadline_seconds = default_deadline_seconds
        self._pending: List[_Slot] = []
        self._flush_task: Optional["asyncio.Task[None]"] = None
        self._active_flushes: "Set[asyncio.Task[None]]" = set()
        # accounting for /stats
        self.batches_flushed = 0
        self.queries_submitted = 0
        self.queries_dropped = 0
        self.queries_shed = 0
        self.deadline_timeouts = 0
        self.peak_batch_size = 0

    @property
    def in_flight(self) -> int:
        """Queries parked in the current (un-flushed) window."""
        return len(self._pending)

    async def submit(
        self,
        query: QueryLike,
        deadline_seconds: Optional[float] = None,
    ) -> EstimateAnswer:
        """Queue *query* for the next flush and await its answer.

        Cancelling the returned awaitable abandons only this caller's
        slot; the batch (and any fleet it shares) proceeds for the
        remaining clients.  *deadline_seconds* overrides the batcher's
        default deadline for this query.
        """
        # Validated before the deadline starts; the payload parks as given
        # (traces link a submit to its batch by the payload's identity).
        self.service.normalize_query(query)
        budget = (
            deadline_seconds
            if deadline_seconds is not None
            else self.default_deadline_seconds
        )
        deadline = Deadline(budget) if budget is not None else None
        if self.admission is not None and not self.admission.try_acquire():
            # Full queue: shed without parking — stale cache or fast 429.
            fallback = self.service.degraded_answer(query)
            if fallback is not None:
                self.queries_shed += 1
                return fallback
            raise ServiceOverloadedError(
                depth=self.admission.limit,
                limit=self.admission.limit,
                retry_after=self.admission.retry_after_seconds,
            )
        try:
            loop = asyncio.get_running_loop()
            future: "asyncio.Future[EstimateAnswer]" = loop.create_future()
            self._pending.append((query, future, deadline))
            self.queries_submitted += 1
            self.peak_batch_size = max(self.peak_batch_size, len(self._pending))
            if self._flush_task is None or self._flush_task.done():
                self._flush_task = loop.create_task(self._flush_after_window())
            if deadline is None:
                return await future
            try:
                # Shield the slot from wait_for's cancellation so a
                # timeout answers *this* caller without detonating the
                # shared batch bookkeeping mid-flush.
                return await asyncio.wait_for(
                    asyncio.shield(future), timeout=deadline.remaining()
                )
            except asyncio.CancelledError:
                # Client disconnected: shield kept the slot alive, so
                # cancel it explicitly to preserve the no-deadline
                # disconnect semantics (dropped, never walked for).
                future.cancel()
                raise
            except asyncio.TimeoutError:
                # Cancel the slot: an unflushed batch drops it before
                # walking, the engine skips it at plan boundaries.
                future.cancel()
                self.deadline_timeouts += 1
                raise DeadlineExceededError(
                    f"query missed its {deadline.budget_seconds * 1000.0:.0f} "
                    f"ms deadline",
                    deadline_seconds=deadline.budget_seconds,
                ) from None
        finally:
            if self.admission is not None:
                self.admission.release()

    async def drain(self) -> None:
        """Flush anything still pending immediately (shutdown path)."""
        if self._flush_task is not None and not self._flush_task.done():
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        if self._pending:
            await self._flush()
        # A flush that already began executing dropped its window-task
        # reference (so new submissions can arm a fresh window); wait
        # those out too, or shutdown would orphan a mid-walk batch and
        # its clients.
        while self._active_flushes:
            await asyncio.gather(
                *list(self._active_flushes), return_exceptions=True
            )

    async def _flush_after_window(self) -> None:
        task = asyncio.current_task()
        self._active_flushes.add(task)
        try:
            if self.window_seconds > 0:
                await asyncio.sleep(self.window_seconds)
            await self._flush()
        finally:
            self._active_flushes.discard(task)

    async def _flush(self) -> None:
        batch, self._pending = self._pending, []
        self._flush_task = None
        # Drop futures already done *before* executing: a client that
        # disconnected (or timed out) during the window must not cost a
        # walk, and — the historical bug — must not shift the
        # result-to-future pairing for its surviving siblings.
        live: List[_Slot] = []
        for slot in batch:
            if slot[1].done():
                self.queries_dropped += 1
            else:
                live.append(slot)
        if not live:
            return
        self.batches_flushed += 1
        try:
            fire("batcher.flush", batch_size=len(live))
        except Exception as exc:
            for _, future, _ in live:
                if not future.done():
                    future.set_exception(exc)
            return
        queries = [query for query, _, _ in live]
        deadlines = [deadline for _, _, deadline in live]
        if any(deadline is not None for deadline in deadlines):
            execute = partial(
                self.service.estimate_many, queries, deadlines=deadlines
            )
        else:
            execute = partial(self.service.estimate_many, queries)
        loop = asyncio.get_running_loop()
        inner = loop.run_in_executor(None, execute)
        try:
            results = await asyncio.shield(inner)
        except asyncio.CancelledError:
            # The flush task was cancelled mid-execute (shutdown racing
            # a walk).  The executor call cannot be interrupted and the
            # siblings still await their slots: finish the walk, deliver,
            # then let the cancellation propagate.
            results = await inner
            self._deliver(live, results)
            raise
        except Exception as exc:  # engine-level failure: fail the whole batch
            for _, future, _ in live:
                if not future.done():
                    future.set_exception(exc)
            return
        self._deliver(live, results)

    def _deliver(
        self,
        live: List[_Slot],
        results: List[Union[EstimateAnswer, Exception]],
    ) -> None:
        for (_, future, _), result in zip(live, results):
            if future.done():
                # Client disconnected / timed out mid-execute; the
                # shared fleet already served everyone else.
                self.queries_dropped += 1
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    def stats(self) -> Dict[str, object]:
        """Batching counters for the ``/stats`` endpoint."""
        payload: Dict[str, object] = {
            "window_seconds": self.window_seconds,
            "in_flight": self.in_flight,
            "batches_flushed": self.batches_flushed,
            "queries_submitted": self.queries_submitted,
            "queries_dropped": self.queries_dropped,
            "queries_shed": self.queries_shed,
            "deadline_timeouts": self.deadline_timeouts,
            "peak_batch_size": self.peak_batch_size,
        }
        if self.admission is not None:
            payload["admission"] = {
                "depth": self.admission.depth,
                "limit": self.admission.limit,
                "rejections": self.admission.rejections,
            }
        return payload


__all__ = ["MicroBatcher"]
