"""Retry with decorrelated-jitter backoff for transient failures.

Used around CSR store attaches (service install and pool-worker init):
the usual failure there is a short race — a segment not yet visible,
an injected chaos fault — so a couple of spaced retries almost always
succeed, and correlated retry storms are avoided by the
decorrelated-jitter schedule (each sleep is drawn uniformly from
``[base, 3 * previous]``, capped), the policy AWS popularized in
"Exponential Backoff And Jitter".

Only *retryable* errors are retried: an exception qualifies when its
class carries a truthy ``retryable`` attribute (see
:class:`repro.exceptions.StoreAttachError`).  Everything else —
including deliberate rejections like deadline or breaker errors, which
set ``retryable = False`` — propagates on the first throw.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, List, Optional, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")


def is_retryable(exc: BaseException) -> bool:
    """Whether a policy may retry after *exc* (opt-in via ``retryable``)."""
    return bool(getattr(exc, "retryable", False))


class Retry:
    """Bounded retry with decorrelated-jitter backoff.

    *attempts* counts total tries (so ``attempts=3`` means at most two
    sleeps).  *base_seconds* seeds the schedule and *cap_seconds* bounds
    every individual sleep.  *sleep*, *rng* are injectable so the tests
    pin exact schedules against a frozen clock; *seed* makes the jitter
    reproducible without threading an RNG through callers.

    Thread-safe: each :meth:`call` uses local schedule state, and the
    shared RNG draw is taken under a lock.
    """

    def __init__(
        self,
        attempts: int = 3,
        base_seconds: float = 0.05,
        cap_seconds: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        if attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {attempts}")
        if base_seconds < 0 or cap_seconds < base_seconds:
            raise ConfigurationError(
                f"need 0 <= base_seconds <= cap_seconds, got "
                f"base={base_seconds}, cap={cap_seconds}"
            )
        self.attempts = int(attempts)
        self.base_seconds = float(base_seconds)
        self.cap_seconds = float(cap_seconds)
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random(seed)
        self._rng_lock = threading.Lock()

    def _uniform(self, low: float, high: float) -> float:
        with self._rng_lock:
            return self._rng.uniform(low, high)

    def schedule(self) -> "List[float]":
        """A fresh realization of the sleep schedule (for tests/docs).

        Consumes RNG draws exactly like :meth:`call` does, so a
        seeded :class:`Retry` yields the same schedule both ways.
        """
        sleeps: List[float] = []
        previous = self.base_seconds
        for _ in range(self.attempts - 1):
            previous = min(
                self.cap_seconds, self._uniform(self.base_seconds, previous * 3)
            )
            sleeps.append(previous)
        return sleeps

    def call(self, fn: Callable[[], T], describe: str = "operation") -> T:
        """Run *fn*, retrying retryable errors with backoff.

        The final failure is re-raised unchanged (so the caller still
        sees the typed store error, now post-backoff), and earlier
        failures are attached via ``__context__`` by the re-raise in
        the usual way.
        """
        previous = self.base_seconds
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except BaseException as exc:
                if attempt >= self.attempts or not is_retryable(exc):
                    raise
                previous = min(
                    self.cap_seconds,
                    self._uniform(self.base_seconds, previous * 3),
                )
                self._sleep(previous)
        raise AssertionError(f"unreachable: {describe} fell out of retry loop")


__all__ = ["Retry", "is_retryable"]
