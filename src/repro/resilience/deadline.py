"""Per-query deadlines with cooperative cancellation.

A :class:`Deadline` is an absolute point on the (injectable) monotonic
clock.  It travels alongside a query from the HTTP layer through the
:class:`~repro.service.batcher.MicroBatcher` into
:meth:`EstimationService.estimate_many`, where the engine *checks* it
at plan boundaries — an expired query is dropped before its walks are
spent rather than interrupted mid-walk (a fleet walk is one
uninterruptible run of vectorized steps; cooperative checks at plan
granularity keep it signal-free).

Two layers of enforcement:

* the event loop gives up waiting at the deadline and answers 504
  immediately (the caller never waits on a slow fleet), and
* the executor-side check stops charging walk budget to a caller who
  has already been answered.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.exceptions import ConfigurationError, DeadlineExceededError


class Deadline:
    """An absolute monotonic-clock deadline (immutable once created)."""

    __slots__ = ("_expires_at", "_clock", "budget_seconds")

    def __init__(
        self,
        budget_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_seconds <= 0:
            raise ConfigurationError(
                f"deadline budget must be > 0 seconds, got {budget_seconds}"
            )
        self.budget_seconds = float(budget_seconds)
        self._clock = clock
        self._expires_at = clock() + self.budget_seconds

    def remaining(self) -> float:
        """Seconds left, clamped at zero."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "query") -> None:
        """Raise :class:`DeadlineExceededError` if the deadline passed."""
        if self.expired():
            raise DeadlineExceededError(
                f"{what} missed its {self.budget_seconds * 1000.0:.0f} ms "
                f"deadline",
                deadline_seconds=self.budget_seconds,
            )

    @classmethod
    def after_ms(
        cls,
        milliseconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        return cls(milliseconds / 1000.0, clock=clock)

    @classmethod
    def from_optional_ms(
        cls,
        milliseconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> Optional["Deadline"]:
        """``None``-propagating constructor for optional request knobs."""
        if milliseconds is None:
            return None
        return cls.after_ms(milliseconds, clock=clock)


__all__ = ["Deadline"]
