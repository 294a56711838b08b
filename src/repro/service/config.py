"""Validated configuration for ``repro-osn serve``.

Mirrors :class:`repro.experiments.config.ExperimentConfig`'s style: a
frozen-ish dataclass that validates eagerly in ``__post_init__`` so a
bad flag combination fails at argument-parsing time, not after the
graph has been synthesised and published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.datasets.registry import DATASET_SPECS
from repro.exceptions import ConfigurationError
from repro.graph.store import validate_graph_store
from repro.utils.validation import (
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

@dataclass
class ServiceConfig:
    """Everything ``repro-osn serve`` needs to boot a server.

    ``graph_store="shm"`` serves from a shared-memory publication
    (fits-in-RAM graphs, fastest); ``"mmap"`` serves from a
    memory-mapped sidecar (out-of-core graphs); ``"ram"`` skips
    publication entirely (single-process dev server).  See
    ``docs/scaling-guide.md`` for the trade-off.

    The resilience knobs (``docs/operations.md`` is the runbook):

    * ``deadline_ms`` — default per-query deadline (504 at expiry);
      ``None`` disables.  Requests may override via ``deadline_ms`` in
      the ``/estimate`` body.
    * ``max_in_flight`` — admission bound on queries simultaneously
      awaiting answers; overflow is shed to stale cache or 429'd.
    * ``breaker_threshold`` / ``breaker_cooldown_ms`` — per-algorithm
      circuit breakers: consecutive fleet failures to trip, and how
      long an open breaker waits before half-opening on a probe.
    * ``faults`` — a :class:`repro.resilience.FaultPlan` string
      (validated eagerly) installed at startup for chaos runs; the
      ``REPRO_FAULTS`` environment variable is the env-only equivalent.

    The durability knobs:

    * ``snapshot_path`` — where the answer cache is checkpointed for
      warm restarts (atomic, checksummed; loaded back at boot when the
      graph fingerprint matches).  ``None`` disables snapshots.
    * ``snapshot_interval_ms`` — the periodic snapshot timer (the
      SIGKILL-survival story; graceful SIGTERM snapshots regardless).
    """

    dataset: str = "facebook"
    scale: float = 0.25
    seed: int = 0
    graph_store: str = "shm"
    host: str = "127.0.0.1"
    port: int = 8000
    batch_window_ms: float = 5.0
    cache_size: int = 1024
    repetitions: int = 20
    burn_in: Optional[int] = None
    include_baselines: bool = True
    deadline_ms: Optional[float] = None
    max_in_flight: Optional[int] = None
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 5000.0
    faults: Optional[str] = None
    snapshot_path: Optional[str] = None
    snapshot_interval_ms: float = 30000.0

    def __post_init__(self) -> None:
        if self.dataset not in DATASET_SPECS:
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; "
                f"available: {', '.join(DATASET_SPECS)}"
            )
        check_positive(self.scale, "scale")
        validate_graph_store(self.graph_store)
        if not (0 <= int(self.port) <= 65535):
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.batch_window_ms < 0:
            raise ConfigurationError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}"
            )
        check_non_negative_int(self.cache_size, "cache_size")
        check_positive_int(self.repetitions, "repetitions")
        if self.burn_in is not None:
            check_non_negative_int(self.burn_in, "burn_in")
        if self.deadline_ms is not None:
            check_positive(self.deadline_ms, "deadline_ms")
        if self.max_in_flight is not None:
            check_positive_int(self.max_in_flight, "max_in_flight")
        check_positive_int(self.breaker_threshold, "breaker_threshold")
        if self.breaker_cooldown_ms < 0:
            raise ConfigurationError(
                f"breaker_cooldown_ms must be >= 0, got {self.breaker_cooldown_ms}"
            )
        check_positive(self.snapshot_interval_ms, "snapshot_interval_ms")
        if self.faults is not None:
            # Parse eagerly: a typo'd fault plan should fail at flag
            # time, not after the graph has been built and published.
            from repro.resilience.faults import FaultPlan

            FaultPlan.parse(self.faults)

    @property
    def window_seconds(self) -> float:
        return self.batch_window_ms / 1000.0

    @property
    def breaker_cooldown_seconds(self) -> float:
        return self.breaker_cooldown_ms / 1000.0

    @property
    def snapshot_interval_seconds(self) -> float:
        return self.snapshot_interval_ms / 1000.0


__all__ = ["ServiceConfig"]
