"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch a single base class.  The
sub-classes map onto the major subsystems (graph substrate, restricted
API access, random-walk machinery, estimation, experiment harness).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Errors related to building or querying a labeled graph."""


class NodeNotFoundError(GraphError):
    """A node id was requested that does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not present in the graph")
        self.node = node


class EdgeNotFoundError(GraphError):
    """An edge was requested that does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not present in the graph")
        self.u = u
        self.v = v


class LabelError(GraphError):
    """Errors related to node labels or target-edge labels."""


class EmptyGraphError(GraphError):
    """An operation that needs a non-empty graph was called on an empty one."""


class DisconnectedGraphError(GraphError):
    """An operation requires a connected graph but the input is not connected."""


class APIError(ReproError):
    """Errors raised by the restricted OSN API wrapper."""


class APIBudgetExceededError(APIError):
    """The caller used more API calls than the configured budget allows."""

    def __init__(self, budget: int, used: int) -> None:
        super().__init__(
            f"API budget exceeded: budget={budget} calls, attempted call #{used}"
        )
        self.budget = budget
        self.used = used


class WalkError(ReproError):
    """Errors raised by the random-walk engines."""


class MixingTimeError(WalkError):
    """The mixing-time computation could not complete (e.g. no convergence)."""


class EstimationError(ReproError):
    """Errors raised while constructing estimators or estimates."""


class InsufficientSamplesError(EstimationError):
    """An estimator was asked to produce an estimate from an empty sample."""


class ExperimentError(ReproError):
    """Errors raised by the experiment harness."""


class DatasetError(ReproError):
    """Errors raised by dataset generation or loading."""


class ConfigurationError(ReproError):
    """An invalid configuration value was supplied."""


class StoreAttachError(GraphError):
    """A published CSR buffer store could not be (re)attached.

    Raised instead of a leaked :class:`FileNotFoundError` when a
    shared-memory segment has been unlinked out from under an attach —
    the message always names the segment.  Marked :attr:`retryable`
    because the usual cause (a publisher racing its own unlink) is
    transient: :class:`repro.resilience.Retry` re-attaches with
    decorrelated-jitter backoff wherever the service or the worker
    plane attaches.
    """

    #: Attach failures are transient by default; retry policies key off this.
    retryable = True

    def __init__(self, message: str, location: object = None) -> None:
        super().__init__(message)
        self.location = location


class ArtifactCorruptError(GraphError):
    """A durable artifact failed its integrity check.

    Raised by the durability layer (:mod:`repro.durability`) when a
    checksummed ``.npz`` sidecar, CSR archive, snapshot, or checkpoint
    does not match its blake2b manifest — a torn write, a bit flip, a
    truncation — and by :meth:`repro.graph.csr.CSRGraph.validate_invariants`
    when the CSR structure itself is inconsistent.  The load paths
    raise this *instead of* reading garbage, so a corrupt file can
    never silently walk.

    Marked :attr:`retryable` because the most common cause in practice
    is not media corruption but a reader racing a writer's atomic
    rewrite (the ``os.replace`` has not landed yet): a retry typically
    observes the completed artifact.  Genuinely corrupt files keep
    failing, which the retry policy surfaces after its budget.
    """

    #: A racing rewrite looks identical to corruption; retry once cheaply.
    retryable = True

    def __init__(self, message: str, location: object = None) -> None:
        super().__init__(message)
        self.location = location


class ResilienceError(ReproError):
    """Base class for failure-policy rejections in the serving layer.

    These are *deliberate* fast-failures — a deadline enforced, a
    breaker held open, a queue bounded — not engine bugs; the HTTP
    layer maps each subclass to its own status code (504/503/429).
    """


class DeadlineExceededError(ResilienceError):
    """A query's deadline elapsed before its answer was produced."""

    retryable = False

    def __init__(self, message: str, deadline_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.deadline_seconds = deadline_seconds


class CircuitOpenError(ResilienceError):
    """An algorithm's circuit breaker is open and no cached fallback exists."""

    def __init__(self, algorithm: object, retry_after: float = 0.0) -> None:
        super().__init__(
            f"circuit breaker for algorithm {algorithm!r} is open after repeated "
            f"fleet failures; retry in {retry_after:.1f}s or query a cached pair"
        )
        self.algorithm = algorithm
        self.retry_after = retry_after


class ServiceOverloadedError(ResilienceError):
    """The admission queue is full and no cached fallback exists."""

    def __init__(self, depth: int, limit: int, retry_after: float = 0.0) -> None:
        super().__init__(
            f"service overloaded: {depth} queries in flight (limit {limit}); "
            f"retry in {retry_after:.1f}s"
        )
        self.depth = depth
        self.limit = limit
        self.retry_after = retry_after
