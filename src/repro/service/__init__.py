"""Estimation-as-a-service: a long-lived query server over one graph.

The paper's setting is an analyst issuing repeated target-edge-count
queries against a restricted social-network API; the batch CLI answers
them one experiment at a time.  This package is the serving layer the
ROADMAP asks for: publish a graph **once** into shared memory at
startup, then answer many concurrent (label-pair, budget, algorithm)
queries from micro-batched prefix fleets.

Layering (each piece is independently testable):

* :mod:`repro.service.cache` — :class:`AnswerCache`, an LRU keyed by
  ``(graph version, algorithm, pair, budget, seed, repetitions,
  burn_in)`` with explicit invalidation on graph swap.
* :mod:`repro.service.planner` — :func:`plan_queries` groups coalesced
  queries into shared max-budget :class:`FleetPlan`\\ s (one
  :class:`~repro.experiments.planner.PrefixFleet` per plan answers
  every member query bit-identically to a standalone run).
* :mod:`repro.service.core` — :class:`EstimationService`, the
  synchronous engine: graph publication + read-only enforcement,
  cache, plan execution, throughput stats.
* :mod:`repro.service.batcher` — :class:`MicroBatcher`, the asyncio
  front: collects in-flight requests over a short window and hands the
  batch to the service off the event loop.
* :mod:`repro.service.http` — :class:`ServiceHTTPServer`, a
  dependency-free asyncio HTTP server with bounded request sizes.
* :mod:`repro.service.config` — :class:`ServiceConfig`, the validated
  knob set behind ``repro-osn serve``.

Failure policies — per-query deadlines, per-algorithm circuit
breakers, admission control, degraded-mode stale-cache serving — are
provided by :mod:`repro.resilience` and threaded through the engine
and the batcher; ``docs/operations.md`` is the runbook.
"""

from repro.service.batcher import MicroBatcher
from repro.service.cache import AnswerCache
from repro.service.config import ServiceConfig
from repro.service.core import EstimateAnswer, EstimateQuery, EstimationService
from repro.service.http import ServiceHTTPServer, run_server
from repro.service.planner import FleetPlan, plan_queries

__all__ = [
    "AnswerCache",
    "EstimateAnswer",
    "EstimateQuery",
    "EstimationService",
    "FleetPlan",
    "MicroBatcher",
    "ServiceConfig",
    "ServiceHTTPServer",
    "plan_queries",
    "run_server",
]
