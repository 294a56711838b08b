"""In-memory spans around the public functions of each layer.

The tracer lives entirely in the benchmark: :func:`install_walk_spans`
and :func:`install_server_spans` replace the module attributes that
callers resolve (for example
``repro.experiments.planner.classify_node_fleet``) with timing wrappers
and :meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` is edited or imports this module.

A span is a tuple ``(id, parent, name, start_ns, end_ns, algorithm,
attrs)``.  The parent and the algorithm come from a context variable,
so spans nest correctly across threads and asyncio tasks, and every
span under a walker fleet carries that fleet's algorithm.  Span names
follow the layer's role, not the file it lives in, so moving a
function between modules does not rename a metric.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (current span id, algorithm of the enclosing fleet)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(0, None)
)

Span = Tuple[int, int, str, int, int, Optional[str], object]


class Tracer:
    """Collects spans in memory; :attr:`spans` is written out at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> algorithm -> [calls, nanoseconds], for per-step calls
        #: too frequent to keep one span each.
        self.counters: Dict[str, Dict[Optional[str], List[int]]] = {}
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, algorithm: Optional[str] = None):
        parent, inherited = _CURRENT.get()
        span_id = next(self._ids)
        algorithm = algorithm or inherited
        token = _CURRENT.set((span_id, algorithm))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            self.spans.append((span_id, parent, name, start, end, algorithm, None))

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        leaf: bool = False,
        algorithm: Optional[Callable] = None,
        attrs: Optional[Callable] = None,
    ) -> Callable:
        """A traced twin of *fn*.

        *leaf* spans never have children, so they skip the context
        switch.  *algorithm* maps the call's ``(args, kwargs)`` to the
        algorithm the span belongs to; *attrs* maps ``(args, kwargs,
        result)`` to the span's attributes.
        """
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, inherited = _CURRENT.get()
            span_id = next(ids)
            owner = algorithm(args, kwargs) if algorithm is not None else inherited
            token = None if leaf else _CURRENT.set((span_id, owner))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if token is not None:
                    _CURRENT.reset(token)
            extra = attrs(args, kwargs, result) if attrs is not None else None
            spans.append((span_id, parent, name, start, end, owner, extra))
            return result

        return traced

    def wrap_counted(self, name: str, fn: Callable) -> Callable:
        """A twin of *fn* that only counts calls and time per algorithm."""
        totals = self.counters.setdefault(name, {})
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                row = totals.setdefault(_CURRENT.get()[1], [0, 0])
                row[0] += 1
                row[1] += elapsed

        return counted

    def wrap_async(self, name: str, fn: Callable, *, attrs: Callable) -> Callable:
        """A traced twin of the coroutine function *fn* (always a leaf)."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent, owner = _CURRENT.get()
            span_id = next(ids)
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans.append(
                    (span_id, parent, name, start, clock(), owner, attrs(args, kwargs))
                )

        return traced

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


class NoTracer:
    """The tracer of an untraced run: spans cost nothing."""

    def span(self, name: str, algorithm: Optional[str] = None):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# what each wrapper records
# ----------------------------------------------------------------------
def _fleet_algorithm(args, kwargs) -> str:
    return args[3].algorithm  # PrefixFleet.__init__(self, csr, runner, spec, ...)


def _fleet_attrs(args, kwargs, result) -> Dict[str, object]:
    from repro.experiments.algorithms import BaselineRunner

    fleet = args[0]
    return {"steps": fleet.steps_walked, "line": isinstance(fleet.runner, BaselineRunner)}


def _classify_attrs(args, kwargs, batch) -> Dict[str, int]:
    # Both batch kinds are (walkers, budget) shaped.
    shape = (batch.sources if hasattr(batch, "sources") else batch.nodes).shape
    return {"charged": int(batch.api_calls.sum()), "samples": int(shape[0] * shape[1])}


def install_walk_spans(tracer: Tracer) -> None:
    """Spans on the walk, classify and estimate layers (tables and server)."""
    import repro.experiments.planner as planner
    import repro.experiments.runner as runner
    import repro.service.core as service_core
    import repro.walks.batched as batched

    base = planner.PrefixFleet

    class TracedPrefixFleet(base):
        __init__ = tracer.wrap(
            "experiments.planner.walk",
            base.__init__,
            algorithm=_fleet_algorithm,
            attrs=_fleet_attrs,
        )
        estimate = tracer.wrap(
            "experiments.planner.estimate",
            base.estimate,
            algorithm=lambda args, kwargs: args[0].spec.algorithm,
        )

    for module in (runner, service_core):
        tracer.patch(module, "PrefixFleet", TracedPrefixFleet)
    for name in ("classify_edge_fleet", "classify_node_fleet", "classify_line_fleet"):
        tracer.patch(
            planner,
            name,
            tracer.wrap("core.samplers.classify", getattr(planner, name), attrs=_classify_attrs),
        )
    tracer.patch(
        batched,
        "pow_like_scalar",
        tracer.wrap_counted("walks.pow", batched.pow_like_scalar),
    )


def install_server_spans(tracer: Tracer) -> None:
    """Spans on the server's set-up and request path, plus the walk layers."""
    import repro.service.core as service_core
    import repro.service.http as http

    install_walk_spans(tracer)
    tracer.patch(
        service_core,
        "recommended_burn_in",
        tracer.wrap("walks.mixing.burn_in", service_core.recommended_burn_in),
    )
    tracer.patch(
        service_core,
        "build_algorithm_suite",
        tracer.wrap("experiments.algorithms.suite", service_core.build_algorithm_suite),
    )

    def publish(*args, **kwargs):
        publication = publish_traced(*args, **kwargs)
        publication.attach = tracer.wrap("graph.store.publish_attach", publication.attach)
        return publication

    publish_traced = tracer.wrap("graph.store.publish_attach", service_core.publish_csr)
    tracer.patch(service_core, "publish_csr", publish)
    tracer.patch(
        service_core,
        "plan_queries",
        tracer.wrap(
            "service.planner.plan",
            service_core.plan_queries,
            leaf=True,
            attrs=lambda args, kwargs, plans: (len(args[0]), len(plans)),
        ),
    )

    cache_base = service_core.AnswerCache

    class TracedAnswerCache(cache_base):
        get = tracer.wrap("service.cache.get", cache_base.get, leaf=True)
        put = tracer.wrap("service.cache.put", cache_base.put, leaf=True)

    tracer.patch(service_core, "AnswerCache", TracedAnswerCache)

    batcher_base = http.MicroBatcher

    class TracedMicroBatcher(batcher_base):
        # The query payload's id links a submit to the estimate_many
        # call that answered it (see layers.window_waits).
        submit = tracer.wrap_async(
            "service.batcher.submit",
            batcher_base.submit,
            attrs=lambda args, kwargs: id(args[1]),
        )

    tracer.patch(http, "MicroBatcher", TracedMicroBatcher)


def trace_service_instance(tracer: Tracer, service) -> None:
    """Span the engine's batch entry point on the one served instance."""
    service.estimate_many = tracer.wrap(
        "service.core.estimate_many",
        service.estimate_many,
        attrs=lambda args, kwargs, result: [id(query) for query in args[0]],
    )
