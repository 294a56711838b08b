"""Per-layer metrics: the declared list and their derivation from spans.

Conventions (see README.md for the metric -> layer -> workload map):

* set-up layers are seconds per set-up (one graph build, or one server
  boot);
* walk, classify and estimate layers are per walker fleet, over every
  fleet the traced part of the run walked (the service's cache warm-up
  included); a table walks one fleet per algorithm, so per fleet is
  also per table;
* request-path layers (``service.*`` latencies and ``/stats`` deltas)
  cover the timed phase only;
* a layer a workload never runs reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.algorithms import ALL_ALGORITHM_ORDER

SETUP_LAYERS = [
    ("datasets.generate", "datasets.generate_s"),
    ("graph.csr.assemble", "graph.csr.assemble_s"),
    ("graph.cleaning.lcc", "graph.cleaning.lcc_s"),
    ("datasets.labeling.label", "datasets.labeling.label_s"),
    ("experiments.algorithms.suite", "experiments.algorithms.suite_s"),
    ("walks.mixing.burn_in", "walks.mixing.burn_in_s"),
    ("graph.store.publish_attach", "graph.store.publish_attach_s"),
]

_PER_ALGORITHM = [
    ("experiments.planner.walk_s", "s"),
    ("experiments.planner.steps", "count"),
    ("core.samplers.classify_s", "s"),
    ("core.estimators.estimate_s", "s"),
    ("core.samplers.charged_per_sample", "calls/sample"),
]

_SERVICE = [
    ("service.batcher.submit_ms_p50", "ms"),
    ("service.batcher.submit_ms_p99", "ms"),
    ("service.batcher.window_wait_ms", "ms"),
    ("service.batcher.batch_size", "queries"),
    ("service.core.estimate_many_ms_p50", "ms"),
    ("service.core.estimate_many_ms_p99", "ms"),
    ("service.planner.plan_ms", "ms"),
    ("service.core.queries_per_fleet", "queries"),
    ("service.core.steps_per_s", "1/s"),
    ("service.cache.get_us", "us"),
    ("service.cache.put_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.evictions", "count"),
    ("service.http.overhead_ms", "ms"),
    ("service.errors", "count"),
    ("resilience.degraded_served", "count"),
    ("resilience.deadline_misses", "count"),
    ("server.cpu_util", "ratio"),
    ("loadgen.cpu_util", "ratio"),
]

#: Every per-layer metric a traced run emits, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = (
    [(metric, "s") for _, metric in SETUP_LAYERS]
    + [
        (f"{prefix}.{algorithm}", unit)
        for prefix, unit in _PER_ALGORITHM
        for algorithm in ALL_ALGORITHM_ORDER
    ]
    + [
        ("walks.node_steps_per_s", "1/s"),
        ("walks.line_steps_per_s", "1/s"),
        ("walks.pow_s", "s"),
        ("walks.pow_calls", "count"),
    ]
    + _SERVICE
    + [("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%")]
)

UNITS: Dict[str, str] = dict(PER_LAYER)


def _seconds(span) -> float:
    return (span[4] - span[3]) / 1e9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def self_times(spans: Iterable) -> Dict[int, float]:
    """Span id -> seconds of its own interval no child span covers."""
    spans = list(spans)
    child_time: Dict[int, int] = defaultdict(int)
    for span in spans:
        if span[1]:
            child_time[span[1]] += span[4] - span[3]
    return {span[0]: (span[4] - span[3] - child_time[span[0]]) / 1e9 for span in spans}


def window_waits(submits: Sequence, batches: Sequence) -> List[float]:
    """Milliseconds each ``submit`` spent outside the batch that answered it.

    ``submit`` runs on the event loop and ``estimate_many`` on an
    executor thread, so the batch is not a child span; the query
    payload's id (recorded on both) links them.  What remains is the
    micro-batch window plus the hand-off to and from the executor.
    """
    by_query = defaultdict(list)
    for batch in batches:
        for query_id in batch[6]:
            by_query[query_id].append(batch)
    waits = []
    for submit in submits:
        served = [
            batch
            for batch in by_query.get(submit[6], ())
            if batch[3] >= submit[3] and batch[4] <= submit[4]
        ]
        inner = served[0][4] - served[0][3] if served else 0
        waits.append((submit[4] - submit[3] - inner) / 1e6)
    return waits


def layer_metrics(
    spans: Sequence,
    counters: Dict[str, Dict[Optional[str], List[int]]],
    window: Optional[Tuple[int, int]] = None,
    service: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except the trace overhead.

    *window* is the timed phase in ``perf_counter_ns`` (request-path
    spans outside it are ignored); *service* holds the values read from
    ``/stats`` and ``/proc`` by the serve workloads.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    metrics: Dict[str, float] = {}

    setups = len(by_name["experiments.algorithms.suite"])
    for name, metric in SETUP_LAYERS:
        metrics[metric] = _ratio(sum(map(_seconds, by_name[name])), setups)

    own = self_times(spans)
    fleets = by_name["experiments.planner.walk"]
    per_algorithm = defaultdict(lambda: defaultdict(float))
    for span in fleets:
        row = per_algorithm[span[5]]
        row["fleets"] += 1
        row["walk"] += _seconds(span)
        row["steps"] += span[6]["steps"]
    for span in by_name["core.samplers.classify"]:
        row = per_algorithm[span[5]]
        row["classify"] += _seconds(span)
        row["charged"] += span[6]["charged"]
        row["samples"] += span[6]["samples"]
    for span in by_name["experiments.planner.estimate"]:
        per_algorithm[span[5]]["estimate"] += own[span[0]]
    for algorithm in ALL_ALGORITHM_ORDER:
        row = per_algorithm[algorithm]
        metrics[f"experiments.planner.walk_s.{algorithm}"] = _ratio(row["walk"], row["fleets"])
        metrics[f"experiments.planner.steps.{algorithm}"] = _ratio(row["steps"], row["fleets"])
        metrics[f"core.samplers.classify_s.{algorithm}"] = _ratio(row["classify"], row["fleets"])
        metrics[f"core.estimators.estimate_s.{algorithm}"] = _ratio(row["estimate"], row["fleets"])
        metrics[f"core.samplers.charged_per_sample.{algorithm}"] = _ratio(
            row["charged"], row["samples"]
        )
    for kind, is_line in (("node", False), ("line", True)):
        chosen = [span for span in fleets if span[6]["line"] is is_line]
        metrics[f"walks.{kind}_steps_per_s"] = _ratio(
            sum(span[6]["steps"] for span in chosen), sum(map(_seconds, chosen))
        )
    pow_calls = counters.get("walks.pow", {}).values()
    metrics["walks.pow_s"] = _ratio(sum(ns for _, ns in pow_calls) / 1e9, len(fleets))
    metrics["walks.pow_calls"] = _ratio(sum(calls for calls, _ in pow_calls), len(fleets))

    def timed(name: str) -> List:
        if window is None:
            return by_name[name]
        return [span for span in by_name[name] if window[0] <= span[3] <= window[1]]

    submits = timed("service.batcher.submit")
    batches = timed("service.core.estimate_many")
    submit_ms = [_seconds(span) * 1e3 for span in submits]
    batch_ms = [_seconds(span) * 1e3 for span in batches]
    metrics["service.batcher.submit_ms_p50"] = _p(submit_ms, 50)
    metrics["service.batcher.submit_ms_p99"] = _p(submit_ms, 99)
    metrics["service.batcher.window_wait_ms"] = _p(window_waits(submits, batches), 50)
    metrics["service.batcher.batch_size"] = _ratio(
        sum(len(span[6]) for span in batches), len(batches)
    )
    metrics["service.core.estimate_many_ms_p50"] = _p(batch_ms, 50)
    metrics["service.core.estimate_many_ms_p99"] = _p(batch_ms, 99)
    metrics["service.planner.plan_ms"] = _p(
        [_seconds(span) * 1e3 for span in timed("service.planner.plan")], 50
    )
    # Coalescing and cache writes happen on the walk path, which the
    # hot workload only takes while warming: count them over the run.
    plans = [span[6] for span in by_name["service.planner.plan"] if span[6][1]]
    metrics["service.core.queries_per_fleet"] = _ratio(
        sum(queries for queries, _ in plans), sum(fleet for _, fleet in plans)
    )
    metrics["service.cache.get_us"] = _p(
        [_seconds(span) * 1e6 for span in timed("service.cache.get")], 50
    )
    metrics["service.cache.put_us"] = _p(
        [_seconds(span) * 1e6 for span in by_name["service.cache.put"]], 50
    )
    service = service or {}
    for name, _ in _SERVICE:
        if name in service:
            metrics[name] = float(service[name])
        metrics.setdefault(name, 0.0)
    if "client_p50_ms" in service:
        metrics["service.http.overhead_ms"] = (
            service["client_p50_ms"] - metrics["service.batcher.submit_ms_p50"]
        )
    return metrics
