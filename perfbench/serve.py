"""Serve workloads: a closed loop of clients against the HTTP server.

The server runs in one child process (:mod:`perfbench.server_main`);
this process is the load generator and the checker.  ``serve-cold``
sends every query with a fresh seed, cycling through the ten
algorithms, so each one misses the answer cache and walks its own
fleet.  ``serve-hot`` draws queries Zipf-like from a working set of 60
queries (under the cache's 1024 entries), warmed before timing, so
every timed query is a cache hit.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.experiments.algorithms import ALL_ALGORITHM_ORDER
from repro.experiments.runner import run_trials_prefix
from repro.utils.rng import derive_seed

from perfbench.common import (
    NODES,
    ROOT,
    SMOKE_NODES,
    WORK_DIR,
    build_graph,
    build_suite,
    cpu_seconds,
    digest,
    peak_rss_mb,
    python_env,
)
from perfbench.layers import layer_metrics
from perfbench.tracing import NoTracer

#: Target pairs the queries draw from; every one has thousands of edges.
PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
BUDGET = 1000
REPETITIONS = 20  # the service default
#: Closed-loop clients: one per core, so the numbers measure the server.
CLIENTS = len(os.sched_getaffinity(0))
WORKING_SET = 60
#: Timed requests per run at least: p99 then has ten samples beyond it.
MIN_REQUESTS = 1000
#: With the warm-up, a cold run puts more answers than the cache's 1024
#: entries, so the timed phase also evicts.
COLD_WARMUP = 30
SMOKE_MIN_REQUESTS = 20
#: Requests per window of the windowed throughput.
RATE_WINDOW = 100
#: Server boots per run; setup_s is their median.
BOOTS = 5
#: Answers recomputed with the batch harness after the timed phase.
RECOMPUTED = 8
BOOT_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# the query streams: pure functions of the workload seed
# ----------------------------------------------------------------------
def _query(seed: int, kind: str, index: int) -> Dict[str, object]:
    t1, t2 = PAIRS[derive_seed(seed, kind, "pair", index) % len(PAIRS)]
    return {
        "algorithm": ALL_ALGORITHM_ORDER[index % len(ALL_ALGORITHM_ORDER)],
        "t1": t1,
        "t2": t2,
        "budget": BUDGET,
        "seed": derive_seed(seed, kind, "seed", index) % 2**31,
        "repetitions": REPETITIONS,
    }


class QueryStream:
    """The queries a serve workload sends, in order.

    :meth:`warmup` lists what is sent before timing (cold: the first
    queries of the stream; hot: the whole working set) and
    :meth:`query` the *index*-th timed query.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        if workload == "serve-hot":
            self.working_set = [_query(seed, "hot", i) for i in range(WORKING_SET)]
            weights = 1.0 / np.arange(1, WORKING_SET + 1)
            rng = np.random.default_rng(derive_seed(seed, "zipf"))
            self._draws = rng.choice(WORKING_SET, size=1 << 16, p=weights / weights.sum())

    def warmup(self) -> List[Dict[str, object]]:
        if self.workload == "serve-hot":
            return list(self.working_set)
        return [_query(self.seed, "cold", i) for i in range(COLD_WARMUP)]

    def query(self, index: int) -> Dict[str, object]:
        if self.workload == "serve-hot":
            return self.working_set[int(self._draws[index % len(self._draws)])]
        return _query(self.seed, "cold", COLD_WARMUP + index)


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def request(port: int, method: str, path: str, payload=None) -> Tuple[int, Dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Reply(NamedTuple):
    index: int
    query: Dict[str, object]
    start: float
    end: float
    status: int
    body: Dict


def closed_loop(port, queries, clients: int, seconds: float, minimum: int):
    """Each client sends its next query when its last answer arrives.

    *queries* maps a sequence number to a query; clients take numbers
    from one shared counter, so the traffic is the same on every run.
    Runs for *seconds* and until at least *minimum* were sent.  Returns
    the :class:`Reply` list in sequence order and the wall time.
    """
    results = []
    lock = threading.Lock()
    issued = [0]
    stop = threading.Event()
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        while not stop.is_set():
            with lock:
                index = issued[0]
                if index >= minimum and time.perf_counter() >= deadline:
                    return
                issued[0] += 1
            query = queries(index)
            begin = time.perf_counter()
            try:
                status, body = request(port, "POST", "/estimate", query)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                status, body = 0, {"error": repr(exc)}
            results.append(Reply(index, query, begin, time.perf_counter(), status, body))

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:  # an interrupted run stops its clients before the server
        stop.set()
        for thread in threads:
            thread.join()
    return sorted(results), time.perf_counter() - started


# ----------------------------------------------------------------------
# the server child
# ----------------------------------------------------------------------
def _shm_segments() -> set:
    shm = Path("/dev/shm")
    return {entry.name for entry in shm.iterdir()} if shm.is_dir() else set()


class Server:
    """One :mod:`perfbench.server_main` child, from spawn to clean exit."""

    def __init__(self, nodes: int, trace_out: Optional[Path] = None) -> None:
        command = [sys.executable, "-m", "perfbench.server_main", "--nodes", str(nodes)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        self._segments_before = _shm_segments()
        started = time.perf_counter()
        self.child = subprocess.Popen(
            command, cwd=str(ROOT), env=python_env(), stdout=subprocess.PIPE, text=True
        )
        self.pid = self.child.pid
        # A reader thread owns stdout, so waiting for a line can time out.
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump)
        self._reader.start()
        self.segment = self.port = None
        try:
            self._await_listening(started + BOOT_TIMEOUT)
            while not self._healthy():
                if time.perf_counter() > started + BOOT_TIMEOUT:
                    raise RuntimeError("server never reported healthy")
                time.sleep(0.002)
        except BaseException:
            self.child.kill()
            self.child.wait()
            self._reader.join()
            raise
        self.setup_seconds = time.perf_counter() - started

    def _pump(self) -> None:
        with self.child.stdout:
            for line in self.child.stdout:
                self._lines.put(line)
        self._lines.put(None)

    def _healthy(self) -> bool:
        try:
            return request(self.port, "GET", "/healthz")[0] == 200
        except OSError:
            return False

    def _await_listening(self, deadline: float) -> None:
        while self.port is None:
            line = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            if line is None:
                raise RuntimeError(f"server exited during boot ({self.child.wait()})")
            if "shm segment" in line:
                self.segment = line.split()[-1]
            elif "listening on http://" in line:
                address = line.split("listening on http://")[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])

    def stop(self) -> List[str]:
        """SIGTERM (graceful drain), wait, and check nothing leaked."""
        self.child.send_signal(signal.SIGTERM)
        problems = []
        try:
            self.child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
            problems.append("server did not exit within 60 s of SIGTERM")
        self._reader.join()
        tail = "".join(iter(self._lines.get_nowait, None))
        if self.child.returncode != 0:
            problems.append(f"server exited with code {self.child.returncode}")
        if "shutdown complete" not in tail:
            problems.append("server skipped its graceful shutdown")
        leaked = _shm_segments() - self._segments_before
        if self.segment is None or self.segment in _shm_segments():
            leaked.add(self.segment or "<unknown segment>")
        if leaked:
            problems.append(f"leaked shared-memory segments: {sorted(leaked)}")
        spilled = [path.name for path in (WORK_DIR / "spill").glob("*")]
        if spilled:
            problems.append(f"leaked spill files: {spilled}")
        return problems


# ----------------------------------------------------------------------
# one measured phase against one server
# ----------------------------------------------------------------------
def measure(server: Server, stream: QueryStream, seconds: float, minimum: int) -> Dict:
    warm_queries = stream.warmup()
    warm, _ = closed_loop(server.port, warm_queries.__getitem__, CLIENTS, 0.0, len(warm_queries))
    before = request(server.port, "GET", "/stats")[1]
    server_cpu, own_cpu = cpu_seconds(server.pid), time.process_time()
    window_start = time.perf_counter_ns()
    timed, wall = closed_loop(server.port, stream.query, CLIENTS, seconds, minimum)
    window = (window_start, time.perf_counter_ns())
    server_cpu, own_cpu = cpu_seconds(server.pid) - server_cpu, time.process_time() - own_cpu
    after = request(server.port, "GET", "/stats")[1]

    def delta(*path) -> float:
        old, new = before, after
        for key in path:
            old, new = old[key], new[key]
        return new - old

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    latencies = [(reply.end - reply.start) * 1e3 for reply in timed]
    return {
        "warm": warm,
        "timed": timed,
        "wall": wall,
        "window": window,
        "peak_rss_mb": peak_rss_mb(server.pid),
        "service": {
            "service.core.steps_per_s": after["fleets"]["steps_per_second"],
            "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.cache.evictions": after["cache"]["evictions"],
            "service.errors": delta("queries", "errors"),
            "resilience.degraded_served": delta("resilience", "degraded_served"),
            "resilience.deadline_misses": delta("resilience", "deadline_misses"),
            "server.cpu_util": server_cpu / wall,
            "loadgen.cpu_util": own_cpu / wall,
            "client_p50_ms": float(np.median(latencies)),
        },
    }

def _answer_problems(reply: Reply, counts, cached: bool) -> List[str]:
    index, query, _, _, status, body = reply
    if status != 200:
        return [f"query {index}: HTTP {status} {body.get('error', '')}"]
    problems = []
    if len(body["estimates"]) != query["repetitions"]:
        problems.append(f"query {index}: {len(body['estimates'])} estimates")
    if not all(math.isfinite(value) for value in body["estimates"]):
        problems.append(f"query {index}: non-finite estimate")
    if min(body["api_calls"]) <= 0:
        problems.append(f"query {index}: a walker charged no calls")
    if body["cached"] is not cached or body["degraded"]:
        problems.append(f"query {index}: cached={body['cached']} degraded={body['degraded']}")
    if body["true_count"] != counts[(query["t1"], query["t2"])]:
        problems.append(f"query {index}: wrong true count {body['true_count']}")
    return problems


def check_phase(phase: Dict, workload: str, seed: int, graph, suite, counts) -> Tuple[int, List[str]]:
    """Output checks; returns (failed timed requests, problems)."""
    problems = []
    walked = {}
    for reply in phase["warm"]:
        problems.extend(_answer_problems(reply, counts, cached=False))
        walked[json.dumps(reply.query, sort_keys=True)] = reply.body
    failed = 0
    hot = workload == "serve-hot"
    for reply in phase["timed"]:
        found = _answer_problems(reply, counts, cached=hot)
        if hot and not found:
            first = walked[json.dumps(reply.query, sort_keys=True)]
            if (reply.body["estimates"], reply.body["api_calls"]) != (
                first.get("estimates"), first.get("api_calls")
            ):
                found.append(f"query {reply.index}: cache hit differs from the walked answer")
        failed += bool(found)
        problems.extend(found)

    # Bit-identity with the batch harness on a seeded sample, after the
    # timed phase so it does not compete for the cores.
    pool = phase["warm"] if hot else phase["timed"]
    pool = [reply for reply in pool if reply.status == 200]
    rng = np.random.default_rng(derive_seed(seed, "recompute"))
    for pick in rng.choice(len(pool), size=min(RECOMPUTED, len(pool)), replace=False):
        index, query, _, _, _, body = pool[int(pick)]
        [outcome] = run_trials_prefix(
            graph,
            query["t1"],
            query["t2"],
            suite[query["algorithm"]],
            query["algorithm"],
            [query["budget"]],
            query["repetitions"],
            body["burn_in"],
            seed=derive_seed(query["seed"], query["algorithm"], "prefix"),
        )
        if (outcome.estimates, outcome.api_calls) != (body["estimates"], body["api_calls"]):
            problems.append(f"query {index}: served answer differs from run_trials_prefix")
            failed += 1
    return failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Dict:
    nodes = SMOKE_NODES if smoke else NODES
    minimum = SMOKE_MIN_REQUESTS if smoke else MIN_REQUESTS
    graph = build_graph(NoTracer(), nodes)
    suite = build_suite(NoTracer(), graph)
    counts = {pair: graph.count_target_edges(*pair) for pair in PAIRS}
    if min(counts.values()) <= 0:
        raise RuntimeError(f"a query pair has no target edges: {counts}")
    stream = QueryStream(workload, seed)
    for directory in ("tmp", "spill"):
        (WORK_DIR / directory).mkdir(parents=True, exist_ok=True)

    problems: List[str] = []
    setups = []
    boots = 2 if smoke else BOOTS
    for boot in range(boots):
        server = Server(nodes)
        setups.append(server.setup_seconds)
        if boot < boots - 1:
            problems.extend(server.stop())
    try:
        phase = measure(server, stream, seconds, minimum)
    finally:
        problems.extend(server.stop())

    traced_phase = None
    if trace:
        trace_out = WORK_DIR / f"spans-{workload}.json"
        trace_out.unlink(missing_ok=True)
        server = Server(nodes, trace_out=trace_out)
        try:
            traced_phase = measure(server, stream, seconds, minimum)
        finally:
            problems.extend(server.stop())
        recorded = json.loads(trace_out.read_text())
        trace_out.unlink()

    failed, found = check_phase(phase, workload, seed, graph, suite, counts)
    problems.extend(found)
    attempted = len(phase["timed"])
    first = min(reply.start for reply in phase["timed"])
    result = {
        "operations": [reply.end - reply.start for reply in phase["timed"]],
        "operation": "request",
        "completions": sorted(reply.end - first for reply in phase["timed"]),
        "rate_window": RATE_WINDOW,
        "setups": setups,
        "peak_rss_mb": phase["peak_rss_mb"],
        "problems": problems,
        "output_digest": digest(
            (reply.body.get("estimates", []), reply.body.get("api_calls", []))
            for reply in phase["warm"]
        ),
    }
    if traced_phase is not None:
        traced_failed, found = check_phase(traced_phase, workload, seed, graph, suite, counts)
        problems.extend(found)
        failed += traced_failed
        attempted += len(traced_phase["timed"])
        result["per_layer"] = layer_metrics(
            recorded["spans"],
            recorded["counters"],
            window=traced_phase["window"],
            service=traced_phase["service"],
        )
        result["traced_operations"] = [
            reply.end - reply.start for reply in traced_phase["timed"]
        ]
    result["attempted"] = attempted
    result["failed"] = failed
    return result
