"""Resilience policies threaded through the serving layer.

Breaker trips, degraded stale-cache serving, deadline propagation and
admission control — exercised against the real engine with faults
injected at the production ``fire`` sites, plus the HTTP status/header
contract (503/504/429 + ``Retry-After``) over the wire.

No pytest-asyncio in the container — each test drives its own event
loop with ``asyncio.run``.
"""

import asyncio
import json
import threading

import pytest

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ServiceOverloadedError,
)
from repro.resilience import (
    Deadline,
    FaultInjector,
    FaultPlan,
    InjectedFaultError,
    install_injector,
)
from repro.service import EstimationService, MicroBatcher, ServiceHTTPServer
from repro.service.cache import AnswerCache
from repro.service.core import MAX_QUERY_STEPS

BURN_IN = 5  # matches the conftest fixtures
ALGO = "NeighborSample-HH"


@pytest.fixture(autouse=True)
def clean_ambient():
    previous = install_injector(None)
    yield
    install_injector(previous)


@pytest.fixture
def breaker_service(serving_graph):
    """A service with a fast breaker (2 failures trip, 50 ms cooldown)."""
    with EstimationService(
        serving_graph,
        graph_store="ram",
        default_repetitions=6,
        default_burn_in=BURN_IN,
        name="test-resilience",
        breaker_threshold=2,
        breaker_cooldown_seconds=0.05,
    ) as service:
        yield service


def _query(**overrides) -> dict:
    fields = dict(
        algorithm=ALGO, t1=1, t2=2, budget=20,
        seed=7, repetitions=6, burn_in=BURN_IN,
    )
    fields.update(overrides)
    return fields


def _inject(plan_text: str) -> FaultInjector:
    injector = FaultInjector(FaultPlan.parse(plan_text))
    install_injector(injector)
    return injector


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestBreakerAndDegradedServing:
    def test_trip_degrade_probe_recover(self, breaker_service):
        service = breaker_service
        warm = service.estimate(_query(budget=30))  # the stale fallback
        assert not warm.degraded

        _inject("fleet.run=error,count=2")
        for seed in (1, 2):
            with pytest.raises(InjectedFaultError):
                service.estimate(_query(budget=10, seed=seed))

        # Two consecutive fleet failures: the breaker is open, the
        # service degraded, and the pair is served from stale cache
        # without walking.
        assert service.health() == {
            "status": "degraded", "graph_version": 1, "open_breakers": [ALGO],
        }
        fleets_before = service.fleets_built
        degraded = service.estimate(_query(budget=10, seed=3))
        assert degraded.degraded and degraded.cached
        assert degraded.budget == 30  # the fallback's own budget, echoed
        assert service.fleets_built == fleets_before  # never walked
        assert service.degraded_served == 1
        assert service.stats()["resilience"]["breakers"][ALGO]["trips"] == 1

        # A pair with no cached answer cannot degrade: typed 503.
        with pytest.raises(CircuitOpenError) as excinfo:
            service.estimate(_query(t1=2, t2=2, budget=10))
        assert excinfo.value.algorithm == ALGO
        assert excinfo.value.retry_after >= 0.0

        # Cooldown elapses; the injector's budget is spent, so the
        # half-open probe succeeds and closes the breaker.
        import time

        time.sleep(0.06)
        probed = service.estimate(_query(budget=10, seed=3))
        assert not probed.degraded
        assert service.health()["status"] == "ok"

    def test_degraded_answer_requires_a_version_matched_pair(self, breaker_service):
        assert breaker_service.degraded_answer(_query()) is None  # cold cache
        breaker_service.estimate(_query(budget=30))
        assert breaker_service.degraded_answer(_query(t1=2, t2=2)) is None
        assert breaker_service.degraded_answer({"nonsense": True}) is None


class TestFindStale:
    KEY = (1, ALGO, 1, 2)

    def _cache(self):
        cache = AnswerCache(8)
        cache.put(self.KEY + (10, 7, 6, 5), "budget-10")
        cache.put(self.KEY + (40, 9, 6, 5), "budget-40")
        cache.put(self.KEY + (25, 7, 6, 5), "budget-25")
        return cache

    def test_returns_the_largest_budget_match(self):
        cache = self._cache()
        assert cache.find_stale(1, ALGO, 1, 2) == "budget-40"
        assert cache.stats()["stale_hits"] == 1

    def test_version_and_pair_must_match_exactly(self):
        cache = self._cache()
        assert cache.find_stale(2, ALGO, 1, 2) is None  # old graph: unusable
        assert cache.find_stale(1, ALGO, 1, 3) is None
        assert cache.find_stale(1, "Other", 1, 2) is None

    def test_short_foreign_keys_are_ignored(self):
        cache = self._cache()
        cache.put(("weird",), "not an answer")
        assert cache.find_stale(1, ALGO, 1, 2) == "budget-40"


class TestDeadlinePropagation:
    def test_expired_query_is_answered_504_without_walking(self, ram_service):
        clock = FakeClock()
        deadline = Deadline(0.05, clock=clock)
        clock.advance(1.0)
        fleets_before = ram_service.fleets_built
        (result,) = ram_service.estimate_many([_query()], deadlines=[deadline])
        assert isinstance(result, DeadlineExceededError)
        assert ram_service.fleets_built == fleets_before
        assert ram_service.deadline_misses == 1

    def test_expired_member_does_not_starve_its_batch_mates(self, ram_service):
        clock = FakeClock()
        expired = Deadline(0.05, clock=clock)
        clock.advance(1.0)
        late, patient = ram_service.estimate_many(
            [_query(budget=10), _query(budget=40)], deadlines=[expired, None]
        )
        assert isinstance(late, DeadlineExceededError)
        assert patient.budget == 40 and len(patient.estimates) == 6

    def test_batcher_answers_504_at_the_deadline(self, ram_service):
        # A fleet held up by an injected delay: the event loop gives up
        # at the deadline instead of riding out the walk.
        _inject("fleet.run=delay,seconds=0.4,count=1")
        batcher = MicroBatcher(ram_service, 0.005)

        async def scenario():
            with pytest.raises(DeadlineExceededError):
                await batcher.submit(_query(), deadline_seconds=0.08)

        asyncio.run(scenario())
        assert batcher.deadline_timeouts == 1


class _GatedService:
    """Holds estimate_many open until the test releases it."""

    def __init__(self, service):
        self.service = service
        self.started = threading.Event()
        self.release = threading.Event()

    def install(self, monkeypatch):
        real = self.service.estimate_many

        def gated(queries, deadlines=None):
            self.started.set()
            assert self.release.wait(10), "gate never released"
            if deadlines is not None:
                return real(queries, deadlines=deadlines)
            return real(queries)

        monkeypatch.setattr(self.service, "estimate_many", gated)

    async def wait_started(self):
        while not self.started.is_set():
            await asyncio.sleep(0.001)


class TestAdmissionControl:
    def test_overflow_without_a_fallback_is_a_fast_429(
        self, ram_service, monkeypatch
    ):
        gate = _GatedService(ram_service)
        gate.install(monkeypatch)
        batcher = MicroBatcher(ram_service, 0.005, max_in_flight=1)

        async def scenario():
            first = asyncio.ensure_future(batcher.submit(_query(budget=10)))
            await gate.wait_started()  # slot held, engine mid-"walk"
            with pytest.raises(ServiceOverloadedError) as excinfo:
                await batcher.submit(_query(budget=25))
            assert excinfo.value.limit == 1
            assert excinfo.value.retry_after > 0
            gate.release.set()
            return await first

        answer = asyncio.run(scenario())
        assert answer.budget == 10
        assert batcher.stats()["admission"]["rejections"] == 1

    def test_overflow_with_a_stale_match_is_shed_to_degraded(
        self, ram_service, monkeypatch
    ):
        warm = ram_service.estimate(_query(budget=30))
        assert not warm.degraded
        gate = _GatedService(ram_service)
        gate.install(monkeypatch)
        batcher = MicroBatcher(ram_service, 0.005, max_in_flight=1)

        async def scenario():
            first = asyncio.ensure_future(batcher.submit(_query(budget=10, seed=5)))
            await gate.wait_started()
            shed = await batcher.submit(_query(budget=10, seed=6))
            gate.release.set()
            return shed, await first

        shed, served = asyncio.run(scenario())
        assert shed.degraded and shed.cached and shed.budget == 30
        assert not served.degraded
        assert batcher.queries_shed == 1


# ----------------------------------------------------------------------
# the wire contract: statuses and Retry-After headers
# ----------------------------------------------------------------------
async def _raw_request(port, method, path, payload=None):
    """One HTTP round trip; returns (status, headers dict, decoded body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: 127.0.0.1\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("ascii") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, json.loads(body_blob.decode("utf-8"))


def _run_server(service, scenario, **server_kwargs):
    async def harness():
        server = ServiceHTTPServer(
            service, port=0, window_seconds=0.005, **server_kwargs
        )
        await server.start()
        try:
            return await scenario(server.port)
        finally:
            await server.stop()

    return asyncio.run(harness())


class TestResilienceOverHTTP:
    def test_deadline_ms_in_the_body_maps_to_504(self, ram_service):
        _inject("fleet.run=delay,seconds=0.4,count=1")

        async def scenario(port):
            return await _raw_request(
                port, "POST", "/estimate", dict(_query(), deadline_ms=60)
            )

        status, _, body = _run_server(ram_service, scenario)
        assert status == 504
        assert "deadline" in body["error"]

    def test_bad_deadline_ms_is_400(self, ram_service):
        async def scenario(port):
            return await _raw_request(
                port, "POST", "/estimate", dict(_query(), deadline_ms=-5)
            )

        status, _, body = _run_server(ram_service, scenario)
        assert status == 400
        assert "deadline_ms" in body["error"]

    def test_budget_above_the_node_count_is_400_and_moves_no_breaker(
        self, breaker_service
    ):
        """A crawl downloads at most one page per node, so a larger
        budget is a client error: typed 400, no walk, no breaker entry."""
        num_nodes = breaker_service.csr.num_nodes
        before = breaker_service.breakers.snapshot()

        async def scenario(port):
            return [
                await _raw_request(port, "POST", "/estimate", _query(budget=budget))
                for budget in (num_nodes + 1, 15_000)
            ]

        responses = _run_server(breaker_service, scenario)
        assert [status for status, _, _ in responses] == [400, 400]
        assert all("budget" in body["error"] for _, _, body in responses)
        assert breaker_service.breakers.snapshot() == before
        assert breaker_service.fleets_built == 0

    @pytest.mark.parametrize("field", ["repetitions", "burn_in"])
    def test_query_beyond_the_step_limit_is_400_and_moves_no_breaker(
        self, breaker_service, field
    ):
        """repetitions × (burn_in + budget) prices a query's memory; a
        query over MAX_QUERY_STEPS is refused before any fleet allocates."""
        before = breaker_service.breakers.snapshot()

        async def scenario(port):
            return [
                await _raw_request(port, "POST", "/estimate", _query(**{field: 2**40}))
                for _ in range(3)  # the breaker trips at 2 fleet failures
            ]

        responses = _run_server(breaker_service, scenario)
        assert [status for status, _, _ in responses] == [400, 400, 400]
        assert all("walk steps" in body["error"] for _, _, body in responses)
        assert breaker_service.breakers.snapshot() == before
        assert breaker_service.fleets_built == 0

    def test_step_limit_is_inclusive_and_admits_paper_scale_queries(
        self, breaker_service
    ):
        normalize = breaker_service.normalize_query
        # 200 walkers × (300 burn-in + 5% of 10^6 nodes) ≈ 10.06M steps.
        assert normalize(_query(repetitions=200, burn_in=50_280, budget=20)).repetitions == 200
        limit = _query(repetitions=1, burn_in=MAX_QUERY_STEPS - 20, budget=20)
        assert normalize(limit).burn_in == MAX_QUERY_STEPS - 20
        with pytest.raises(ConfigurationError, match="walk steps"):
            normalize(dict(limit, burn_in=MAX_QUERY_STEPS - 19))

    def test_open_breaker_is_503_with_retry_after(self, breaker_service):
        _inject("fleet.run=error,count=2")

        async def scenario(port):
            failures = [
                await _raw_request(
                    port, "POST", "/estimate", _query(budget=10, seed=seed)
                )
                for seed in (1, 2)
            ]
            rejected = await _raw_request(
                port, "POST", "/estimate", _query(t1=2, t2=2, budget=10)
            )
            health = await _raw_request(port, "GET", "/healthz")
            return failures, rejected, health

        failures, rejected, health = _run_server(breaker_service, scenario)
        # Injected infrastructure faults travel the 500 path, not 400.
        assert [status for status, _, _ in failures] == [500, 500]
        status, headers, body = rejected
        assert status == 503
        assert int(headers["retry-after"]) >= 1
        assert "circuit breaker" in body["error"]
        status, _, body = health
        assert status == 200
        assert body["status"] == "degraded"
        assert body["open_breakers"] == [ALGO]
