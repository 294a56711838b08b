"""Any JSON a client sends to ``POST /estimate`` is answered below 500.

Every payload field is drawn either well-formed (from small ranges, so
valid queries walk small fleets) or as an arbitrary JSON value of any
type.  A malformed field is the client's fault: it must get a 4xx, and
it must never reach a fleet, where a failure would count against the
algorithm's circuit breaker.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import BASELINE_NAMES
from repro.core.pipeline import available_algorithms
from repro.service import EstimationService
from repro.service.batcher import MicroBatcher
from repro.service.http import _dispatch

BURN_IN = 5  # matches the conftest fixtures
ALGORITHMS = tuple(available_algorithms()) + tuple(BASELINE_NAMES)

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)

JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=4,
)


def _field(well_formed):
    return st.one_of(well_formed, JSON_VALUES)


PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "algorithm": _field(st.sampled_from(ALGORITHMS)),
        "t1": _field(st.sampled_from((1, 2))),
        "t2": _field(st.sampled_from((1, 2))),
        "budget": _field(st.integers(1, 25)),
        "seed": _field(st.integers(-5, 5)),
        "repetitions": _field(st.integers(1, 3)),
        "burn_in": _field(st.integers(0, 8)),
        "deadline_ms": _field(st.integers(30_000, 60_000) | st.floats(30_000.0, 60_000.0)),
    },
)


def _post(service, payload):
    async def scenario():
        batcher = MicroBatcher(service, window_seconds=0.0)
        status, body, _ = await _dispatch(
            service, batcher, "POST", "/estimate", json.dumps(payload).encode("utf-8")
        )
        return status, body

    return asyncio.run(scenario())


@pytest.fixture(scope="module")
def warm_service(serving_graph):
    """A RAM service whose breakers all exist before any example runs."""
    with EstimationService(
        serving_graph,
        graph_store="ram",
        default_repetitions=2,
        default_burn_in=BURN_IN,
        name="test-payloads",
    ) as service:
        assert sorted(service.algorithms) == sorted(ALGORITHMS)
        for algorithm in ALGORITHMS:
            status, body = _post(
                service, {"algorithm": algorithm, "t1": 1, "t2": 2, "budget": 5}
            )
            assert status == 200, body
        yield service


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=PAYLOADS)
def test_any_json_payload_is_answered_below_500(warm_service, payload):
    before = warm_service.breakers.snapshot()
    status, body = _post(warm_service, payload)
    assert status < 500, (payload, status, body)
    assert warm_service.breakers.snapshot() == before


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "abc"),
        ("seed", None),
        ("seed", float("inf")),
        ("seed", 1.5),
        ("seed", True),
        ("burn_in", None),
        ("burn_in", 1.5),
        ("t1", [1]),
        ("t2", {"a": 1}),
        ("deadline_ms", float("nan")),
        ("deadline_ms", float("inf")),
        ("deadline_ms", True),
        pytest.param("deadline_ms", 10**400, id="deadline_ms-beyond-float"),
    ],
)
def test_malformed_field_is_a_client_error(warm_service, field, value):
    payload = {"algorithm": "NeighborSample-HH", "t1": 1, "t2": 2, "budget": 5, field: value}
    before = warm_service.breakers.snapshot()
    status, body = _post(warm_service, payload)
    assert status == 400, body
    assert field in body["error"]
    assert warm_service.breakers.snapshot() == before


def test_malformed_payload_is_refused_before_its_deadline_starts(warm_service):
    """Validation precedes the deadline clock: however short the deadline, a
    payload without labels is a 400, never a 504, and moves no breaker."""
    before = warm_service.breakers.snapshot()
    status, body = _post(warm_service, {"budget": 5, "deadline_ms": 0.001})
    assert status == 400, body
    assert "t1 and t2" in body["error"]
    assert warm_service.breakers.snapshot() == before
