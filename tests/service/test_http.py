"""ServiceHTTPServer: the dependency-free asyncio transport.

Each test boots the server on an ephemeral port inside its own event
loop and speaks raw HTTP/1.1 over ``asyncio.open_connection`` — the
same wire path the CI smoke job exercises from a separate process.
"""

import asyncio
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.service import ServiceHTTPServer, run_server
from repro.service import http as service_http
from repro.service.http import MAX_BODY_BYTES, MAX_HEADERS, MAX_LINE_BYTES

BURN_IN = 5  # matches the conftest fixtures


async def _request(port, method, path, payload=None):
    """One HTTP round trip; returns (status_code, decoded JSON body)."""
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
    status = int(header_blob.split()[1])
    return status, json.loads(body_blob.decode("utf-8"))


def _run(service, scenario):
    """Boot the server, run *scenario(port)*, always stop the server."""

    async def harness():
        server = ServiceHTTPServer(service, port=0, window_seconds=0.005)
        await server.start()
        try:
            return await scenario(server.port)
        finally:
            await server.stop()

    return asyncio.run(harness())


def _estimate_payload(**overrides):
    payload = dict(
        algorithm="NeighborSample-HH", t1=1, t2=2, budget=15,
        seed=7, repetitions=6, burn_in=BURN_IN,
    )
    payload.update(overrides)
    return payload


class TestEndpoints:
    def test_healthz(self, ram_service):
        async def scenario(port):
            return await _request(port, "GET", "/healthz")

        status, body = _run(ram_service, scenario)
        assert status == 200
        assert body["status"] == "ok"
        assert body["graph_version"] == 1
        assert body["open_breakers"] == []
        assert body["queue_depth"] == 0

    def test_estimate_round_trip(self, ram_service):
        async def scenario(port):
            return await _request(
                port, "POST", "/estimate", _estimate_payload()
            )

        status, body = _run(ram_service, scenario)
        assert status == 200
        assert body["algorithm"] == "NeighborSample-HH"
        assert body["budget"] == 15
        assert len(body["estimates"]) == 6
        assert body["true_count"] > 0
        assert body["cached"] is False
        assert body["mean_estimate"] == pytest.approx(
            sum(body["estimates"]) / len(body["estimates"])
        )

    def test_repeat_query_is_served_from_cache(self, ram_service):
        async def scenario(port):
            first = await _request(port, "POST", "/estimate", _estimate_payload())
            second = await _request(port, "POST", "/estimate", _estimate_payload())
            stats = await _request(port, "GET", "/stats")
            return first, second, stats

        (_, first), (_, second), (_, stats) = _run(ram_service, scenario)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["estimates"] == first["estimates"]
        assert stats["cache"]["hit_rate"] > 0

    def test_stats_shape(self, ram_service):
        async def scenario(port):
            await _request(port, "POST", "/estimate", _estimate_payload())
            return await _request(port, "GET", "/stats")

        status, stats = _run(ram_service, scenario)
        assert status == 200
        assert stats["graph"]["store"] == "ram"
        assert stats["graph"]["num_nodes"] == 250
        assert stats["fleets"]["built"] == 1
        assert stats["fleets"]["steps_walked"] > 0
        assert stats["queries"]["served"] == 1
        assert stats["batcher"]["queries_submitted"] == 1
        assert "NeighborSample-HH" in stats["algorithms"]


class TestConcurrentClients:
    def test_wire_clients_in_one_window_share_a_fleet(self, ram_service):
        before = ram_service.fleets_built

        async def scenario(port):
            return await asyncio.gather(
                _request(port, "POST", "/estimate", _estimate_payload(budget=10)),
                _request(port, "POST", "/estimate", _estimate_payload(budget=40)),
                _request(port, "POST", "/estimate", _estimate_payload(budget=25)),
            )

        responses = _run(ram_service, scenario)
        assert all(status == 200 for status, _ in responses)
        assert sorted(body["budget"] for _, body in responses) == [10, 25, 40]
        assert ram_service.fleets_built - before == 1


class TestErrorContract:
    def test_unknown_route_is_404(self, ram_service):
        async def scenario(port):
            return await _request(port, "GET", "/nope")

        status, body = _run(ram_service, scenario)
        assert status == 404
        assert "error" in body

    def test_malformed_json_is_400(self, ram_service):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            body = b"{not json"
            head = (
                f"POST /estimate HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            return int(raw.split()[1])

        assert _run(ram_service, scenario) == 400

    def test_non_object_body_is_400(self, ram_service):
        async def scenario(port):
            return await _request(port, "POST", "/estimate", [1, 2, 3])

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "JSON object" in body["error"]

    def test_unknown_algorithm_is_400_with_reason(self, ram_service):
        async def scenario(port):
            return await _request(
                port, "POST", "/estimate",
                _estimate_payload(algorithm="NoSuchAlgorithm"),
            )

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "NoSuchAlgorithm" in body["error"]

    def test_zero_target_pair_is_400(self, ram_service):
        async def scenario(port):
            return await _request(
                port, "POST", "/estimate",
                _estimate_payload(t1="ghost", t2="ghost"),
            )

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "no target edges" in body["error"]

    def test_missing_required_fields_is_400(self, ram_service):
        async def scenario(port):
            return await _request(port, "POST", "/estimate", {"budget": 10})

        status, body = _run(ram_service, scenario)
        assert status == 400
        assert "t1" in body["error"]


async def _raw_exchange(port, data):
    """Send raw bytes, half-close, return (status code, JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    await writer.drain()
    writer.write_eof()
    raw = await asyncio.wait_for(reader.read(), timeout=10)
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    return int(header_blob.split()[1]), json.loads(body_blob.decode("utf-8"))


class TestRequestLimits:
    """Oversized or malformed framing gets a typed 4xx, never a dropped
    connection, a hang or an unhandled exception on the loop."""

    @staticmethod
    def _exchange(service, data):
        errors = []

        async def scenario(port):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            return await _raw_exchange(port, data)

        response = _run(service, scenario)
        assert errors == []
        return response

    def test_over_long_header_line_is_431(self, ram_service):
        line = b"X-Padding: " + b"a" * (MAX_LINE_BYTES + 1) + b"\r\n"
        status, body = self._exchange(
            ram_service, b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n"
        )
        assert status == 431
        assert str(MAX_LINE_BYTES) in body["error"]

    def test_over_long_request_line_is_431(self, ram_service):
        path = b"/" + b"a" * (MAX_LINE_BYTES + 1)
        status, _ = self._exchange(ram_service, b"GET " + path + b" HTTP/1.1\r\n\r\n")
        assert status == 431

    def test_too_many_header_lines_is_431(self, ram_service):
        headers = b"".join(b"X-%d: 1\r\n" % index for index in range(MAX_HEADERS + 1))
        status, body = self._exchange(
            ram_service, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 431
        assert str(MAX_HEADERS) in body["error"]

    def test_header_count_at_the_limit_is_served(self, ram_service):
        headers = b"".join(b"X-%d: 1\r\n" % index for index in range(MAX_HEADERS))
        status, body = self._exchange(
            ram_service, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 200
        assert body["status"] == "ok"

    @pytest.mark.parametrize(
        "declared", [b"1000000000", b"9" * 5000], ids=["1e9", "5000-digits"]
    )
    def test_content_length_above_limit_is_413(self, ram_service, declared):
        status, body = self._exchange(
            ram_service,
            b"POST /estimate HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\n{}",
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]

    @pytest.mark.parametrize("declared", [b"-5", b"12abc", b""])
    def test_malformed_content_length_is_400(self, ram_service, declared):
        status, body = self._exchange(
            ram_service,
            b"POST /estimate HTTP/1.1\r\nContent-Length: " + declared + b"\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_body_at_the_limit_is_read(self, ram_service):
        body = json.dumps(_estimate_payload()).encode("utf-8")
        body += b" " * (MAX_BODY_BYTES - len(body))
        # Leading zeros do not count against the limit.
        head = b"POST /estimate HTTP/1.1\r\nContent-Length: 00%d\r\n\r\n" % len(body)
        status, answer = self._exchange(ram_service, head + body)
        assert status == 200
        assert len(answer["estimates"]) == 6

    # -- read deadline: a stalled client is answered 408, not held --------
    @staticmethod
    async def _stalled_exchange(port, data):
        """Send *data* without half-closing; return the raw response."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(data)
            await writer.drain()
            return await asyncio.wait_for(reader.read(), timeout=5)
        finally:
            writer.close()
            await writer.wait_closed()

    @pytest.fixture
    def short_read_timeout(self, monkeypatch):
        monkeypatch.setattr(service_http, "READ_TIMEOUT_SECONDS", 0.2)

    @pytest.mark.parametrize(
        "data",
        [b"POST /estimate HTTP/1.1\r\nContent-Length: 10\r\n\r\n", b""],
        ids=["headers-only", "silent"],
    )
    def test_stalled_request_is_408_and_closed(
        self, ram_service, short_read_timeout, data
    ):
        errors = []

        async def scenario(port):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            return await self._stalled_exchange(port, data)

        raw = _run(ram_service, scenario)
        assert errors == []
        header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        assert header_blob.startswith(b"HTTP/1.1 408 Request Timeout")
        assert "0.2 seconds" in json.loads(body_blob)["error"]

    def test_estimate_time_is_not_bounded_by_the_read_deadline(
        self, ram_service, short_read_timeout
    ):
        async def scenario():
            # The batch window alone outlasts the read deadline.
            server = ServiceHTTPServer(ram_service, port=0, window_seconds=0.5)
            await server.start()
            try:
                return await _request(server.port, "POST", "/estimate", _estimate_payload())
            finally:
                await server.stop()

        status, body = asyncio.run(scenario())
        assert status == 200
        assert len(body["estimates"]) == 6

    def test_stop_with_a_reader_mid_read_logs_nothing(
        self, ram_service, short_read_timeout
    ):
        errors = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            server = ServiceHTTPServer(ram_service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
            await writer.drain()
            try:
                await asyncio.sleep(0.05)  # the handler is now inside readline
                await asyncio.wait_for(server.stop(), timeout=5)
                # Nothing is left for the loop's shutdown to cancel.
                running = [
                    task for task in asyncio.all_tasks()
                    if task is not asyncio.current_task() and not task.done()
                ]
                return running, await asyncio.wait_for(reader.read(), timeout=5)
            finally:
                writer.close()
                await writer.wait_closed()

        running, raw = asyncio.run(scenario())
        assert running == []
        assert raw.startswith(b"HTTP/1.1 408 ")
        assert errors == []


class TestRunServer:
    def test_only_the_stdlib_transport_exists(self, ram_service):
        with pytest.raises(ConfigurationError, match="stdlib"):
            run_server(ram_service, port=0, transport="fastapi")
