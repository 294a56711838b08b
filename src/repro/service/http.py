"""HTTP transport for the estimation service.

:class:`ServiceHTTPServer` is a dependency-free asyncio HTTP/1.1 server
(``asyncio.start_server`` + a minimal request parser) over an
:class:`EstimationService` + :class:`MicroBatcher` pair.  It speaks
exactly the three endpoints below and nothing else, and bounds what a
client can make it buffer: a request or header line longer than
:data:`MAX_LINE_BYTES`, more than :data:`MAX_HEADERS` header lines, or a
``Content-Length`` above :data:`MAX_BODY_BYTES` is refused before
anything is read past the headers, and a request not fully received
within :data:`READ_TIMEOUT_SECONDS` is answered ``408``.

Endpoints:

* ``GET /healthz`` — real health, not an unconditional 200:
  ``{"status": "ok"|"degraded", "graph_version": N, "open_breakers":
  [...], "queue_depth": N}``.  ``degraded`` means some algorithm's
  circuit breaker is open or the admission queue is full; the process
  is still serving (from stale cache where it can).
* ``GET /stats`` — runtime snapshot: graph/publication info, cache hit
  rate, fleet count, steps walked per second, batcher queue depth,
  breaker states, degraded/deadline counters.
* ``POST /estimate`` — body ``{"t1": ..., "t2": ..., "budget": N,
  "algorithm"?, "seed"?, "repetitions"?, "burn_in"?, "deadline_ms"?}``;
  the request parks in the micro-batch window and returns the full
  :meth:`~repro.service.core.EstimateAnswer.to_dict` payload.

Failure-policy status codes (see ``docs/operations.md`` for the client
guidance):

========== ============================================ =================
status     meaning                                      client action
========== ============================================ =================
``400``    invalid query (unknown algorithm, bad        fix the request
           budget, zero-target pair) or malformed
           request (bad ``Content-Length``)
``408``    request line, headers and body not all       send the whole
           received within ``READ_TIMEOUT_SECONDS``     request at once
``413``    ``Content-Length`` above ``MAX_BODY_BYTES``  shrink the body
``431``    request/header line above                    shrink the
           ``MAX_LINE_BYTES``, or more than             headers
           ``MAX_HEADERS`` header lines
``429``    admission queue full, no cached fallback     back off for
           (``Retry-After`` header)                     ``Retry-After``
``503``    circuit breaker open, no cached fallback     back off for
           (``Retry-After`` header)                     ``Retry-After``
``504``    per-query deadline exceeded                  retry with a
                                                        larger deadline
``500``    unexpected engine failure                    report a bug
========== ============================================ =================
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
from typing import Dict, Optional, Set, Tuple

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
)
from repro.service.batcher import MicroBatcher
from repro.service.core import EstimationService

#: Longest request or header line accepted, terminator included (the
#: stream reader's buffer limit, so a longer line never accumulates).
MAX_LINE_BYTES = 64 * 1024

#: Most header lines accepted in one request.
MAX_HEADERS = 100

#: Largest request body accepted; an estimate query is a few hundred
#: bytes of JSON.
MAX_BODY_BYTES = 1024 * 1024

#: Seconds a client gets to deliver its request line, headers and body;
#: a connection still short of its request then is answered 408 and
#: closed.  Only the reads are bounded, never the estimate itself.
READ_TIMEOUT_SECONDS = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: The (status, payload, extra headers) triple every route resolves to.
Response = Tuple[int, Dict, Dict[str, str]]


def _retry_after_header(seconds: float) -> Dict[str, str]:
    """An RFC-compliant integral ``Retry-After``, rounded up, >= 1."""
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


def _service_stats(service: EstimationService, batcher: MicroBatcher) -> Dict:
    stats = service.stats()
    stats["batcher"] = batcher.stats()
    return stats


def _health_payload(service: EstimationService, batcher: MicroBatcher) -> Dict:
    """Compose engine health with the transport's queue state."""
    health = service.health()
    if batcher.admission is not None:
        depth = batcher.admission.depth
        health["queue_depth"] = depth
        health["queue_limit"] = batcher.admission.limit
        if depth >= batcher.admission.limit:
            health["status"] = "degraded"
    else:
        health["queue_depth"] = batcher.in_flight
    return health


def _finite_positive(value: object) -> bool:
    """Whether *value* is a JSON number (not a bool) in ``(0, inf)``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:  # an integer beyond the float range
        return False


async def _dispatch(
    service: EstimationService,
    batcher: MicroBatcher,
    method: str,
    path: str,
    body: bytes,
) -> Response:
    """Route one request to its endpoint and map errors to statuses."""
    if method == "GET" and path == "/healthz":
        return 200, _health_payload(service, batcher), {}
    if method == "GET" and path == "/stats":
        return 200, _service_stats(service, batcher), {}
    if method == "POST" and path == "/estimate":
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return 400, {"error": "request body must be a JSON object"}, {}
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}, {}
        deadline_ms = payload.pop("deadline_ms", None)
        if deadline_ms is not None and not _finite_positive(deadline_ms):
            return 400, {"error": "deadline_ms must be a finite positive number"}, {}
        try:
            answer = await batcher.submit(
                payload,
                deadline_seconds=(
                    deadline_ms / 1000.0 if deadline_ms is not None else None
                ),
            )
        except ServiceOverloadedError as exc:
            return 429, {"error": str(exc)}, _retry_after_header(exc.retry_after)
        except CircuitOpenError as exc:
            return 503, {"error": str(exc)}, _retry_after_header(exc.retry_after)
        except DeadlineExceededError as exc:
            return 504, {"error": str(exc)}, {}
        except ReproError as exc:
            return 400, {"error": str(exc)}, {}
        except Exception as exc:  # engine crash surface (injected faults land here)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        return 200, answer.to_dict(), {}
    return 404, {"error": f"no route for {method} {path}"}, {}


class ServiceHTTPServer:
    """Minimal asyncio HTTP front; no third-party dependencies.

    Binds lazily in :meth:`start` (``port=0`` picks a free port, read
    it back from :attr:`port`) and owns a :class:`MicroBatcher` so
    every transport instance batches independently.  *max_in_flight*
    and *deadline_ms* configure the batcher's admission control and
    default per-query deadline (both off by default).
    """

    def __init__(
        self,
        service: EstimationService,
        host: str = "127.0.0.1",
        port: int = 0,
        window_seconds: float = 0.005,
        max_in_flight: Optional[int] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.batcher = MicroBatcher(
            service,
            window_seconds,
            max_in_flight=max_in_flight,
            default_deadline_seconds=(
                deadline_ms / 1000.0 if deadline_ms is not None else None
            ),
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, flush the batch window, close the server.

        Open connections are waited out, as ``Server.wait_closed`` does
        from Python 3.12 on: each is answered by then, or still reading
        its request and answered 408 within :data:`READ_TIMEOUT_SECONDS`.
        """
        await self.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            status, payload, extra_headers = await self._handle_request(reader)
            body = json.dumps(payload).encode("utf-8")
            reason = _REASONS.get(status, "Unknown")
            lines = [
                f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
            ]
            lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
            lines.append("Connection: close")
            head = "\r\n".join(lines) + "\r\n\r\n"
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; the batch (if any) continues without it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _handle_request(self, reader: asyncio.StreamReader) -> Response:
        try:
            method, path, body = await asyncio.wait_for(
                _read_request(reader), READ_TIMEOUT_SECONDS
            )
        except _RequestRefused as refusal:
            return refusal.response
        except asyncio.TimeoutError:
            return (
                408,
                {"error": f"request not received within {READ_TIMEOUT_SECONDS} seconds"},
                {},
            )
        return await _dispatch(self.service, self.batcher, method, path, body)


class _RequestRefused(Exception):
    """The request's framing was refused; carries the response to send."""

    def __init__(self, status: int, error: str) -> None:
        super().__init__(error)
        self.response: Response = (status, {"error": error}, {})


async def _read_request(reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
    """Read one request's method, path and body, or raise _RequestRefused."""
    # readline raises ValueError once a line outgrows the reader's
    # limit (MAX_LINE_BYTES) and discards what it buffered.
    too_long = f"request and header lines are limited to {MAX_LINE_BYTES} bytes"
    try:
        request_line = (await reader.readline()).decode("ascii", "replace")
    except ValueError:
        raise _RequestRefused(431, too_long) from None
    parts = request_line.split()
    if len(parts) < 2:
        raise _RequestRefused(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            line = await reader.readline()
        except ValueError:
            raise _RequestRefused(431, too_long) from None
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("ascii", "replace").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _RequestRefused(431, f"at most {MAX_HEADERS} header lines are accepted")
    declared = headers.get("content-length", "0")
    if not declared.isdigit():
        raise _RequestRefused(400, "Content-Length must be a non-negative integer")
    # Compare digit counts first: int() refuses strings beyond
    # sys.get_int_max_str_digits, which a 64 KiB line can carry.
    digits = declared.lstrip("0") or "0"
    if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
        raise _RequestRefused(413, f"request bodies are limited to {MAX_BODY_BYTES} bytes")
    length = int(digits)
    body = await reader.readexactly(length) if length > 0 else b""
    return method, path, body


def run_server(
    service: EstimationService,
    host: str = "127.0.0.1",
    port: int = 8000,
    transport: str = "stdlib",
    window_seconds: float = 0.005,
    max_in_flight: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    snapshot_interval_seconds: Optional[float] = None,
) -> None:
    """Run the service until interrupted (the ``repro-osn serve`` core).

    *transport* names the HTTP front; :class:`ServiceHTTPServer`
    (``"stdlib"``) is the only one.

    The server installs ``SIGTERM`` / ``SIGINT`` handlers for
    **graceful shutdown**: stop accepting connections, drain the
    micro-batch window (in-flight queries get their answers), snapshot
    the answer cache, exit 0.  A ``SIGKILL`` skips all of that and the
    next boot warm-starts from the last periodic snapshot instead —
    *snapshot_interval_seconds* (with the service's ``snapshot_path``)
    enables that timer.
    """
    if transport != "stdlib":
        raise ConfigurationError(
            f"unknown transport {transport!r}; the only transport is 'stdlib'"
        )

    async def _serve() -> None:
        server = ServiceHTTPServer(
            service,
            host,
            port,
            window_seconds,
            max_in_flight=max_in_flight,
            deadline_ms=deadline_ms,
        )
        await server.start()
        print(
            f"repro-osn serve: listening on http://{server.host}:{server.port} "
            f"(stdlib transport, graph version {service.graph_version})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        installed_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue  # e.g. non-main thread or unsupported platform
            installed_signals.append(signum)

        async def _snapshot_timer() -> None:
            while True:
                await asyncio.sleep(snapshot_interval_seconds)
                # The engine swallows and counts write failures; a full
                # disk must not kill the serving loop.
                await loop.run_in_executor(None, service.save_snapshot)

        timer_task = (
            asyncio.create_task(_snapshot_timer())
            if snapshot_interval_seconds is not None
            and service.snapshot_path is not None
            else None
        )
        serve_task = asyncio.create_task(server.serve_forever())
        stop_task = asyncio.create_task(stop_requested.wait())
        try:
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop_requested.is_set():
                print(
                    "repro-osn serve: shutdown signal received; draining "
                    "in-flight queries",
                    flush=True,
                )
        finally:
            for task in (timer_task, serve_task, stop_task):
                if task is not None:
                    task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await task
            for signum in installed_signals:
                loop.remove_signal_handler(signum)
            # stop() flushes the batch window, so every admitted query
            # is answered before the snapshot below captures the cache.
            await server.stop()
            if service.save_snapshot():
                print(
                    f"repro-osn serve: snapshot written to "
                    f"{service.snapshot_path}",
                    flush=True,
                )
            print("repro-osn serve: shutdown complete", flush=True)

    asyncio.run(_serve())


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "MAX_LINE_BYTES",
    "READ_TIMEOUT_SECONDS",
    "ServiceHTTPServer",
    "run_server",
]
