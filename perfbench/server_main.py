"""The benchmark's server process: build the shared graph, serve it.

Same code path as ``repro-osn serve`` minus the CLI's registry-dataset
loading: :class:`EstimationService` over a shared-memory publication,
driven by :func:`repro.service.http.run_server`, which drains on
SIGTERM.  The service is closed on the way out so the segment is
unlinked.

Run:  python -m perfbench.server_main [--nodes N] [--trace-out PATH]
(with the checkout's ``src`` and root on ``PYTHONPATH``).  It prints
``perfbench-server: shm segment <name>`` and then the server's own
``listening on http://HOST:PORT`` line.
"""

from __future__ import annotations

import argparse
import json
import os

from repro.service import EstimationService
from repro.service.http import run_server

from perfbench.common import NODES, build_graph
from perfbench.tracing import (
    NoTracer,
    Tracer,
    install_server_spans,
    trace_service_instance,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=NODES)
    parser.add_argument("--trace-out", help="write the spans here as JSON on exit")
    args = parser.parse_args()

    tracer = Tracer() if args.trace_out else NoTracer()
    if args.trace_out:
        install_server_spans(tracer)
    graph = build_graph(tracer, args.nodes)
    service = EstimationService(graph, graph_store="shm")
    try:
        if args.trace_out:
            trace_service_instance(tracer, service)
        # The segment name lets the benchmark prove it is gone after exit.
        print(
            f"perfbench-server: shm segment {service._publication.handle.location}",
            flush=True,
        )
        run_server(service, host="127.0.0.1", port=0, transport="stdlib")
    finally:
        service.close()
    if args.trace_out:
        scratch = f"{args.trace_out}.{os.getpid()}.tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)
        os.replace(scratch, args.trace_out)


if __name__ == "__main__":
    main()
