"""Self-tests of the benchmark.

Run:  python -m pytest -q perfbench
(not part of the repository's tier-1 suite, whose testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, serve, tables  # noqa: E402
from perfbench.common import SMOKE_NODES, build_graph, build_suite  # noqa: E402
from perfbench.layers import PER_LAYER, self_times, window_waits  # noqa: E402
from perfbench.tracing import NoTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_root: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *arguments],
        cwd=tmp_root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", ["serve-cold", "serve-hot"])
def test_query_stream_is_a_pure_function_of_the_seed(workload):
    one, again, other = (serve.QueryStream(workload, seed) for seed in (5, 5, 6))
    assert one.warmup() == again.warmup()
    assert [one.query(i) for i in range(300)] == [again.query(i) for i in range(300)]
    assert [one.query(i) for i in range(300)] != [other.query(i) for i in range(300)]


def test_hot_working_set_fits_the_cache_and_covers_every_algorithm():
    stream = serve.QueryStream("serve-hot", 11)
    keys = {json.dumps(query, sort_keys=True) for query in stream.warmup()}
    assert len(keys) == serve.WORKING_SET <= 64
    assert {query["algorithm"] for query in stream.warmup()} == set(
        serve.ALL_ALGORITHM_ORDER
    )
    assert all(json.dumps(stream.query(i), sort_keys=True) in keys for i in range(2000))


def test_every_emitted_metric_is_declared():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert run.END_TO_END == declared_e2e
    assert dict(PER_LAYER) == declared_layers
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_a_table_repeats_bit_for_bit_at_one_seed():
    graph = build_graph(NoTracer(), SMOKE_NODES)
    suite = build_suite(NoTracer(), graph)
    first = tables.one_table(graph, suite, 3, seed=9)
    second = tables.one_table(graph, suite, 3, seed=9)
    other = tables.one_table(graph, suite, 3, seed=10)
    assert first[2] == second[2] == []
    assert first[1] == second[1] != other[1]


def test_a_malformed_response_counts_as_a_failed_request():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        listener.settimeout(10)  # a client that died must not hang the test

        def answer() -> None:
            for _ in range(2):
                connection, _ = listener.accept()
                with connection:
                    connection.recv(65536)
                    connection.sendall(b"garbage\r\n\r\n")

        server = threading.Thread(target=answer)
        server.start()
        replies, _ = serve.closed_loop(port, lambda index: {"index": index}, 1, 0.0, 2)
        server.join()
    assert [reply.status for reply in replies] == [0, 0]
    assert all("BadStatusLine" in reply.body["error"] for reply in replies)


def test_self_time_subtracts_children():
    spans = [
        (1, 0, "outer", 0, 100, None, None),
        (2, 1, "inner", 10, 40, None, None),
        (3, 1, "inner", 50, 70, None, None),
    ]
    assert self_times(spans) == pytest.approx({1: 50e-9, 2: 30e-9, 3: 20e-9})


def test_window_wait_excludes_the_batch_that_answered():
    submit = (1, 0, "service.batcher.submit", 0, 10_000_000, None, 77)
    batch = (2, 0, "service.core.estimate_many", 6_000_000, 9_000_000, None, [77])
    assert window_waits([submit], [batch]) == [7.0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_shrunken_run_passes_and_prints_the_declared_metrics(workload, trace):
    completed = _bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--smoke",
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__", "history.jsonl"),
    )
    completed = _bench(
        tmp_path, "--workload", "table-narrow", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
