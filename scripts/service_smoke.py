#!/usr/bin/env python
"""CI smoke tests for the estimation service: boot, query, verify, exit.

Two modes, both speaking real HTTP from this (client) thread against
the dependency-free asyncio transport:

**Default** — the serving-layer acceptance path over a ~10^4-node
shm-published graph (the ``pokec`` registry entry at half scale):

1. ``GET /healthz`` answers ``{"status": "ok"}``;
2. ``POST /estimate`` returns a well-formed answer with walked
   estimates;
3. the same query repeated is served from the answer cache
   (``cached: true``) and ``GET /stats`` reports a positive cache hit
   rate without a second fleet being built;
4. the served estimates are bit-identical to the batch harness
   (``run_trials_prefix``) at the same user seed.

**Chaos** (``--faults``) — the resilience-layer acceptance path, with a
deterministic fault plan installed at the production ``fire`` sites
(see ``docs/operations.md``):

1. a transient injected ``store.attach`` failure is absorbed by the
   attach retry at boot;
2. repeated injected fleet failures trip the algorithm's circuit
   breaker: ``/healthz`` reports ``degraded`` and a query for the
   warmed pair is served from stale cache flagged ``degraded: true``;
3. after the cooldown the half-open probe succeeds and ``/healthz``
   returns to ``ok``;
4. an injected fleet delay longer than the request's ``deadline_ms``
   answers 504;
5. a pool worker SIGKILLed mid-table (``REPRO_FAULTS`` env plan) is
   respawned and the finished table is bit-identical to a clean run.

**Durability** (``--restart``) — the crash-consistency acceptance path
(see "Durability & recovery" in ``docs/operations.md``):

1. a real ``repro-osn serve --snapshot`` child is SIGTERMed: it drains,
   snapshots, prints ``shutdown complete`` and exits 0; a restarted
   server answers the first repeated query from the loaded snapshot,
   bit-identical to the pre-restart answer;
2. ``repro-osn fsck`` flags a deliberately bit-flipped sidecar and the
   open path refuses it with a typed ``ArtifactCorruptError``;
3. a ``--jobs 2`` journaled sweep is SIGKILLed mid-run and
   ``--resume`` completes it bit-identically to an uninterrupted run.

Exit code 0 on success.  CI wires the default mode as the
``service-smoke`` job, the chaos mode as ``chaos-smoke`` and the
durability mode as ``durability-smoke`` (see
``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.registry import load_dataset  # noqa: E402
from repro.experiments.runner import run_trials_prefix  # noqa: E402
from repro.service import EstimationService, ServiceHTTPServer  # noqa: E402
from repro.utils.rng import derive_seed  # noqa: E402

DATASET = "pokec"
SCALE = 0.5  # ~10^4 nodes
SEED = 7
ALGORITHM = "NeighborSample-HH"
BUDGET = 40
REPETITIONS = 6
BURN_IN = 10

#: The chaos plan: one transient attach failure at boot, three fleet
#: failures to trip the breaker (threshold 3), then one slow fleet to
#: blow a request deadline.  Invocation arithmetic: fleet.run 0 is the
#: cache-warming success, 1-3 are the breaker-tripping failures, 4 is
#: the half-open probe (budget spent: success), 5 is the delayed walk.
CHAOS_PLAN = (
    "store.attach=error,count=1;"
    "fleet.run=error,after=1,count=3;"
    "fleet.run=delay,after=5,count=1,seconds=0.6"
)


def _get(port: int, path: str) -> dict:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=30) as fh:
        return json.loads(fh.read().decode("utf-8"))


def _post(port: int, path: str, payload: dict) -> dict:
    status, body = _post_status(port, path, payload)
    assert status == 200, (status, body)
    return body


def _post_status(port: int, path: str, payload: dict) -> tuple:
    """POST returning (status, decoded body) — non-2xx is data, not an error."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as fh:
            return fh.status, json.loads(fh.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class ServerThread:
    """The transport on a background thread; the smoke stays a plain client."""

    def __init__(self, service: EstimationService, **server_kwargs) -> None:
        self._loop = asyncio.new_event_loop()
        self.server = ServiceHTTPServer(service, port=0, **server_kwargs)
        self._started = threading.Event()
        self._boot_task: dict = {}
        self._thread = threading.Thread(
            target=self._serve, name="service-smoke", daemon=True
        )

    async def _boot(self) -> None:
        await self.server.start()
        self._started.set()
        try:
            await self.server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.server.stop()

    def _serve(self) -> None:
        asyncio.set_event_loop(self._loop)
        task = self._loop.create_task(self._boot())
        self._boot_task["task"] = task
        try:
            self._loop.run_until_complete(task)
        except asyncio.CancelledError:
            pass
        finally:
            self._loop.close()

    def start(self) -> int:
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server did not start")
        return self.server.port

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._boot_task["task"].cancel)
        self._thread.join(timeout=10)


def _load_graph():
    print(f"loading {DATASET} at scale {SCALE} ...", flush=True)
    dataset = load_dataset(DATASET, seed=SEED, scale=SCALE)
    graph = dataset.graph
    # The frequent pair: a budget-bounded crawl actually sees targets.
    t1, t2 = max(dataset.target_pairs, key=dataset.target_counts.get)
    print(
        f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
        f"target pair ({t1}, {t2})",
        flush=True,
    )
    assert graph.num_nodes >= 10_000, "smoke graph must be ~10^4 nodes"
    return graph, t1, t2


def main() -> int:
    graph, t1, t2 = _load_graph()
    service = EstimationService(
        graph,
        graph_store="shm",
        default_repetitions=REPETITIONS,
        default_burn_in=BURN_IN,
        name=f"{DATASET}-smoke",
    )
    harness = ServerThread(service, window_seconds=0.005)
    port = harness.start()
    print(f"serving on http://127.0.0.1:{port} (shm store)", flush=True)

    try:
        health = _get(port, "/healthz")
        assert health["status"] == "ok", health
        print(f"healthz ok (graph version {health['graph_version']})", flush=True)

        query = {
            "algorithm": ALGORITHM,
            "t1": t1,
            "t2": t2,
            "budget": BUDGET,
            "seed": SEED,
            "repetitions": REPETITIONS,
            "burn_in": BURN_IN,
        }
        first = _post(port, "/estimate", query)
        assert len(first["estimates"]) == REPETITIONS, first
        assert first["true_count"] > 0 and not first["cached"], first
        print(
            f"estimate ok: mean {first['mean_estimate']:.1f} "
            f"(true {first['true_count']}, nrmse {first['nrmse']:.3f})",
            flush=True,
        )

        second = _post(port, "/estimate", query)
        assert second["cached"], "repeat query must be served from cache"
        assert second["estimates"] == first["estimates"]

        stats = _get(port, "/stats")
        assert stats["cache"]["hit_rate"] > 0, stats["cache"]
        assert stats["fleets"]["built"] == 1, stats["fleets"]
        print(
            f"stats ok: cache hit rate {stats['cache']['hit_rate']:.2f}, "
            f"{stats['fleets']['built']} fleet(s), "
            f"{stats['fleets']['steps_per_second']:.0f} steps/s",
            flush=True,
        )

        # Bit-identity with the batch harness at the same user seed.
        [outcome] = run_trials_prefix(
            graph,
            t1,
            t2,
            service._suite[ALGORITHM],
            ALGORITHM,
            [BUDGET],
            REPETITIONS,
            BURN_IN,
            seed=derive_seed(SEED, ALGORITHM, "prefix"),
        )
        assert first["estimates"] == outcome.estimates, (
            "served estimates must be bit-identical to the batch harness"
        )
        print("bit-identity with run_trials_prefix ok", flush=True)
    finally:
        harness.stop()
        service.close()

    print("service smoke: PASS", flush=True)
    return 0


def chaos_main() -> int:
    from repro.resilience import FaultInjector, FaultPlan, install_injector

    graph, t1, t2 = _load_graph()
    injector = FaultInjector(FaultPlan.parse(CHAOS_PLAN))
    install_injector(injector)
    print(f"fault plan installed: {injector.plan.describe()}", flush=True)
    try:
        # Boot absorbs the injected attach failure through the retry.
        service = EstimationService(
            graph,
            graph_store="shm",
            default_repetitions=REPETITIONS,
            default_burn_in=BURN_IN,
            name=f"{DATASET}-chaos",
            breaker_threshold=3,
            breaker_cooldown_seconds=1.0,
        )
        attach_faults = [e for e in injector.trace if e.site == "store.attach"]
        assert len(attach_faults) == 1, injector.trace
        print("boot survived one injected store.attach failure (retried)", flush=True)

        harness = ServerThread(service, window_seconds=0.005)
        port = harness.start()
        print(f"serving on http://127.0.0.1:{port} (chaos mode)", flush=True)
        try:
            def query(**overrides) -> dict:
                payload = {
                    "algorithm": ALGORITHM, "t1": t1, "t2": t2,
                    "budget": BUDGET, "seed": SEED,
                    "repetitions": REPETITIONS, "burn_in": BURN_IN,
                }
                payload.update(overrides)
                return payload

            # 1. Warm the stale-fallback entry for the pair.
            warm = _post(port, "/estimate", query())
            assert not warm["degraded"], warm

            # 2. Three injected fleet failures trip the breaker (500s).
            for seed in (101, 102, 103):
                status, body = _post_status(
                    port, "/estimate", query(budget=30, seed=seed)
                )
                assert status == 500 and "injected fault" in body["error"], (
                    status, body,
                )
            health = _get(port, "/healthz")
            assert health["status"] == "degraded", health
            assert health["open_breakers"] == [ALGORITHM], health
            print("breaker tripped: healthz degraded", flush=True)

            # 3. The breaker-open window: served stale, flagged degraded.
            degraded = _post(port, "/estimate", query(budget=10, seed=104))
            assert degraded["degraded"] and degraded["cached"], degraded
            assert degraded["budget"] == BUDGET, degraded  # the fallback's
            assert degraded["estimates"] == warm["estimates"], degraded
            print("degraded answer served from stale cache", flush=True)

            # 4. Cooldown, then the half-open probe heals the breaker.
            time.sleep(1.1)
            probed = _post(port, "/estimate", query(budget=35, seed=105))
            assert not probed["degraded"], probed
            health = _get(port, "/healthz")
            assert health["status"] == "ok", health
            assert health["open_breakers"] == [], health
            print("half-open probe succeeded: healthz ok", flush=True)

            # 5. An injected 0.6 s fleet delay blows a 150 ms deadline.
            status, body = _post_status(
                port, "/estimate", dict(query(budget=25, seed=106), deadline_ms=150)
            )
            assert status == 504 and "deadline" in body["error"], (status, body)
            print("slow fleet answered 504 at the deadline", flush=True)

            stats = _get(port, "/stats")
            resilience = stats["resilience"]
            assert resilience["breakers"][ALGORITHM]["trips"] == 1, resilience
            assert resilience["degraded_served"] == 1, resilience
            assert stats["batcher"]["deadline_timeouts"] == 1, stats["batcher"]
            assert resilience["faults"] != "no faults", resilience
        finally:
            harness.stop()
            service.close()
    finally:
        install_injector(None)

    _chaos_worker_kill()
    print("chaos smoke: PASS", flush=True)
    return 0


def _chaos_worker_kill() -> None:
    """Phase B: SIGKILL a pool worker mid-table; recovery is bit-identical."""
    import numpy as np

    from repro.experiments.algorithms import build_algorithm_suite
    from repro.experiments.runner import compare_algorithms
    from repro.graph.csr import CSRGraph
    from repro.resilience.faults import FAULTS_ENV, FAULTS_STATE_ENV

    rng = np.random.default_rng(3)
    hub = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
    edges = np.concatenate([hub, rng.integers(0, 300, size=(1500, 2))])
    csr = CSRGraph.from_edge_array(
        edges, num_nodes=300, label_array=rng.integers(1, 3, size=300)
    )
    full = build_algorithm_suite(include_baselines=False)
    suite = {ALGORITHM: full[ALGORITHM]}

    def table():
        return compare_algorithms(
            csr, 1, 2,
            sample_fractions=(0.02, 0.05), repetitions=3, algorithms=suite,
            burn_in=5, seed=42, execution="fleet", n_jobs=2, graph_store="shm",
        )

    print("worker-kill recovery: clean reference table ...", flush=True)
    reference = table()
    state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    os.environ[FAULTS_ENV] = "worker.cell=kill,count=1"
    os.environ[FAULTS_STATE_ENV] = state_dir
    try:
        print("worker-kill recovery: SIGKILL one pool worker mid-table ...", flush=True)
        recovered = table()
    finally:
        del os.environ[FAULTS_ENV]
        del os.environ[FAULTS_STATE_ENV]
    claimed = sorted(os.listdir(state_dir))
    assert claimed == ["fault-0-0.token"], claimed  # the kill really happened
    for name in reference.algorithms():
        for ours, theirs in zip(recovered.cells[name], reference.cells[name]):
            assert ours.estimates == theirs.estimates, (name, ours, theirs)
            assert ours.api_calls == theirs.api_calls, (name, ours, theirs)
    print("worker-kill recovery: table bit-identical after respawn", flush=True)


class ServeProcess:
    """A real ``repro-osn serve`` child: boot, parse the port, signal it."""

    def __init__(self, snapshot: Path, scale: float = 0.1) -> None:
        import subprocess

        env = dict(os.environ, PYTHONPATH="src")
        self.child = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--dataset", DATASET, "--scale", str(scale),
                "--seed", str(SEED), "--graph-store", "ram",
                "--port", "0",
                "--batch-window-ms", "2",
                "--repetitions", str(REPETITIONS),
                "--burn-in", str(BURN_IN),
                "--snapshot", str(snapshot),
                "--snapshot-interval-ms", "60000",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.port = self._await_listening()

    def _await_listening(self) -> int:
        for line in self.child.stdout:
            print(f"  serve> {line.rstrip()}", flush=True)
            if "listening on http://" in line:
                return int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError("server exited before listening")

    def terminate_and_collect(self) -> str:
        """SIGTERM, wait for a clean exit, return the remaining stdout."""
        self.child.terminate()
        tail = self.child.stdout.read()
        self.child.stdout.close()
        self.child.wait(timeout=60)
        for line in tail.splitlines():
            print(f"  serve> {line}", flush=True)
        assert self.child.returncode == 0, self.child.returncode
        return tail


def restart_main() -> int:
    """The durability acceptance path: three crash scenarios end to end."""
    snap_dir = Path(tempfile.mkdtemp(prefix="repro-durability-"))
    _restart_serve_phase(snap_dir / "cache.snap")
    _fsck_phase(snap_dir)
    _journal_resume_phase(snap_dir / "sweep.journal.jsonl")
    print("durability smoke: PASS", flush=True)
    return 0


def _restart_serve_phase(snapshot: Path) -> None:
    """SIGTERM drain + snapshot, then a warm restart serves from cache."""
    print("restart phase: booting repro-osn serve with --snapshot ...", flush=True)
    # The server synthesises this same dataset; pick its frequent pair.
    dataset = load_dataset(DATASET, seed=SEED, scale=0.1)
    t1, t2 = max(dataset.target_pairs, key=dataset.target_counts.get)
    first = ServeProcess(snapshot)
    query = {
        "algorithm": ALGORITHM, "t1": t1, "t2": t2, "budget": BUDGET,
        "seed": SEED, "repetitions": REPETITIONS, "burn_in": BURN_IN,
    }
    warm = _post(first.port, "/estimate", query)
    assert not warm["cached"], warm
    health = _get(first.port, "/healthz")
    assert "last_snapshot_age_seconds" in health, health
    print("restart phase: cache warmed; sending SIGTERM ...", flush=True)

    tail = first.terminate_and_collect()
    assert "draining in-flight queries" in tail, tail
    assert "snapshot written to" in tail, tail
    assert "shutdown complete" in tail, tail
    assert snapshot.exists(), "graceful shutdown must leave a snapshot"
    print("restart phase: graceful shutdown drained and snapshotted", flush=True)

    second = ServeProcess(snapshot)
    try:
        stats = _get(second.port, "/stats")
        assert stats["durability"]["snapshot_loaded_entries"] >= 1, stats["durability"]
        again = _post(second.port, "/estimate", query)
        assert again["cached"], "first repeated query after restart must hit"
        assert again["estimates"] == warm["estimates"], (
            "warm-restart answer must be bit-identical to the pre-restart one"
        )
    finally:
        second.terminate_and_collect()
    print("restart phase: warm restart served a bit-identical cache hit", flush=True)


def _fsck_phase(directory: Path) -> None:
    """A bit-flipped sidecar is refused, typed, and flagged by fsck."""
    import numpy as np

    from repro.cli import main as cli_main
    from repro.durability import write_npz
    from repro.exceptions import ArtifactCorruptError
    from repro.graph.csr import CSRGraph

    n = 512
    edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
    csr = CSRGraph.from_edge_array(edges, num_nodes=n)
    artifact = directory / "spill.npz"
    write_npz(artifact, {"indptr": csr.indptr, "indices": csr.indices})
    assert cli_main(["fsck", str(artifact)]) == 0, "intact artifact must pass"

    raw = bytearray(artifact.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    artifact.write_bytes(bytes(raw))
    assert cli_main(["fsck", str(artifact)]) == 1, "bit flip must fail fsck"
    from repro.durability import verify_artifact

    try:
        verify_artifact(artifact, mode="full")
    except ArtifactCorruptError as exc:
        assert exc.retryable and str(artifact) in str(exc)
    else:
        raise AssertionError("verify_artifact must refuse a bit-flipped file")
    print("fsck phase: bit-flipped artifact refused with ArtifactCorruptError", flush=True)


_SWEEP_DRIVER = """
import sys
import numpy as np
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import compare_algorithms
from repro.graph.csr import CSRGraph

rng = np.random.default_rng(3)
hub = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
edges = np.concatenate([hub, rng.integers(0, 300, size=(1500, 2))])
graph = CSRGraph.from_edge_array(
    edges, num_nodes=300, label_array=rng.integers(1, 3, size=300)
)
full = build_algorithm_suite(include_baselines=False)
suite = {"%(algo)s": full["%(algo)s"]}
compare_algorithms(
    graph, 1, 2,
    sample_fractions=(0.02, 0.04, 0.06),
    repetitions=3, algorithms=suite, burn_in=5, seed=42,
    execution="fleet", n_jobs=2, graph_store="ram",
    journal=sys.argv[1],
)
""" % {"algo": ALGORITHM}


def _journal_resume_phase(journal: Path) -> None:
    """SIGKILL a --jobs 2 sweep mid-journal; --resume is bit-identical."""
    import signal
    import subprocess

    import numpy as np

    from repro.durability import journal_is_committed, read_records
    from repro.experiments.algorithms import build_algorithm_suite
    from repro.experiments.runner import compare_algorithms
    from repro.graph.csr import CSRGraph

    rng = np.random.default_rng(3)
    hub = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
    edges = np.concatenate([hub, rng.integers(0, 300, size=(1500, 2))])
    csr = CSRGraph.from_edge_array(
        edges, num_nodes=300, label_array=rng.integers(1, 3, size=300)
    )
    full = build_algorithm_suite(include_baselines=False)
    suite = {ALGORITHM: full[ALGORITHM]}

    def table(**overrides):
        settings = dict(
            sample_fractions=(0.02, 0.04, 0.06), repetitions=3,
            algorithms=suite, burn_in=5, seed=42,
            execution="fleet", n_jobs=2, graph_store="ram",
        )
        settings.update(overrides)
        return compare_algorithms(csr, 1, 2, **settings)

    print("journal phase: clean reference table ...", flush=True)
    reference = table()

    print("journal phase: SIGKILL a --jobs 2 sweep mid-journal ...", flush=True)
    child = subprocess.Popen(
        [sys.executable, "-c", _SWEEP_DRIVER, str(journal)],
        env=dict(
            os.environ,
            PYTHONPATH="src",
            REPRO_FAULTS="worker.cell=delay,seconds=0.5",
        ),
        start_new_session=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if any(r["type"] == "cell" for r in read_records(journal)):
            break
        assert child.poll() is None, "sweep finished before it could be killed"
        time.sleep(0.01)
    else:
        raise AssertionError("no journaled cell appeared within the deadline")
    os.killpg(child.pid, signal.SIGKILL)
    child.wait(timeout=30)
    assert not journal_is_committed(journal)
    done = sum(1 for r in read_records(journal) if r["type"] == "cell")
    print(f"journal phase: crashed with {done}/3 cells journaled; resuming ...", flush=True)

    resumed = table(journal=journal, resume=True)
    for name in reference.algorithms():
        for ours, theirs in zip(resumed.cells[name], reference.cells[name]):
            assert ours.estimates == theirs.estimates, (name, ours, theirs)
            assert ours.api_calls == theirs.api_calls, (name, ours, theirs)
    assert journal_is_committed(journal)
    print("journal phase: resumed table bit-identical; journal committed", flush=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the chaos mode (injected faults + worker-kill recovery)",
    )
    parser.add_argument(
        "--restart",
        action="store_true",
        help="run the durability mode (SIGTERM restart, fsck, journal resume)",
    )
    args = parser.parse_args()
    if args.restart:
        sys.exit(restart_main())
    sys.exit(chaos_main() if args.faults else main())
