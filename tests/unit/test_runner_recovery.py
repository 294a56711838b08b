"""Worker-crash recovery: a killed pool worker cannot change the table.

The recovery loop in :func:`run_jobs_parallel` respawns a broken pool
and re-runs only the jobs that had not finished.  Because every job
carries its own pre-derived seed, the recovered table must be
**bit-identical** to an uninterrupted run — that equality is the whole
acceptance criterion, asserted here with a real SIGKILL injected into a
real pool worker via ``REPRO_FAULTS``.
"""

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from repro.exceptions import ExperimentError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import compare_algorithms
from repro.graph.store import sweep_orphan_segments
from repro.resilience.faults import FAULTS_ENV, FAULTS_STATE_ENV


@pytest.fixture(scope="module")
def csr_graph():
    rng = np.random.default_rng(3)
    hub_edges = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
    random_edges = rng.integers(0, 300, size=(1500, 2))
    edges = np.concatenate([hub_edges, random_edges])
    labels = rng.integers(1, 3, size=300)
    from repro.graph.csr import CSRGraph

    return CSRGraph.from_edge_array(edges, num_nodes=300, label_array=labels)


@pytest.fixture(scope="module")
def suite():
    full = build_algorithm_suite(include_baselines=False)
    return {"NeighborSample-HH": full["NeighborSample-HH"]}


def _table(graph, suite, **overrides):
    settings = dict(
        sample_fractions=(0.02, 0.05),
        repetitions=3,
        algorithms=suite,
        burn_in=5,
        seed=42,
        execution="fleet",
        n_jobs=2,
    )
    settings.update(overrides)
    return compare_algorithms(graph, 1, 2, **settings)


def _pool_breaking_on_second_submit(every_pool):
    """A process pool whose ``submit`` raises :class:`BrokenProcessPool`
    on its second call — what a real pool does once a worker died before
    the next job was handed over.  The count is per pool when
    *every_pool*, else across all pools (only the first one breaks)."""
    shared = []

    class Pool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            calls = self.__dict__.setdefault("_calls", []) if every_pool else shared
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("a worker died before the job was submitted")
            return super().submit(*args, **kwargs)

    return Pool


class TestKillRecovery:
    def test_killed_worker_is_respawned_and_the_table_is_bit_identical(
        self, csr_graph, suite, tmp_path, monkeypatch
    ):
        reference = _table(csr_graph, suite)
        # Kill exactly one worker, once, on its first cell.  The state
        # dir makes the count=1 budget hold across the respawn —
        # without it the replacement worker would re-read the plan and
        # kill itself forever.
        monkeypatch.setenv(FAULTS_ENV, "worker.cell=kill,count=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path))
        recovered = _table(csr_graph, suite)
        claimed = sorted(path.name for path in tmp_path.glob("fault-*.token"))
        assert claimed == ["fault-0-0.token"]  # the kill really happened
        assert recovered.algorithms() == reference.algorithms()
        for name in reference.algorithms():
            for ours, theirs in zip(recovered.cells[name], reference.cells[name]):
                assert ours.estimates == theirs.estimates
                assert ours.api_calls == theirs.api_calls

    def test_killed_prefix_job_is_respawned_and_the_table_is_bit_identical(
        self, csr_graph, tmp_path, monkeypatch
    ):
        """Prefix fleets run as pool jobs too: one kill, one respawn."""
        full = build_algorithm_suite(csr_graph)
        suite = {name: full[name] for name in ("NeighborSample-HH", "NeighborExploration-HT", "EX-RW")}
        reference = _table(csr_graph, suite, reuse="prefix", n_jobs=1)
        monkeypatch.setenv(FAULTS_ENV, "worker.cell=kill,count=1")
        monkeypatch.setenv(FAULTS_STATE_ENV, str(tmp_path))
        recovered = _table(csr_graph, suite, reuse="prefix")
        claimed = sorted(path.name for path in tmp_path.glob("fault-*.token"))
        assert claimed == ["fault-0-0.token"]  # the kill really happened
        assert recovered.algorithms() == reference.algorithms()
        for name in reference.algorithms():
            for ours, theirs in zip(recovered.cells[name], reference.cells[name]):
                assert ours.estimates == theirs.estimates
                assert ours.api_calls == theirs.api_calls

    def test_unrecoverable_pool_gives_up_with_a_typed_error(
        self, csr_graph, suite, monkeypatch
    ):
        # Unlimited kills: every respawned worker dies on its first
        # cell, so the respawn budget must run out loudly instead of
        # looping forever.
        monkeypatch.setenv(FAULTS_ENV, "worker.cell=kill")
        monkeypatch.delenv(FAULTS_STATE_ENV, raising=False)
        with pytest.raises(ExperimentError, match="giving up after"):
            _table(csr_graph, suite)

    def test_pool_broken_mid_submission_is_respawned_bit_identically(
        self, csr_graph, suite, monkeypatch
    ):
        reference = _table(csr_graph, suite)
        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", _pool_breaking_on_second_submit(False)
        )
        recovered = _table(csr_graph, suite)
        assert recovered.algorithms() == reference.algorithms()
        for name in reference.algorithms():
            for ours, theirs in zip(recovered.cells[name], reference.cells[name]):
                assert ours.estimates == theirs.estimates
                assert ours.api_calls == theirs.api_calls

    def test_pools_broken_mid_submission_give_up_with_a_typed_error(
        self, csr_graph, suite, monkeypatch
    ):
        # Each pool runs one job before it breaks: five jobs outlast
        # the three pools the respawn budget allows.
        monkeypatch.setattr(
            runner_module, "ProcessPoolExecutor", _pool_breaking_on_second_submit(True)
        )
        with pytest.raises(ExperimentError, match="giving up after"):
            _table(csr_graph, suite, sample_fractions=(0.02, 0.03, 0.04, 0.05, 0.06))


class TestCrashResume:
    """The journal/--resume loop: SIGKILL a sweep, resume bit-identically.

    The crashed run journals every cell that completed before the pool's
    respawn budget ran out; the resumed run replays those and executes
    only the missing ones.  Pre-derived cell seeds make the stitched
    table bit-identical to an uninterrupted run.
    """

    # The crashed run executes in a subprocess so a *real* SIGKILL can
    # take out the whole sweep — parent, pool and all — mid-journal.
    # It rebuilds the module fixtures by value (same seeds, same code)
    # so the suite fingerprint matches the in-test resume.
    DRIVER = """
import sys
import numpy as np
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import compare_algorithms
from repro.graph.csr import CSRGraph

rng = np.random.default_rng(3)
hub_edges = np.column_stack([np.zeros(299, dtype=np.int64), np.arange(1, 300)])
random_edges = rng.integers(0, 300, size=(1500, 2))
edges = np.concatenate([hub_edges, random_edges])
labels = rng.integers(1, 3, size=300)
graph = CSRGraph.from_edge_array(edges, num_nodes=300, label_array=labels)
full = build_algorithm_suite(include_baselines=False)
suite = {"NeighborSample-HH": full["NeighborSample-HH"]}
compare_algorithms(
    graph, 1, 2,
    sample_fractions=(0.02, 0.04, 0.06),
    repetitions=3, algorithms=suite, burn_in=5, seed=42,
    execution="fleet", n_jobs=2,
    journal=sys.argv[1],
)
"""

    def test_killed_sweep_resumes_bit_identical(self, csr_graph, suite, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.durability import journal_is_committed, read_records

        reference = _table(csr_graph, suite, sample_fractions=(0.02, 0.04, 0.06))
        journal = tmp_path / "table.journal.jsonl"

        # Slow every cell down so the kill window is wide, then SIGKILL
        # the whole process group the moment the first cell is durable.
        child = subprocess.Popen(
            [sys.executable, "-c", self.DRIVER, str(journal)],
            env=dict(
                os.environ,
                PYTHONPATH="src",
                REPRO_FAULTS="worker.cell=delay,seconds=0.5",
            ),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                cells = [
                    r for r in read_records(journal) if r["type"] == "cell"
                ]
                if cells:
                    break
                if child.poll() is not None:
                    pytest.fail("sweep finished before it could be killed")
                time.sleep(0.01)
            else:
                pytest.fail("no journaled cell appeared within the deadline")
            os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                os.killpg(child.pid, signal.SIGKILL)
        assert child.returncode == -signal.SIGKILL

        # The journal survived the crash with the completed prefix.
        assert journal.exists() and not journal_is_committed(journal)
        crashed_cells = [
            r for r in read_records(journal) if r["type"] == "cell"
        ]
        assert 1 <= len(crashed_cells) < 3
        crashed_pids = {r["pid"] for r in crashed_cells}

        # The SIGKILL took the publisher and its resource tracker down
        # mid-pool, leaving the RAM graph's shared-memory segment behind
        # (segments are listed as files on Linux only); the orphan sweep
        # reclaims it.
        shm = Path("/dev/shm")
        if shm.is_dir():
            leaked = sorted(shm.glob(f"repro-{child.pid}-*"))
            assert leaked
            assert set(leaked) <= set(sweep_orphan_segments())
            assert not list(shm.glob(f"repro-{child.pid}-*"))

        resumed = _table(
            csr_graph,
            suite,
            sample_fractions=(0.02, 0.04, 0.06),
            journal=journal,
            resume=True,
        )

        # Bit-identical to the uninterrupted run, cell for cell.
        assert resumed.algorithms() == reference.algorithms()
        for name in reference.algorithms():
            for ours, theirs in zip(resumed.cells[name], reference.cells[name]):
                assert ours.estimates == theirs.estimates
                assert ours.api_calls == theirs.api_calls

        # The resumed run journaled only the missing cells (no replays
        # re-appended) and committed the suite.
        records = read_records(journal)
        cell_keys = [
            (r["algorithm"], r["column"])
            for r in records
            if r["type"] == "cell"
        ]
        assert len(cell_keys) == len(set(cell_keys)) == 3
        assert journal_is_committed(journal)
        # The fresh cells carry this process's pid; the replayed ones
        # keep the dead writer's — the journal records who ran what.
        fresh_pids = {
            r["pid"]
            for r in records
            if r["type"] == "cell"
            and (r["algorithm"], r["column"]) not in {
                (c["algorithm"], c["column"]) for c in crashed_cells
            }
        }
        assert fresh_pids == {os.getpid()}
        assert crashed_pids.isdisjoint(fresh_pids)

    def test_committed_journal_replays_without_executing(
        self, csr_graph, suite, tmp_path
    ):
        from repro.durability import read_records

        journal = tmp_path / "done.journal.jsonl"
        first = _table(csr_graph, suite, journal=journal)
        appended = len(read_records(journal))

        replayed = _table(csr_graph, suite, journal=journal, resume=True)
        # Nothing new was journaled: every cell came from the replay.
        assert len(read_records(journal)) == appended
        for name in first.algorithms():
            for ours, theirs in zip(replayed.cells[name], first.cells[name]):
                assert ours.estimates == theirs.estimates
                assert ours.api_calls == theirs.api_calls

    def test_resume_against_changed_parameters_is_refused(
        self, csr_graph, suite, tmp_path
    ):
        journal = tmp_path / "run.journal.jsonl"
        _table(csr_graph, suite, journal=journal)
        with pytest.raises(ExperimentError, match="different suite"):
            _table(csr_graph, suite, journal=journal, resume=True, seed=43)
