"""Pins of the experiment-journal fingerprint of default-knob grids.

``run_grid`` keys a journal by :func:`repro.durability.suite_fingerprint`
over the graph and every run-shaping parameter.  A journal a crashed
default-knob table or sweep left behind must keep resuming after the
harness sheds a knob, so the fingerprints of both grid kinds are pinned
to literal hex values here, and a journal of another suite must still
be refused with the typed error.
"""

import pytest

from repro.durability import ExperimentJournal, read_records
from repro.exceptions import ExperimentError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import compare_algorithms
from repro.experiments.sweeps import frequency_sweep
from repro.graph.labeled_graph import LabeledGraph

#: Fingerprint of the default-knob table below.
TABLE_FINGERPRINT = "c419ed75136ae85e850d2f3a8c4cdd23"
#: Fingerprint of the default-knob frequency sweep below.
SWEEP_FINGERPRINT = "8da74329ea904604689fa43fbd47c367"
#: What the same table fingerprinted to when run with ``backend="csr"``,
#: a knob the harness no longer has.
CSR_BACKEND_TABLE_FINGERPRINT = "231e7f1ad37b73157d7710a21880f6ed"


@pytest.fixture(scope="module")
def wheel():
    """A ten-node ring with three chords; even nodes 1, odd nodes 2, node 0 also 3."""
    graph = LabeledGraph()
    for node in range(10):
        graph.add_edge(node, (node + 1) % 10)
    for u, v in ((0, 2), (0, 5), (3, 8)):
        graph.add_edge(u, v)
    for node in range(10):
        graph.set_labels(node, [1] if node % 2 == 0 else [2])
    graph.set_labels(0, [1, 3])
    return graph


def _table(graph, journal, **knobs):
    return compare_algorithms(
        graph, 1, 2, [0.3], 2, burn_in=3, seed=5, journal=journal, **knobs
    )


def _sweep(graph, journal, **knobs):
    suite = build_algorithm_suite(include_baselines=False)
    return frequency_sweep(
        graph,
        [(1, 2), (1, 3)],
        budget_fraction=0.3,
        repetitions=2,
        algorithms={"NeighborSample-HH": suite["NeighborSample-HH"]},
        burn_in=3,
        seed=5,
        journal=journal,
        **knobs,
    )


def _fingerprint(path):
    header = read_records(path)[0]
    assert header["type"] == "begin"
    return header["fingerprint"]


def test_default_table_fingerprint_is_pinned(wheel, tmp_path):
    path = tmp_path / "table.journal.jsonl"
    _table(wheel, path)
    assert _fingerprint(path) == TABLE_FINGERPRINT


def test_default_sweep_fingerprint_is_pinned(wheel, tmp_path):
    path = tmp_path / "sweep.journal.jsonl"
    _sweep(wheel, path)
    assert _fingerprint(path) == SWEEP_FINGERPRINT


def test_journal_of_another_suite_is_refused_on_resume(wheel, tmp_path):
    path = tmp_path / "table.journal.jsonl"
    ExperimentJournal(path, CSR_BACKEND_TABLE_FINGERPRINT).close()
    with pytest.raises(ExperimentError, match="different suite"):
        _table(wheel, path, resume=True)
