"""Structural invariants of the node fleet and every line-fleet kernel.

The numpy fleets are the one engine behind ``execution="fleet"`` and
the prefix-reuse sweeps: the node fleet walks the simple random walk,
the line fleets every EX-* kernel.  Each is checked on its own against
brute-force Python over the recorded arrays:

* every transition is an edge of the walked graph, and a walker stays
  in place only under a kernel with an accept test;
* the proposal probes of the MH-family kernels are neighbors of the
  current position, and equal the next position whenever it moved;
* the per-walker ledgers count the distinct pages of the trajectory
  plus the probes, for the full fleet and for every prefix of it.

Fleet widths 1, 7 and 32 are walked so a single-walker fleet and a
wide one keep the same invariants.
"""

import numpy as np
import pytest

from repro.baselines import line_graph_max_degree
from repro.graph.csr import CSRGraph, csr_view
from repro.walks.batched import BatchedWalkEngine, KernelSpec
from repro.walks.line_batched import BatchedLineWalkEngine

STEPS = 40
BURN_IN = 9
WIDTHS = (1, 7, 32)


@pytest.fixture(scope="module")
def walk_csr():
    """A power-law graph plus a pendant chain.

    The pendant (degree-1) node is a forced step of the node walk and a
    line node of line degree 1.
    """
    from repro.datasets.synthetic import powerlaw_cluster_osn

    graph = powerlaw_cluster_osn(220, 3, 0.3, rng=17)
    graph.add_edge(0, 220)
    graph.add_edge(220, 221)
    return csr_view(graph)


def _line_spec(name, csr):
    line_max = float(line_graph_max_degree(csr))
    return {
        "simple": KernelSpec("simple"),
        "mhrw": KernelSpec("mhrw"),
        "rcmh-0.0": KernelSpec("rcmh", alpha=0.0),
        "rcmh-0.2": KernelSpec("rcmh", alpha=0.2),
        "rcmh-0.5": KernelSpec("rcmh", alpha=0.5),
        "mdrw": KernelSpec("mdrw", max_degree=line_max),
        "gmd": KernelSpec("gmd", max_degree=line_max, delta=0.5),
    }[name]


LINE_KERNELS = ["simple", "mhrw", "rcmh-0.0", "rcmh-0.2", "rcmh-0.5", "mdrw", "gmd"]


def _may_stay(spec):
    """Whether the kernel has an accept test (rejected walkers stay)."""
    return spec.name in ("mhrw", "mdrw", "gmd") or (
        spec.name == "rcmh" and spec.alpha > 0.0
    )


def _node_fleets(csr, seed):
    for width in WIDTHS:
        yield width, BatchedWalkEngine(csr, seed).run_fleet(width, STEPS, burn_in=BURN_IN)


def _line_fleets(csr, spec, seed):
    for width in WIDTHS:
        yield width, BatchedLineWalkEngine(csr, kernel=spec, rng=seed).run_fleet(
            width, STEPS, burn_in=BURN_IN
        )


def _adjacent(csr, u, v):
    return v in csr.indices[csr.indptr[u] : csr.indptr[u + 1]].tolist()


# ----------------------------------------------------------------------
# node fleets
# ----------------------------------------------------------------------
class TestNodeFleetInvariants:
    def test_transitions_are_edges(self, walk_csr):
        for width, fleet in _node_fleets(walk_csr, seed=3):
            assert fleet.trajectories.shape == (width, BURN_IN + STEPS + 1)
            for w, row in enumerate(fleet.trajectories.tolist()):
                for t, (u, v) in enumerate(zip(row[:-1], row[1:])):
                    assert _adjacent(walk_csr, u, v), (width, w, t)

    def test_ledgers_count_trajectory_pages(self, walk_csr):
        for width, fleet in _node_fleets(walk_csr, seed=5):
            for num_steps in (1, STEPS // 2, STEPS):
                prefix = fleet.prefix(num_steps)
                expected = [len(set(row.tolist())) for row in prefix.trajectories]
                assert prefix.charged_calls().tolist() == expected, (width, num_steps)


def _shape(name):
    """A small graph of known structure, its edges and its check of a step."""
    if name == "path":  # 0 - 1 - ... - 9: every step moves by one
        edges = [(node, node + 1) for node in range(9)]
        step_ok = lambda u, v: abs(u - v) == 1
    elif name == "odd-cycle":  # 0 - 1 - ... - 8 - 0
        edges = [(node, (node + 1) % 9) for node in range(9)]
        step_ok = lambda u, v: (u - v) % 9 in (1, 8)
    elif name == "star":  # hub 0, eight leaves: every other position is the hub
        edges = [(0, leaf) for leaf in range(1, 9)]
        step_ok = lambda u, v: (u == 0) != (v == 0)
    elif name == "complete":  # K6: any other node
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        step_ok = lambda u, v: u != v
    else:  # two-components: a triangle and a square never meet
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)]
        step_ok = lambda u, v: (u < 3) == (v < 3)
    csr = CSRGraph.from_edge_array(np.array(edges, dtype=np.int64))
    return csr, edges, step_ok


SHAPES = ["path", "odd-cycle", "star", "complete", "two-components"]


class TestNodeFleetOnShapes:
    """The gather step on graphs whose every legal move is known."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_every_step_is_a_legal_move(self, name):
        csr, edges, step_ok = _shape(name)
        fleet = BatchedWalkEngine(csr, 31).run_fleet(64, STEPS, burn_in=BURN_IN)
        legal = set(edges) | {(v, u) for u, v in edges}
        for w, row in enumerate(fleet.trajectories.tolist()):
            for t, (u, v) in enumerate(zip(row[:-1], row[1:])):
                assert (u, v) in legal and step_ok(u, v), (name, w, t)

    @pytest.mark.parametrize("name", SHAPES)
    def test_every_neighbor_is_drawn(self, name):
        """Each node's moves reach all of its neighbors, the last
        neighbor of its row included, and nothing else."""
        csr, edges, _ = _shape(name)
        fleet = BatchedWalkEngine(csr, 37).run_fleet(64, STEPS, burn_in=BURN_IN)
        moves = {}
        for row in fleet.trajectories.tolist():
            for u, v in zip(row[:-1], row[1:]):
                moves.setdefault(u, set()).add(v)
        assert set(moves) == set(range(csr.num_nodes))
        for u, seen in moves.items():
            assert seen == set(csr.neighbors(u).tolist()), (name, u)


# ----------------------------------------------------------------------
# line-graph fleets (the EX-* baselines)
# ----------------------------------------------------------------------
class TestLineFleetInvariants:
    @pytest.mark.parametrize("name", LINE_KERNELS)
    def test_transitions_and_probes_share_an_endpoint(self, walk_csr, name):
        spec = _line_spec(name, walk_csr)
        for width, fleet in _line_fleets(walk_csr, spec, seed=23):
            assert fleet.src.shape == (width, BURN_IN + STEPS + 1)
            assert fleet.dst.shape == fleet.src.shape
            if spec.probes_proposals:
                assert fleet.probed_src.shape == (width, BURN_IN + STEPS)
                assert fleet.probed_dst.shape == (width, BURN_IN + STEPS)
            else:
                assert fleet.probed_src is None and fleet.probed_dst is None
            for w in range(width):
                edges = list(zip(fleet.src[w].tolist(), fleet.dst[w].tolist()))
                for u, v in edges:
                    assert _adjacent(walk_csr, u, v), (name, width, w)
                for t, (here, there) in enumerate(zip(edges[:-1], edges[1:])):
                    if here == there:
                        assert _may_stay(spec), (name, width, w, t)
                    else:
                        # A line-graph step pivots through the shared
                        # endpoint, which lands in src.
                        assert set(here) != set(there), (name, width, w, t)
                        assert there[0] in here, (name, width, w, t)
                    if fleet.probed_src is not None:
                        proposal = (
                            int(fleet.probed_src[w, t]),
                            int(fleet.probed_dst[w, t]),
                        )
                        assert _adjacent(walk_csr, *proposal)
                        assert proposal[0] in here
                        assert set(proposal) != set(here)
                        if there != here:
                            assert proposal == there

    @pytest.mark.parametrize("name", LINE_KERNELS)
    def test_ledgers_count_endpoint_and_probe_pages(self, walk_csr, name):
        spec = _line_spec(name, walk_csr)
        for width, fleet in _line_fleets(walk_csr, spec, seed=29):
            for num_steps in (1, STEPS // 2, STEPS):
                prefix = fleet.prefix(num_steps)
                expected = []
                for w in range(width):
                    pages = set(prefix.src[w].tolist()) | set(prefix.dst[w].tolist())
                    if prefix.probed_src is not None:
                        pages |= set(prefix.probed_src[w].tolist())
                        pages |= set(prefix.probed_dst[w].tolist())
                    expected.append(len(pages))
                assert prefix.charged_calls().tolist() == expected, (
                    name, width, num_steps,
                )
