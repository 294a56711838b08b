"""Structural invariants of every fleet kernel, node and line graph.

The numpy fleets are the one engine behind ``execution="fleet"`` and
the prefix-reuse sweeps, so each kernel is checked on its own against
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
from repro.graph.csr import csr_view
from repro.walks.batched import BatchedWalkEngine, KernelSpec
from repro.walks.line_batched import BatchedLineWalkEngine

STEPS = 40
BURN_IN = 9
WIDTHS = (1, 7, 32)


@pytest.fixture(scope="module")
def walk_csr():
    """A power-law graph plus a pendant chain.

    The pendant (degree-1) node exercises the non-backtracking dead-end
    branch and a line node of line degree 1.
    """
    from repro.datasets.synthetic import powerlaw_cluster_osn

    graph = powerlaw_cluster_osn(220, 3, 0.3, rng=17)
    graph.add_edge(0, 220)
    graph.add_edge(220, 221)
    return csr_view(graph)


def _node_spec(name, csr):
    d_max = float(csr.degrees.max())
    return {
        "simple": KernelSpec("simple"),
        "non_backtracking": KernelSpec("non_backtracking"),
        "mhrw": KernelSpec("mhrw"),
        "rcmh-0.0": KernelSpec("rcmh", alpha=0.0),
        "rcmh-0.2": KernelSpec("rcmh", alpha=0.2),
        "rcmh-0.5": KernelSpec("rcmh", alpha=0.5),
        "mdrw": KernelSpec("mdrw", max_degree=d_max),
        "gmd": KernelSpec("gmd", max_degree=d_max, delta=0.5),
    }[name]


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


NODE_KERNELS = [
    "simple", "non_backtracking", "mhrw", "rcmh-0.0", "rcmh-0.2",
    "rcmh-0.5", "mdrw", "gmd",
]
LINE_KERNELS = [name for name in NODE_KERNELS if name != "non_backtracking"]


def _may_stay(spec):
    """Whether the kernel has an accept test (rejected walkers stay)."""
    return spec.name in ("mhrw", "mdrw", "gmd") or (
        spec.name == "rcmh" and spec.alpha > 0.0
    )


def _node_fleets(csr, spec, seed):
    for width in WIDTHS:
        yield width, BatchedWalkEngine(csr, kernel=spec, rng=seed).run_fleet(
            width, STEPS, burn_in=BURN_IN
        )


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
    @pytest.mark.parametrize("name", NODE_KERNELS)
    def test_transitions_and_probes_are_edges(self, walk_csr, name):
        spec = _node_spec(name, walk_csr)
        for width, fleet in _node_fleets(walk_csr, spec, seed=3):
            assert fleet.trajectories.shape == (width, BURN_IN + STEPS + 1)
            assert fleet.kernel == spec
            if spec.probes_proposals:
                assert fleet.probed.shape == (width, BURN_IN + STEPS)
            else:
                assert fleet.probed is None
            for w, row in enumerate(fleet.trajectories.tolist()):
                for t, (u, v) in enumerate(zip(row[:-1], row[1:])):
                    if u == v:
                        assert _may_stay(spec), (name, width, w, t)
                    else:
                        assert _adjacent(walk_csr, u, v), (name, width, w, t)
                    if fleet.probed is not None:
                        proposal = int(fleet.probed[w, t])
                        assert _adjacent(walk_csr, u, proposal)
                        if v != u:
                            assert proposal == v

    @pytest.mark.parametrize("name", NODE_KERNELS)
    def test_ledgers_count_trajectory_and_probe_pages(self, walk_csr, name):
        spec = _node_spec(name, walk_csr)
        for width, fleet in _node_fleets(walk_csr, spec, seed=5):
            for num_steps in (1, STEPS // 2, STEPS):
                prefix = fleet.prefix(num_steps)
                expected = []
                for w in range(width):
                    pages = set(prefix.trajectories[w].tolist())
                    if prefix.probed is not None:
                        pages |= set(prefix.probed[w].tolist())
                    expected.append(len(pages))
                assert prefix.charged_calls().tolist() == expected, (
                    name, width, num_steps,
                )


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
