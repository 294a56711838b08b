"""The dict engine's six kernels, the accounting reference, on one graph.

The node fleets walk only the simple random walk; every other node
kernel lives in :mod:`repro.walks.kernels` and runs through
:class:`~repro.walks.engine.RandomWalk` over a
:class:`~repro.graph.api.RestrictedGraphAPI`.  The samplers' ``kernel=``
parameter is the accounting reference of the walks the paper compares,
so each kernel is checked here against brute-force Python:

* every transition is an edge of the graph, a walker stays in place
  only under a kernel that may stay, and the non-backtracking walk
  turns back only at a dead end;
* the pages a step downloads are the current node and, for the
  Metropolis–Hastings family, the proposal it probes; each page is
  charged once;
* NeighborExploration downloads exactly the walk's pages plus the
  neighbor lists of its labeled collected nodes, NeighborSample exactly
  the walk's pages, and a budget of ``b`` calls raises on the
  ``b + 1``-st.
"""

import random

import pytest

from repro.core.samplers import NeighborExplorationSampler, NeighborSampleSampler
from repro.datasets.labeling import assign_binary_labels
from repro.exceptions import APIBudgetExceededError, WalkError
from repro.graph.api import RestrictedGraphAPI
from repro.walks.engine import RandomWalk
from repro.walks.kernels import (
    GeneralMaximumDegreeKernel,
    MaximumDegreeKernel,
    MetropolisHastingsKernel,
    NonBacktrackingKernel,
    RejectionControlledMHKernel,
    SimpleRandomWalkKernel,
)

STEPS = 400
BURN_IN = 9
KERNELS = [
    "simple", "non_backtracking", "mhrw", "rcmh-0.0", "rcmh-0.2",
    "rcmh-0.5", "mdrw", "gmd",
]
#: Kernels that may stay in place (accept/reject or lazy self-loops).
STAYING = {"mhrw", "rcmh-0.2", "rcmh-0.5", "mdrw", "gmd"}
#: Kernels that download the page of a proposal they may reject.
PROBING = {"mhrw", "rcmh-0.2", "rcmh-0.5"}
SAMPLE_SIZES = pytest.mark.parametrize("k", [1, 17, 40], ids=["one", "mid", "max"])


@pytest.fixture(scope="module")
def walk_graph():
    """A power-law graph plus a pendant chain (a dead end).

    Two nodes in three carry a target label 1 or 2; the rest carry 3,
    so NeighborExploration explores some collected nodes and not others.
    """
    from repro.datasets.synthetic import powerlaw_cluster_osn

    graph = powerlaw_cluster_osn(220, 3, 0.3, rng=17)
    graph.add_edge(0, 220)
    graph.add_edge(220, 221)
    assign_binary_labels(graph, 0.5, labels=(1, 2), rng=18)
    for node in list(graph.nodes())[::3]:
        graph.set_labels(node, [3])
    return graph


def make_kernel(name, graph):
    d_max = float(max(graph.degree(node) for node in graph.nodes()))
    return {
        "simple": lambda: SimpleRandomWalkKernel(),
        "non_backtracking": lambda: NonBacktrackingKernel(),
        "mhrw": lambda: MetropolisHastingsKernel(),
        "rcmh-0.0": lambda: RejectionControlledMHKernel(alpha=0.0),
        "rcmh-0.2": lambda: RejectionControlledMHKernel(alpha=0.2),
        "rcmh-0.5": lambda: RejectionControlledMHKernel(alpha=0.5),
        "mdrw": lambda: MaximumDegreeKernel(d_max),
        "gmd": lambda: GeneralMaximumDegreeKernel(d_max, delta=0.5),
    }[name]()


def drive(api, kernel, steps, seed):
    """Step *kernel* by hand; return the path and each step's new pages."""
    rng = random.Random(seed)
    path = [api.random_node(rng)]
    state = kernel.initial_state(api, path[0], rng)
    new_pages = []
    for _ in range(steps):
        before = set(api.counter.per_node)
        nxt, state = kernel.step(api, path[-1], state, rng)
        new_pages.append(set(api.counter.per_node) - before)
        path.append(nxt)
    return path, new_pages


def labeled(graph, node, pair=(1, 2)):
    return bool(set(graph.labels_of(node)) & set(pair))


class TestReferenceWalkInvariants:
    @pytest.mark.parametrize("name", KERNELS)
    def test_transitions_are_edges_or_permitted_stays(self, walk_graph, name):
        api = RestrictedGraphAPI(walk_graph)
        path, _ = drive(api, make_kernel(name, walk_graph), STEPS, seed=3)
        stays = 0
        for t, (u, v) in enumerate(zip(path[:-1], path[1:])):
            if u == v:
                assert name in STAYING, (name, t)
                stays += 1
            else:
                assert walk_graph.has_edge(u, v), (name, t)
        # every staying kernel does stay on a walk this long
        assert (stays > 0) == (name in STAYING)
        if name == "non_backtracking":
            for t in range(1, STEPS):
                if walk_graph.degree(path[t]) > 1:
                    assert path[t + 1] != path[t - 1], t

    @pytest.mark.parametrize("name", KERNELS)
    def test_charged_pages_are_positions_and_probes(self, walk_graph, name):
        api = RestrictedGraphAPI(walk_graph)
        path, new_pages = drive(api, make_kernel(name, walk_graph), STEPS, seed=5)
        probes = set()
        for t, pages in enumerate(new_pages):
            u, v = path[t], path[t + 1]
            for page in pages - {u}:
                # a page beyond the current one is a probed proposal:
                # the move's target, or a neighbor the walk rejected
                assert name in PROBING, (name, t)
                assert walk_graph.has_edge(u, page), (name, t)
                assert page == v or v == u, (name, t)
                probes.add(page)
        assert set(api.counter.per_node) == set(path[:-1]) | probes
        assert set(api.counter.per_node.values()) == {1}
        assert api.api_calls == len(api.counter.per_node)
        # a rejected proposal off the walk is still a downloaded page
        assert bool(probes - set(path)) == (name in PROBING)


class TestReferenceSamplerLedgers:
    @SAMPLE_SIZES
    @pytest.mark.parametrize("name", KERNELS)
    def test_exploration_charges_walk_pages_and_explored_lists(
        self, walk_graph, name, k
    ):
        walk_api = RestrictedGraphAPI(walk_graph)
        walk = RandomWalk(
            walk_api, make_kernel(name, walk_graph), burn_in=BURN_IN, rng=7
        ).run(k)
        expected = set(walk_api.counter.per_node)
        explored = [node for node in walk.nodes if labeled(walk_graph, node)]
        for node in explored:
            expected |= set(walk_graph.neighbors(node))
        if k > 1:
            assert 0 < len(explored) < k

        api = RestrictedGraphAPI(walk_graph)
        samples = NeighborExplorationSampler(
            api, 1, 2, burn_in=BURN_IN, kernel=make_kernel(name, walk_graph), rng=7
        ).sample(k)
        assert [sample.node for sample in samples] == walk.nodes
        assert set(api.counter.per_node) == expected
        assert samples.api_calls_used == len(expected)

    @SAMPLE_SIZES
    @pytest.mark.parametrize("name", ["simple", "non_backtracking", "rcmh-0.0"])
    def test_edge_sampler_charges_walk_pages(self, walk_graph, name, k):
        walk_api = RestrictedGraphAPI(walk_graph)
        walk = RandomWalk(
            walk_api, make_kernel(name, walk_graph), burn_in=BURN_IN, rng=11
        ).run(k)

        api = RestrictedGraphAPI(walk_graph)
        samples = NeighborSampleSampler(
            api, 1, 2, burn_in=BURN_IN, kernel=make_kernel(name, walk_graph), rng=11
        ).sample(k)
        assert [(sample.u, sample.v) for sample in samples] == walk.edges
        # edge labels come with the pages the walk downloaded anyway
        assert set(api.counter.per_node) == set(walk_api.counter.per_node)
        assert samples.api_calls_used == walk_api.api_calls

    @pytest.mark.parametrize("name", sorted(STAYING))
    def test_edge_sampler_refuses_staying_kernels(self, walk_graph, name):
        sampler = NeighborSampleSampler(
            RestrictedGraphAPI(walk_graph), 1, 2, burn_in=BURN_IN,
            kernel=make_kernel(name, walk_graph), rng=13,
        )
        with pytest.raises(WalkError, match="self-loop"):
            sampler.sample(200)


class TestReferenceBudgetEnforcement:
    @pytest.mark.parametrize("name", KERNELS)
    def test_raises_exactly_when_the_crawl_crosses(self, walk_graph, name):
        def crawl(budget):
            api = RestrictedGraphAPI(walk_graph, budget=budget)
            NeighborExplorationSampler(
                api, 1, 2, burn_in=BURN_IN, kernel=make_kernel(name, walk_graph), rng=5
            ).sample(40)
            return api.api_calls

        worst = crawl(None)
        assert crawl(worst) == worst
        with pytest.raises(APIBudgetExceededError):
            crawl(worst - 1)
