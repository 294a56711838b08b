"""Unit tests for the CSR graph view and the vectorized walk engines.

Covers, on small graphs with exactly known structure:

* CSR construction fidelity (order-preserving adjacency, label masks,
  vectorized ``T(u)`` counts),
* same-seed **step-for-step** agreement between :func:`csr_walk` and the
  dict-based reference engine,
* the exact-replay oracle of the fleet classifiers: a :func:`csr_walk`
  path wrapped as a one-walker fleet and classified must reproduce the
  reference samplers' samples and charged API calls at the same seed,
* the fleet samplers over one walker, and the batched fleet engine's
  structural invariants (valid transitions, non-backtracking property,
  start validation, per-walker budgets).
"""

import random

import numpy as np
import pytest

from repro.core.estimators import (
    EdgeHansenHurwitzEstimator,
    NodeHansenHurwitzEstimator,
)
from repro.core.samplers import (
    NeighborExplorationSampler,
    NeighborSampleSampler,
    explore_nodes_fleet,
    sample_edges_fleet,
)
from repro.core.samplers.csr_backend import classify_edge_fleet, classify_node_fleet
from repro.exceptions import (
    APIBudgetExceededError,
    ConfigurationError,
    NodeNotFoundError,
    WalkError,
)
from repro.graph.api import RestrictedGraphAPI
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import LabeledGraph
from repro.walks.batched import (
    BatchedWalkEngine,
    FleetWalkResult,
    csr_walk,
    draw_start_index,
    resolve_csr_kernel,
    resolve_kernel_spec,
)
from repro.walks.engine import RandomWalk
from repro.walks.kernels import (
    MetropolisHastingsKernel,
    NonBacktrackingKernel,
    RejectionControlledMHKernel,
    SimpleRandomWalkKernel,
)


class TestCSRGraphConstruction:
    def test_counts_match(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        assert csr.num_nodes == triangle_graph.num_nodes
        assert csr.num_edges == triangle_graph.num_edges
        assert len(csr) == 3

    def test_adjacency_preserves_neighbor_order(self, rare_label_osn):
        csr = CSRGraph.from_labeled_graph(rare_label_osn)
        for node in list(rare_label_osn.nodes())[:50]:
            index = csr.index_of(node)
            expected = [csr.index_of(v) for v in rare_label_osn.neighbors(node)]
            assert csr.neighbors(index).tolist() == expected
            assert csr.degree(index) == rare_label_osn.degree(node)

    def test_indptr_is_degree_cumsum(self, path_graph):
        csr = CSRGraph.from_labeled_graph(path_graph)
        degrees = [path_graph.degree(n) for n in path_graph.nodes()]
        assert csr.indptr.tolist() == [0] + list(np.cumsum(degrees))
        assert csr.degrees.tolist() == degrees

    def test_label_masks(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        mask_a = csr.label_mask("a")
        mask_b = csr.label_mask("b")
        for node in triangle_graph.nodes():
            index = csr.index_of(node)
            assert mask_a[index] == triangle_graph.has_label(node, "a")
            assert mask_b[index] == triangle_graph.has_label(node, "b")
        # masks are cached and read-only
        assert csr.label_mask("a") is mask_a
        assert not mask_a.flags.writeable

    def test_labels_of_roundtrip(self, star_graph):
        csr = CSRGraph.from_labeled_graph(star_graph)
        for node in star_graph.nodes():
            assert csr.labels_of(csr.index_of(node)) == star_graph.labels_of(node)

    def test_index_of_unknown_node_raises(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        with pytest.raises(NodeNotFoundError):
            csr.index_of("nope")

    def test_target_incident_counts_match_reference(self, rare_label_osn):
        csr = CSRGraph.from_labeled_graph(rare_label_osn)
        labels = sorted(rare_label_osn.all_labels())[:2]
        t1, t2 = labels[0], labels[-1]
        counts = csr.target_incident_counts(t1, t2)
        for node in rare_label_osn.nodes():
            expected = rare_label_osn.target_edges_incident_to(node, t1, t2)
            assert counts[csr.index_of(node)] == expected

    def test_target_incident_counts_same_label(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        counts = csr.target_incident_counts(1, 1)
        for node in list(gender_osn.nodes())[:100]:
            expected = gender_osn.target_edges_incident_to(node, 1, 1)
            assert counts[csr.index_of(node)] == expected

    def test_target_incident_counts_node_with_both_labels(self):
        graph = LabeledGraph()
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        graph.set_labels(0, ["x", "y"])
        graph.set_labels(1, ["x", "y"])
        graph.set_labels(2, ["x"])
        csr = CSRGraph.from_labeled_graph(graph)
        counts = csr.target_incident_counts("x", "y")
        for node in graph.nodes():
            assert counts[csr.index_of(node)] == graph.target_edges_incident_to(
                node, "x", "y"
            )


class TestKernelResolution:
    def test_names_and_instances(self):
        assert resolve_csr_kernel(None) == "simple"
        assert resolve_csr_kernel("simple") == "simple"
        assert resolve_csr_kernel("non_backtracking") == "non_backtracking"
        assert resolve_csr_kernel(SimpleRandomWalkKernel()) == "simple"
        assert resolve_csr_kernel(NonBacktrackingKernel()) == "non_backtracking"
        # The EX-* accept/reject kernels are vectorized now.
        assert resolve_csr_kernel("mhrw") == "mhrw"
        assert resolve_csr_kernel(MetropolisHastingsKernel()) == "mhrw"

    def test_unsupported_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_csr_kernel("metropolis")
        with pytest.raises(ConfigurationError):
            resolve_csr_kernel(object())


class TestStepForStepAgreement:
    """Same seed, same trajectory as the dict engine."""

    @pytest.mark.parametrize(
        "kernel_factory,kernel_name",
        [
            (SimpleRandomWalkKernel, "simple"),
            (NonBacktrackingKernel, "non_backtracking"),
        ],
    )
    def test_walk_matches_reference_engine(
        self, rare_label_osn, kernel_factory, kernel_name
    ):
        csr = CSRGraph.from_labeled_graph(rare_label_osn)
        start = next(iter(rare_label_osn.nodes()))
        for seed in (1, 7, 42):
            api = RestrictedGraphAPI(rare_label_osn)
            reference = RandomWalk(
                api, kernel_factory(), burn_in=0, rng=random.Random(seed)
            ).run(120, start_node=start)
            path = csr_walk(
                csr, 120, csr.index_of(start), random.Random(seed), kernel_name
            )
            assert [csr.node_ids[i] for i in path] == reference.nodes


def _replay_classified(csr, sampler, t1, t2, k, burn_in, seed, kernel):
    """Classify a reference-stream :func:`csr_walk` as a one-walker fleet."""
    generator = random.Random(seed)
    start = draw_start_index(csr, generator)
    path, probes = csr_walk(
        csr, burn_in + k, start, generator, kernel, return_probes=True
    )
    fleet = FleetWalkResult(
        trajectories=np.concatenate(([start], path))[None, :],
        burn_in=burn_in,
        probed=None if probes is None else probes[None, :],
        kernel=resolve_kernel_spec(kernel),
    )
    classify = classify_edge_fleet if sampler == "edge" else classify_node_fleet
    return classify(csr, fleet, t1, t2).sample_set(0)


def _sample_rows(sampler, sample_set):
    if sampler == "edge":
        return [(s.u, s.v, s.is_target) for s in sample_set]
    return [
        (s.node, s.degree, s.has_target_label, s.incident_target_edges)
        for s in sample_set
    ]


def _outcome(sampler, run):
    """Samples, charged calls and HH estimate of *run* — or its WalkError."""
    try:
        sample_set = run()
    except WalkError as error:
        return ("WalkError", "self-loop" in str(error))
    estimator = (
        EdgeHansenHurwitzEstimator() if sampler == "edge" else NodeHansenHurwitzEstimator()
    )
    result = estimator.estimate(sample_set)
    return (
        _sample_rows(sampler, sample_set),
        sample_set.api_calls_used,
        result.estimate,
        result.api_calls,
    )


class TestFleetClassifierReplay:
    """The exact-replay oracle of the fleet classifiers.

    :func:`csr_walk` consumes the reference engine's random stream, so
    wrapping its path (and its MH proposal probes) as a one-walker
    :class:`FleetWalkResult` and classifying it must give the reference
    sampler's samples, charged API calls and estimate at the same seed.
    NeighborSample over a self-looping MH kernel must raise on both.
    """

    @pytest.mark.parametrize("graph_name", ["gender", "rare_label"])
    @pytest.mark.parametrize(
        "kernel_factory",
        [
            SimpleRandomWalkKernel,
            MetropolisHastingsKernel,
            lambda: RejectionControlledMHKernel(0.3),
        ],
        ids=["simple", "mhrw", "rcmh"],
    )
    @pytest.mark.parametrize("sampler", ["edge", "node"])
    def test_classified_replay_matches_reference_sampler(
        self, request, graph_name, kernel_factory, sampler
    ):
        graph = request.getfixturevalue(f"{graph_name}_osn")
        if graph_name == "gender":
            t1, t2 = 1, 2
        else:
            labels = sorted(graph.all_labels())
            t1, t2 = labels[0], labels[1]
        csr = CSRGraph.from_labeled_graph(graph)
        reference_cls = (
            NeighborSampleSampler if sampler == "edge" else NeighborExplorationSampler
        )
        for seed in (3, 2018):
            reference = _outcome(
                sampler,
                lambda: reference_cls(
                    RestrictedGraphAPI(graph), t1, t2,
                    burn_in=15, kernel=kernel_factory(), rng=seed,
                ).sample(80),
            )
            replay = _outcome(
                sampler,
                lambda: _replay_classified(
                    csr, sampler, t1, t2, 80, 15, seed, kernel_factory()
                ),
            )
            assert replay == reference


class TestCSRSamplerBehaviour:
    """The fleet samplers over a single walker."""

    def test_fleet_is_deterministic_per_seed(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        one = sample_edges_fleet(csr, 1, 2, 50, 1, burn_in=5, rng=9)
        two = sample_edges_fleet(csr, 1, 2, 50, 1, burn_in=5, rng=9)
        assert np.array_equal(one.sources, two.sources)
        assert np.array_equal(one.dests, two.dests)

    def test_sampled_edges_exist(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        samples = sample_edges_fleet(csr, 1, 2, 100, 1, rng=4).sample_set(0)
        for sample in samples:
            assert gender_osn.has_edge(sample.u, sample.v)
            assert sample.is_target == gender_osn.is_target_edge(
                sample.u, sample.v, 1, 2
            )

    def test_explored_nodes_report_true_incident_counts(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        samples = explore_nodes_fleet(csr, 1, 2, 100, 1, rng=8).sample_set(0)
        for sample in samples:
            assert sample.degree == gender_osn.degree(sample.node)
            if sample.has_target_label:
                assert sample.incident_target_edges == (
                    gender_osn.target_edges_incident_to(sample.node, 1, 2)
                )
            else:
                assert sample.incident_target_edges == 0

    def test_budget_exceeded_raises(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        with pytest.raises(APIBudgetExceededError):
            sample_edges_fleet(csr, 1, 2, 200, 1, rng=6, budget=10)

    def test_isolated_node_raises_walk_error(self):
        graph = LabeledGraph()
        graph.add_edge(1, 2)
        graph.add_node(3)  # isolated
        csr = CSRGraph.from_labeled_graph(graph)
        with pytest.raises(WalkError):
            csr_walk(csr, 10, csr.index_of(3), rng=0)


class TestBatchedWalkEngine:
    def test_shapes_and_validity(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        fleet = BatchedWalkEngine(csr, rng=5).run_fleet(16, 40, burn_in=8)
        assert fleet.trajectories.shape == (16, 8 + 40 + 1)
        assert fleet.num_walkers == 16
        assert fleet.num_steps == 40
        assert fleet.burn_in == 8
        # every recorded transition must be a real edge
        for row in fleet.trajectories:
            for u, v in zip(row[:-1].tolist(), row[1:].tolist()):
                assert v in csr.neighbors(u)

    def test_non_backtracking_property(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        engine = BatchedWalkEngine(csr, kernel="non_backtracking", rng=13)
        fleet = engine.run_fleet(8, 60)
        for row in fleet.trajectories.tolist():
            for a, b, c in zip(row, row[1:], row[2:]):
                if csr.degree(b) > 1:
                    assert c != a, "walk backtracked at a non-dead-end"

    def test_deterministic_with_seed(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        for kernel in ("simple", "non_backtracking", "mhrw"):
            one = BatchedWalkEngine(csr, kernel=kernel, rng=99).run_fleet(6, 30)
            two = BatchedWalkEngine(csr, kernel=kernel, rng=99).run_fleet(6, 30)
            assert np.array_equal(one.trajectories, two.trajectories), kernel

    def test_explicit_start_nodes(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        fleet = BatchedWalkEngine(csr, rng=1).run_fleet(3, 10, start_nodes=[0, 1, 2])
        assert fleet.start_nodes.tolist() == [0, 1, 2]
        with pytest.raises(ConfigurationError, match="shape"):
            BatchedWalkEngine(csr, rng=1).run_fleet(2, 5, start_nodes=[0])
        with pytest.raises(ConfigurationError, match="out-of-range"):
            BatchedWalkEngine(csr, rng=1).run_fleet(2, 5, start_nodes=[0, 99])
        with pytest.raises(ConfigurationError, match="out-of-range"):
            BatchedWalkEngine(csr, rng=1).run_fleet(2, 5, start_nodes=[-1, 0])

    def test_charged_calls_are_distinct_pages(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        fleet = BatchedWalkEngine(csr, rng=7).run_fleet(2, 50)
        # a long walk on a triangle touches every page exactly once
        assert fleet.charged_calls().tolist() == [3, 3]

    def test_budget_crossing_is_per_walker(self, gender_osn):
        """The tightest budget any walker crosses raises; one more passes.

        mhrw so the rejected-proposal probes count towards the crossing.
        """
        csr = CSRGraph.from_labeled_graph(gender_osn)
        probe = BatchedWalkEngine(csr, kernel="mhrw", rng=3).run_fleet(16, 60)
        heaviest = int(probe.charged_calls().max())
        with pytest.raises(APIBudgetExceededError) as excinfo:
            BatchedWalkEngine(
                csr, kernel="mhrw", rng=3, budget=heaviest - 1
            ).run_fleet(16, 60)
        # reference semantics: the counter stops at the crossing attempt
        assert excinfo.value.budget == heaviest - 1
        assert excinfo.value.used == heaviest
        fleet = BatchedWalkEngine(
            csr, kernel="mhrw", rng=3, budget=heaviest
        ).run_fleet(16, 60)
        assert np.array_equal(fleet.trajectories, probe.trajectories)

    def test_zero_budget_raises_immediately(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        engine = BatchedWalkEngine(csr, budget=0, rng=1)
        with pytest.raises(APIBudgetExceededError):
            engine.run_fleet(1, 1)

    def test_prefix_is_bitwise_a_shorter_fleet(self, gender_osn):
        """Trajectories, proposal probes and ledgers of a prefix equal a
        fresh fleet walked to exactly that length from the same seed."""
        csr = CSRGraph.from_labeled_graph(gender_osn)
        fleet = BatchedWalkEngine(csr, kernel="mhrw", rng=11).run_fleet(
            9, 40, burn_in=9
        )
        for num_steps in (1, 20):
            short = fleet.prefix(num_steps)
            fresh = BatchedWalkEngine(csr, kernel="mhrw", rng=11).run_fleet(
                9, num_steps, burn_in=9
            )
            assert np.array_equal(short.trajectories, fresh.trajectories)
            assert np.array_equal(short.probed, fresh.probed)
            assert np.array_equal(short.charged_calls(), fresh.charged_calls())
