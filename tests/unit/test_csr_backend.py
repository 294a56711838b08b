"""Unit tests for the CSR graph view and the vectorized walk engines.

Covers, on small graphs with exactly known structure:

* CSR construction fidelity (order-preserving adjacency, label masks,
  vectorized ``T(u)`` counts),
* same-seed **step-for-step** agreement between :func:`csr_walk` and the
  dict-based reference engine,
* the exact-replay oracle of the fleet classifiers: a :func:`csr_walk`
  path wrapped as a one-walker fleet and classified must reproduce the
  reference samplers' samples and charged API calls at the same seed,
* one-walker fleets classified, and the batched fleet engine's
  structural invariants (valid transitions, determinism, distinct-page
  ledgers, prefixes).
"""

import random

import numpy as np
import pytest

from repro.core.estimators import (
    EdgeHansenHurwitzEstimator,
    NodeHansenHurwitzEstimator,
)
from repro.core.samplers import NeighborExplorationSampler, NeighborSampleSampler
from repro.core.samplers.csr_backend import classify_edge_fleet, classify_node_fleet
from repro.exceptions import (
    ConfigurationError,
    EmptyGraphError,
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
    resolve_kernel_spec,
)
from repro.walks.engine import RandomWalk
from repro.walks.kernels import (
    MetropolisHastingsKernel,
    NonBacktrackingKernel,
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
        counts = csr.target_incident_counts(t1, t2, np.arange(csr.num_nodes))
        for node in rare_label_osn.nodes():
            expected = rare_label_osn.target_edges_incident_to(node, t1, t2)
            assert counts[csr.index_of(node)] == expected

    def test_target_incident_counts_same_label(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        counts = csr.target_incident_counts(1, 1, np.arange(csr.num_nodes))
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
        counts = csr.target_incident_counts("x", "y", np.arange(csr.num_nodes))
        for node in graph.nodes():
            assert counts[csr.index_of(node)] == graph.target_edges_incident_to(
                node, "x", "y"
            )


class TestKernelResolution:
    """The line fleets' five kernels: EX-RW's simple walk and four accept/reject ones."""

    def test_names_and_instances(self):
        assert resolve_kernel_spec(None).name == "simple"
        assert resolve_kernel_spec("simple").name == "simple"
        assert resolve_kernel_spec(SimpleRandomWalkKernel()).name == "simple"
        assert resolve_kernel_spec("mhrw").name == "mhrw"
        assert resolve_kernel_spec(MetropolisHastingsKernel()).name == "mhrw"

    def test_unsupported_rejected(self):
        for kernel in ("metropolis", object(), "non_backtracking", NonBacktrackingKernel()):
            with pytest.raises(ConfigurationError):
                resolve_kernel_spec(kernel)


class TestStepForStepAgreement:
    """Same seed, same trajectory as the dict engine."""

    def test_walk_matches_reference_engine(self, rare_label_osn):
        csr = CSRGraph.from_labeled_graph(rare_label_osn)
        start = next(iter(rare_label_osn.nodes()))
        for seed in (1, 7, 42):
            api = RestrictedGraphAPI(rare_label_osn)
            reference = RandomWalk(
                api, SimpleRandomWalkKernel(), burn_in=0, rng=random.Random(seed)
            ).run(120, start_node=start)
            path = csr_walk(csr, 120, csr.index_of(start), random.Random(seed))
            assert [csr.node_ids[i] for i in path] == reference.nodes

    @pytest.mark.parametrize("shape", ["triangle", "path", "star"])
    def test_drawn_start_and_walk_match_reference_engine(self, request, shape):
        """Without an explicit start, :func:`draw_start_index` consumes the
        stream like ``random_node``, so the whole walk still agrees."""
        graph = request.getfixturevalue(f"{shape}_graph")
        csr = CSRGraph.from_labeled_graph(graph)
        for seed in (1, 7, 42):
            reference = RandomWalk(
                RestrictedGraphAPI(graph),
                SimpleRandomWalkKernel(),
                rng=random.Random(seed),
            ).run(30)
            generator = random.Random(seed)
            start = draw_start_index(csr, generator)
            path = csr_walk(csr, 30, start, generator)
            assert csr.node_ids[start] == reference.start_node
            assert [csr.node_ids[i] for i in path] == reference.nodes


def _classify(csr, sampler, fleet, t1, t2):
    classify = classify_edge_fleet if sampler == "edge" else classify_node_fleet
    return classify(csr, fleet, t1, t2)


def _replay_classified(csr, sampler, t1, t2, k, burn_in, seed):
    """Classify a reference-stream :func:`csr_walk` as a one-walker fleet."""
    generator = random.Random(seed)
    start = draw_start_index(csr, generator)
    path = csr_walk(csr, burn_in + k, start, generator)
    fleet = FleetWalkResult(
        trajectories=np.concatenate(([start], path))[None, :], burn_in=burn_in
    )
    return _classify(csr, sampler, fleet, t1, t2).sample_set(0)


def _one_walker(csr, sampler, k, burn_in=0, rng=None):
    """The CSR one-shot's walk: a one-walker fleet, classified."""
    fleet = BatchedWalkEngine(csr, rng).run_fleet(1, k, burn_in)
    return _classify(csr, sampler, fleet, 1, 2)


def _sample_rows(sampler, sample_set):
    if sampler == "edge":
        return [(s.u, s.v, s.is_target) for s in sample_set]
    return [
        (s.node, s.degree, s.has_target_label, s.incident_target_edges)
        for s in sample_set
    ]


def _outcome(sampler, sample_set):
    """Samples, charged calls and HH estimate of *sample_set*."""
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
    wrapping its path as a one-walker :class:`FleetWalkResult` and
    classifying it must give the reference sampler's samples, charged
    API calls and estimate at the same seed.
    """

    @pytest.mark.parametrize("graph_name", ["gender", "rare_label"])
    @pytest.mark.parametrize("sampler", ["edge", "node"])
    def test_classified_replay_matches_reference_sampler(
        self, request, graph_name, sampler
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
            reference = reference_cls(
                RestrictedGraphAPI(graph), t1, t2, burn_in=15, rng=seed
            ).sample(80)
            replay = _replay_classified(csr, sampler, t1, t2, 80, 15, seed)
            assert _outcome(sampler, replay) == _outcome(sampler, reference)


    @pytest.mark.parametrize(
        "k, burn_in",
        [(1, 0), (1, 15), (200, 0)],
        ids=["k1", "k1-burn-in", "no-burn-in"],
    )
    @pytest.mark.parametrize("sampler", ["edge", "node"])
    def test_replay_at_the_slicing_edges(self, gender_osn, sampler, k, burn_in):
        """A single collected step, and a walk collected from its start."""
        csr = CSRGraph.from_labeled_graph(gender_osn)
        reference_cls = (
            NeighborSampleSampler if sampler == "edge" else NeighborExplorationSampler
        )
        for seed in (3, 2018):
            reference = reference_cls(
                RestrictedGraphAPI(gender_osn), 1, 2, burn_in=burn_in, rng=seed
            ).sample(k)
            replay = _replay_classified(csr, sampler, 1, 2, k, burn_in, seed)
            assert _outcome(sampler, replay) == _outcome(sampler, reference)


class TestCSRSamplerBehaviour:
    """A one-walker fleet, classified: the CSR one-shot's path."""

    def test_fleet_is_deterministic_per_seed(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        one = _one_walker(csr, "edge", 50, burn_in=5, rng=9)
        two = _one_walker(csr, "edge", 50, burn_in=5, rng=9)
        assert np.array_equal(one.sources, two.sources)
        assert np.array_equal(one.dests, two.dests)

    def test_sampled_edges_exist(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        samples = _one_walker(csr, "edge", 100, rng=4).sample_set(0)
        for sample in samples:
            assert gender_osn.has_edge(sample.u, sample.v)
            assert sample.is_target == gender_osn.is_target_edge(
                sample.u, sample.v, 1, 2
            )

    def test_explored_nodes_report_true_incident_counts(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        samples = _one_walker(csr, "node", 100, rng=8).sample_set(0)
        for sample in samples:
            assert sample.degree == gender_osn.degree(sample.node)
            if sample.has_target_label:
                assert sample.incident_target_edges == (
                    gender_osn.target_edges_incident_to(sample.node, 1, 2)
                )
            else:
                assert sample.incident_target_edges == 0

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

    def test_deterministic_with_seed(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        one = BatchedWalkEngine(csr, rng=99).run_fleet(6, 30)
        two = BatchedWalkEngine(csr, rng=99).run_fleet(6, 30)
        assert np.array_equal(one.trajectories, two.trajectories)

    def test_charged_calls_are_distinct_pages(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        fleet = BatchedWalkEngine(csr, rng=7).run_fleet(2, 50)
        # a long walk on a triangle touches every page exactly once
        assert fleet.charged_calls().tolist() == [3, 3]

    def test_prefix_is_bitwise_a_shorter_fleet(self, gender_osn):
        """Trajectories and ledgers of a prefix equal a fresh fleet walked
        to exactly that length from the same seed."""
        csr = CSRGraph.from_labeled_graph(gender_osn)
        fleet = BatchedWalkEngine(csr, rng=11).run_fleet(9, 40, burn_in=9)
        for num_steps in (1, 20):
            short = fleet.prefix(num_steps)
            fresh = BatchedWalkEngine(csr, rng=11).run_fleet(9, num_steps, burn_in=9)
            assert np.array_equal(short.trajectories, fresh.trajectories)
            assert np.array_equal(short.charged_calls(), fresh.charged_calls())

    @pytest.mark.parametrize(
        "walkers, steps, burn_in",
        [(0, 5, 0), (-2, 5, 0), (2.0, 5, 0), (3, 0, 0), (3, -1, 0), (3, 5, -1)],
        ids=["no-walkers", "negative-walkers", "float-walkers", "no-steps",
             "negative-steps", "negative-burn-in"],
    )
    def test_invalid_fleet_sizes_are_refused(
        self, triangle_graph, walkers, steps, burn_in
    ):
        engine = BatchedWalkEngine(CSRGraph.from_labeled_graph(triangle_graph), rng=1)
        with pytest.raises(ConfigurationError):
            engine.run_fleet(walkers, steps, burn_in=burn_in)

    def test_empty_graph_raises(self):
        csr = CSRGraph.from_edge_array(np.empty((0, 2), dtype=np.int64))
        with pytest.raises(EmptyGraphError):
            BatchedWalkEngine(csr, rng=1).run_fleet(2, 3)

    def test_zero_step_prefix_is_refused(self, triangle_graph):
        csr = CSRGraph.from_labeled_graph(triangle_graph)
        fleet = BatchedWalkEngine(csr, rng=2).run_fleet(2, 5)
        with pytest.raises(ConfigurationError):
            fleet.prefix(0)

    def test_without_burn_in_every_transition_is_collected(self, gender_osn):
        csr = CSRGraph.from_labeled_graph(gender_osn)
        fleet = BatchedWalkEngine(csr, rng=3).run_fleet(4, 25)
        assert np.array_equal(fleet.collected, fleet.trajectories[:, 1:])
        assert np.array_equal(fleet.sources, fleet.trajectories[:, :-1])
        assert fleet.num_steps == 25
