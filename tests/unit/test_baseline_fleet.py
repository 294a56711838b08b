"""Unit tests for the vectorized EX-* baseline kernels and line fleets.

Deterministic (fast-tier) properties of the accept/reject vectorization:
kernel degenerations (``alpha`` ∈ {0, 1}, ``delta`` = 1), max-degree
validation, isolated-walker errors, exact-RNG replay of every baseline
kernel against the reference engine, rejection-aware ledger accounting,
and the prefix/fleet bit-equality that the prefix-reuse sweep engine
relies on.  The statistical fleet-vs-sequential equivalence lives in
``tests/integration/test_baseline_fleet_equivalence.py``.
"""

import random

import numpy as np
import pytest

from repro.baselines import line_graph_max_degree, make_baseline
from repro.baselines.fleet import (
    classify_line_fleet,
    reweighted_estimates,
    run_baseline_fleet,
)
from repro.core.samplers.csr_backend import sample_edges_fleet
from repro.exceptions import ConfigurationError, WalkError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import run_trials_prefix
from repro.graph.api import RestrictedGraphAPI
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.labeled_graph import LabeledGraph
from repro.utils.rng import ensure_numpy_rng
from repro.walks.batched import (
    BatchedWalkEngine,
    KernelSpec,
    csr_walk,
    kernel_stationary_weights,
    resolve_kernel_spec,
)
from repro.walks.engine import RandomWalk
from repro.walks.kernels import (
    GeneralMaximumDegreeKernel,
    MaximumDegreeKernel,
    MetropolisHastingsKernel,
    RejectionControlledMHKernel,
)
from repro.walks.line_batched import BatchedLineWalkEngine


@pytest.fixture(scope="module")
def csr_osn(gender_osn):
    return csr_view(gender_osn)


class TestKernelSpecs:
    def test_instances_carry_their_knobs(self):
        spec = resolve_kernel_spec(GeneralMaximumDegreeKernel(40.0, delta=0.6))
        assert (spec.name, spec.max_degree, spec.delta) == ("gmd", 40.0, 0.6)
        spec = resolve_kernel_spec(RejectionControlledMHKernel(alpha=0.15))
        assert (spec.name, spec.alpha) == ("rcmh", 0.15)
        spec = resolve_kernel_spec(MaximumDegreeKernel(17))
        assert (spec.name, spec.max_degree) == ("mdrw", 17.0)

    def test_bare_md_names_need_max_degree(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel_spec("mdrw")
        with pytest.raises(ConfigurationError):
            resolve_kernel_spec("gmd")
        # With an explicit spec the knob is there.
        assert resolve_kernel_spec(KernelSpec("mdrw", max_degree=5.0)).max_degree == 5.0

    def test_probe_flags(self):
        assert KernelSpec("mhrw").probes_proposals
        assert KernelSpec("rcmh", alpha=0.2).probes_proposals
        assert not KernelSpec("rcmh", alpha=0.0).probes_proposals
        assert not KernelSpec("mdrw", max_degree=5.0).probes_proposals
        assert not KernelSpec("gmd", max_degree=5.0).probes_proposals
        assert not KernelSpec("simple").probes_proposals

    def test_stationary_weight_formulas(self):
        degrees = np.array([1, 4, 10], dtype=np.int64)
        assert np.array_equal(
            kernel_stationary_weights(KernelSpec("simple"), degrees), [1.0, 4.0, 10.0]
        )
        assert np.array_equal(
            kernel_stationary_weights(KernelSpec("mhrw"), degrees), [1.0, 1.0, 1.0]
        )
        rcmh = kernel_stationary_weights(KernelSpec("rcmh", alpha=0.5), degrees)
        assert np.allclose(rcmh, degrees**0.5)
        gmd = kernel_stationary_weights(
            KernelSpec("gmd", max_degree=10.0, delta=0.5), degrees
        )
        assert np.array_equal(gmd, [5.0, 5.0, 10.0])


class TestExactReplay:
    """csr_walk must replay the reference kernels bit for bit."""

    @pytest.mark.parametrize(
        "make_kernel, make_spec",
        [
            (
                lambda d: MetropolisHastingsKernel(),
                lambda d: KernelSpec("mhrw"),
            ),
            (
                lambda d: MaximumDegreeKernel(d),
                lambda d: KernelSpec("mdrw", max_degree=d),
            ),
            (
                lambda d: RejectionControlledMHKernel(0.25),
                lambda d: KernelSpec("rcmh", alpha=0.25),
            ),
            (
                lambda d: RejectionControlledMHKernel(0.0),
                lambda d: KernelSpec("rcmh", alpha=0.0),
            ),
            (
                lambda d: GeneralMaximumDegreeKernel(d, 0.4),
                lambda d: KernelSpec("gmd", max_degree=d, delta=0.4),
            ),
        ],
        ids=["mhrw", "mdrw", "rcmh", "rcmh-alpha0", "gmd"],
    )
    def test_kernel_replays_reference_engine(
        self, gender_osn, csr_osn, make_kernel, make_spec
    ):
        max_degree = max(gender_osn.degree(node) for node in gender_osn.nodes())
        start = next(iter(gender_osn.nodes()))
        reference = RandomWalk(
            RestrictedGraphAPI(gender_osn), make_kernel(max_degree), rng=99
        ).run(120, start_node=start)
        path = csr_walk(
            csr_osn,
            120,
            csr_osn.index_of(start),
            random.Random(99),
            kernel=make_spec(max_degree),
        )
        ids = csr_osn.node_ids
        assert [ids[int(i)] for i in path] == reference.nodes


class TestVectorizedAcceptMask:
    def test_rcmh_alpha_zero_degenerates_to_simple(self, csr_osn):
        srw = BatchedWalkEngine(csr_osn, kernel="simple", rng=5)
        rcmh = BatchedWalkEngine(csr_osn, kernel=KernelSpec("rcmh", alpha=0.0), rng=5)
        a = srw.run_fleet(8, 40)
        b = rcmh.run_fleet(8, 40)
        assert np.array_equal(a.trajectories, b.trajectories)
        assert b.probed is None  # no proposal pages were probed

    def test_rcmh_alpha_one_degenerates_to_mhrw(self, csr_osn):
        mh = BatchedWalkEngine(csr_osn, kernel="mhrw", rng=6)
        rcmh = BatchedWalkEngine(csr_osn, kernel=KernelSpec("rcmh", alpha=1.0), rng=6)
        a = mh.run_fleet(8, 40)
        b = rcmh.run_fleet(8, 40)
        assert np.array_equal(a.trajectories, b.trajectories)
        assert np.array_equal(a.probed, b.probed)

    def test_gmd_delta_one_degenerates_to_mdrw(self, csr_osn):
        max_degree = float(csr_osn.degrees.max())
        md = BatchedWalkEngine(
            csr_osn, kernel=KernelSpec("mdrw", max_degree=max_degree), rng=7
        )
        gmd = BatchedWalkEngine(
            csr_osn, kernel=KernelSpec("gmd", max_degree=max_degree, delta=1.0), rng=7
        )
        assert np.array_equal(
            md.run_fleet(8, 40).trajectories, gmd.run_fleet(8, 40).trajectories
        )

    def test_mdrw_rejects_degree_above_max(self, csr_osn):
        engine = BatchedWalkEngine(
            csr_osn, kernel=KernelSpec("mdrw", max_degree=2.0), rng=8
        )
        with pytest.raises(WalkError):
            engine.run_fleet(16, 30)

    def test_rejected_walkers_stay_in_place(self, csr_osn):
        """With a huge max degree the MD walk must self-loop essentially
        always — the vectorized mask's 'stay' branch."""
        engine = BatchedWalkEngine(
            csr_osn, kernel=KernelSpec("mdrw", max_degree=1e12), rng=9
        )
        fleet = engine.run_fleet(6, 25)
        assert np.array_equal(
            fleet.trajectories, np.repeat(fleet.trajectories[:, :1], 26, axis=1)
        )
        # A permanently-stalled crawler downloads exactly one page.
        assert np.array_equal(fleet.charged_calls(), np.ones(6, dtype=np.int64))

    def test_probed_pages_enter_the_ledgers(self, csr_osn):
        fleet = BatchedWalkEngine(csr_osn, kernel="mhrw", rng=10).run_fleet(5, 30)
        assert fleet.probed is not None
        expected = [
            len(set(fleet.trajectories[w].tolist()) | set(fleet.probed[w].tolist()))
            for w in range(5)
        ]
        assert fleet.charged_calls().tolist() == expected

    def test_isolated_start_raises(self):
        graph = LabeledGraph()
        graph.add_edge(0, 1)
        graph.add_node(2)  # isolated
        csr = csr_view(graph)
        engine = BatchedWalkEngine(csr, kernel="mhrw", rng=1)
        with pytest.raises(WalkError):
            engine.run_fleet(4, 5, start_nodes=[2, 0, 1, 0])


class TestLineFleet:
    def test_isolated_dyad_line_node_raises(self):
        # A single-edge graph: its line graph is one isolated node.
        csr = CSRGraph.from_edge_array(np.array([[0, 1]]))
        engine = BatchedLineWalkEngine(csr, kernel="simple", rng=1)
        with pytest.raises(WalkError, match="isolated line node"):
            engine.run_fleet(3, 4)

    def test_mdrw_rejects_line_degree_above_max(self, csr_osn):
        max_degree = float(line_graph_max_degree(csr_osn))
        engine = BatchedLineWalkEngine(
            csr_osn, kernel=KernelSpec("mdrw", max_degree=max_degree / 4), rng=2
        )
        with pytest.raises(WalkError, match="max_degree"):
            engine.run_fleet(16, 30)

    def test_non_backtracking_rejected(self, csr_osn):
        with pytest.raises(ConfigurationError):
            BatchedLineWalkEngine(csr_osn, kernel="non_backtracking")

    def test_visited_line_nodes_are_edges(self, csr_osn):
        """Every visited line node must be an actual edge of G and every
        transition must share an endpoint (line-graph adjacency)."""
        fleet = BatchedLineWalkEngine(csr_osn, kernel="mhrw", rng=3).run_fleet(6, 30)
        indptr, indices = csr_osn.indptr, csr_osn.indices
        for w in range(fleet.num_walkers):
            for t in range(fleet.src.shape[1]):
                u, v = int(fleet.src[w, t]), int(fleet.dst[w, t])
                assert v in indices[indptr[u] : indptr[u + 1]]
                if t:
                    prev = {int(fleet.src[w, t - 1]), int(fleet.dst[w, t - 1])}
                    assert prev & {u, v}

    def test_prefix_is_bitwise_initial_segment(self, csr_osn):
        engine = BatchedLineWalkEngine(csr_osn, kernel="mhrw", rng=11)
        fleet = engine.run_fleet(5, 40, burn_in=10)
        short = fleet.prefix(15)
        assert np.array_equal(short.src, fleet.src[:, : 10 + 15 + 1])
        assert np.array_equal(short.probed_src, fleet.probed_src[:, : 10 + 15])
        # Ledgers recomputed over the truncation must match a fleet run
        # to exactly that budget from the same seed.
        fresh = BatchedLineWalkEngine(csr_osn, kernel="mhrw", rng=11).run_fleet(
            5, 15, burn_in=10
        )
        assert np.array_equal(short.src, fresh.src)
        assert np.array_equal(short.dst, fresh.dst)
        assert np.array_equal(short.charged_calls(), fresh.charged_calls())

    def test_rejection_probes_enter_line_ledgers(self, csr_osn):
        fleet = BatchedLineWalkEngine(csr_osn, kernel="mhrw", rng=13).run_fleet(4, 25)
        expected = [
            len(
                set(fleet.src[w].tolist())
                | set(fleet.dst[w].tolist())
                | set(fleet.probed_src[w].tolist())
                | set(fleet.probed_dst[w].tolist())
            )
            for w in range(4)
        ]
        assert fleet.charged_calls().tolist() == expected

    def test_md_ledgers_exclude_probes(self, csr_osn):
        max_degree = float(line_graph_max_degree(csr_osn))
        fleet = BatchedLineWalkEngine(
            csr_osn, kernel=KernelSpec("mdrw", max_degree=max_degree), rng=14
        ).run_fleet(4, 25)
        assert fleet.probed_src is None
        expected = [
            len(set(fleet.src[w].tolist()) | set(fleet.dst[w].tolist()))
            for w in range(4)
        ]
        assert fleet.charged_calls().tolist() == expected


class TestBaselineFleetEstimation:
    def test_classification_weights_follow_the_kernel(self, gender_osn, csr_osn):
        max_degree = line_graph_max_degree(gender_osn)
        for name, expected in [
            ("EX-RW", None),  # weights = line degrees
            ("EX-MHRW", 1.0),
        ]:
            baseline = make_baseline(name, line_max_degree=max_degree)
            fleet = run_baseline_fleet(csr_osn, baseline, 20, 4, rng=5)
            assert fleet.kernel == baseline.csr_kernel_spec()
            batch = classify_line_fleet(csr_osn, fleet, 1, 2)
            line_degrees = (
                csr_osn.degrees[batch.sources] + csr_osn.degrees[batch.dests] - 2
            )
            if expected is None:
                assert np.array_equal(batch.weights, line_degrees.astype(float))
            else:
                assert np.array_equal(batch.weights, np.full(batch.sources.shape, expected))
            assert batch.num_edges == gender_osn.num_edges
            estimates = reweighted_estimates(batch)
            assert estimates.shape == (4,)
            assert np.isfinite(estimates).all()

    def test_reweighted_estimates_match_hand_computation(self, csr_osn):
        baseline = make_baseline("EX-RW")
        fleet = run_baseline_fleet(csr_osn, baseline, 15, 3, rng=8)
        batch = classify_line_fleet(csr_osn, fleet, 1, 2)
        estimates = reweighted_estimates(batch)
        for trial in range(3):
            num = sum(
                float(batch.is_target[trial, i]) / batch.weights[trial, i]
                for i in range(batch.k)
            )
            den = sum(1.0 / batch.weights[trial, i] for i in range(batch.k))
            assert estimates[trial] == pytest.approx(batch.num_edges * num / den)

    def test_prefix_max_column_matches_fleet_cell(self, gender_osn):
        """run_trials_prefix's largest budget column must be bit-identical
        to a fresh fleet cell at the same seed — the same guarantee the
        proposed algorithms have."""
        suite = build_algorithm_suite(gender_osn, algorithms=["EX-MHRW", "EX-GMD"])
        for name in suite:
            row = run_trials_prefix(
                gender_osn, 1, 2, suite[name], name, [10, 30], 5, 8, seed=21
            )
            (cell,) = run_trials_prefix(
                gender_osn, 1, 2, suite[name], name, [30], 5, 8, seed=21
            )
            assert row[-1].estimates == cell.estimates
            assert row[-1].api_calls == cell.api_calls
            # Smaller columns come from the same walk's prefixes.
            assert row[0].sample_size == 10

    def test_csr_native_run_trials_dispatches_baselines(self, csr_osn):
        suite = build_algorithm_suite(csr_osn, algorithms=["EX-RCMH"])
        (outcome,) = run_trials_prefix(
            csr_osn, 1, 2, suite["EX-RCMH"], "EX-RCMH", [20], 4, 5, seed=3
        )
        assert len(outcome.estimates) == 4

    def test_sample_edges_fleet_rejects_self_looping_kernels(self, csr_osn):
        """NeighborSample needs a traversed edge per step; an MH fleet
        that stayed in place must raise like the scalar paths do."""
        with pytest.raises(WalkError, match="self-loop"):
            sample_edges_fleet(
                csr_osn, 1, 2, k=40, repetitions=8,
                rng=ensure_numpy_rng(4), kernel="mhrw",
            )

    def test_explore_nodes_fleet_carries_weights_for_mh_kernel(self, csr_osn):
        from repro.core.samplers.csr_backend import explore_nodes_fleet

        batch = explore_nodes_fleet(
            csr_osn, 1, 2, k=12, repetitions=3, rng=ensure_numpy_rng(4), kernel="mhrw"
        )
        assert np.array_equal(batch.weights, np.ones((3, 12)))
        thinned = batch.thinned(0.5)
        assert thinned.weights.shape == thinned.nodes.shape
        simple = explore_nodes_fleet(
            csr_osn, 1, 2, k=12, repetitions=3, rng=ensure_numpy_rng(4)
        )
        assert simple.weights is None

    def test_csr_line_max_degree_matches_dict(self, gender_osn, csr_osn):
        assert line_graph_max_degree(csr_osn) == line_graph_max_degree(gender_osn)


class TestScalarSamplerParity:
    """The dict engine and the fleets agree on MH-family kernels."""

    def test_ns_self_loop_kernels_raise_on_both_engines(self, gender_osn, csr_osn):
        """NeighborSample needs a traversed edge per step; a staying MH
        kernel must raise the same WalkError on either engine."""
        from repro.core.samplers import NeighborSampleSampler

        sampler = NeighborSampleSampler(
            RestrictedGraphAPI(gender_osn), 1, 2, burn_in=10,
            kernel=MetropolisHastingsKernel(), rng=42,
        )
        with pytest.raises(WalkError, match="self-loop"):
            sampler.sample(50)
        with pytest.raises(WalkError, match="self-loop"):
            sample_edges_fleet(
                csr_osn, 1, 2, k=50, repetitions=1, burn_in=10,
                rng=42, kernel="mhrw",
            )

    def test_csr_walk_returns_probes_for_mh_family(self, csr_osn):
        path, probes = csr_walk(
            csr_osn, 20, 3, 5, kernel="mhrw", return_probes=True
        )
        assert probes.shape == (20,)
        # Accepted steps moved to their proposal; every position is
        # either the probe of its step or the previous position (stay).
        previous = 3
        for step in range(20):
            assert path[step] in (probes[step], previous)
            previous = path[step]
        simple_path, simple_probes = csr_walk(
            csr_osn, 20, 3, 5, kernel="simple", return_probes=True
        )
        assert simple_probes is None and simple_path.shape == (20,)
