"""Unit tests for the fleet execution path.

Covers the three new layers end to end on small graphs:

* the fleet walk engine (full trajectories, per-walker ledgers,
  per-walker budget enforcement),
* the fleet samplers and their charged-call parity with a replay
  through the reference :class:`RestrictedGraphAPI` (the "budget
  ledger" guarantee of ``execution="fleet"``),
* the array-native ``estimate_batch`` estimators against the scalar
  estimators, trial by trial,
* ``run_trials(execution="fleet")`` dispatch, reproducibility and the
  EX-* sequential fallback,
* ``n_jobs > 1`` determinism: the same table for any worker count.
"""

import numpy as np
import pytest

from repro.core.estimators import (
    EdgeHansenHurwitzEstimator,
    EdgeHorvitzThompsonEstimator,
    NodeHansenHurwitzEstimator,
    NodeHorvitzThompsonEstimator,
    NodeReweightedEstimator,
)
from repro.core.samplers.csr_backend import (
    EXECUTIONS,
    explore_nodes_fleet,
    sample_edges_fleet,
    validate_execution,
)
from repro.exceptions import APIBudgetExceededError, ConfigurationError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import compare_algorithms, run_trials
from repro.experiments.sweeps import frequency_sweep
from repro.graph.api import RestrictedGraphAPI
from repro.graph.csr import csr_view
from repro.walks.batched import BatchedWalkEngine, per_walker_distinct_counts

REPS = 6
K = 60
BURN_IN = 12


@pytest.fixture(scope="module")
def gender_csr(gender_osn):
    return csr_view(gender_osn)


# ----------------------------------------------------------------------
# fleet walk engine
# ----------------------------------------------------------------------
class TestFleetWalk:
    def test_trajectory_shape_and_slices(self, gender_csr):
        fleet = BatchedWalkEngine(gender_csr, rng=0).run_fleet(REPS, K, burn_in=BURN_IN)
        assert fleet.trajectories.shape == (REPS, BURN_IN + K + 1)
        assert fleet.num_walkers == REPS
        assert fleet.num_steps == K
        assert fleet.collected.shape == (REPS, K)
        # sources are the positions one step before each collected node
        assert np.array_equal(fleet.sources[:, 1:], fleet.collected[:, :-1])
        assert np.array_equal(fleet.trajectories[:, 0], fleet.start_nodes)

    def test_every_transition_follows_an_edge(self, gender_csr):
        fleet = BatchedWalkEngine(gender_csr, rng=1).run_fleet(4, 30, burn_in=5)
        for row in fleet.trajectories:
            for u, v in zip(row[:-1], row[1:]):
                assert v in gender_csr.neighbors(int(u))

    def test_per_walker_ledger_matches_python_sets(self, gender_csr):
        fleet = BatchedWalkEngine(gender_csr, rng=2).run_fleet(REPS, K, burn_in=BURN_IN)
        charges = fleet.charged_calls()
        expected = [len(set(row.tolist())) for row in fleet.trajectories]
        assert charges.tolist() == expected

    def test_per_walker_budget_enforced(self, gender_csr):
        with pytest.raises(APIBudgetExceededError):
            BatchedWalkEngine(gender_csr, rng=3, budget=3).run_fleet(4, 50)

    def test_distinct_counts_direct(self):
        trajectories = np.array([[0, 1, 2, 1], [0, 0, 0, 0]])
        assert per_walker_distinct_counts(trajectories).tolist() == [3, 1]


# ----------------------------------------------------------------------
# charged-call parity against the reference wrapper (budget ledger)
# ----------------------------------------------------------------------
class TestChargedCallParity:
    """Replaying a fleet trial through RestrictedGraphAPI must charge the
    same number of API calls the fleet ledger recorded for it."""

    def test_edge_fleet_ledger(self, gender_osn, gender_csr):
        batch = sample_edges_fleet(
            gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=BURN_IN, rng=5
        )
        ids = gender_csr.node_ids
        for trial in range(batch.num_trials):
            api = RestrictedGraphAPI(gender_osn)
            for index in batch.trajectories[trial]:
                api.neighbors(ids[int(index)])
            # Edge classification reads labels of walk nodes only: all
            # pages already downloaded, so no further charges.
            assert api.api_calls == int(batch.api_calls[trial])

    def test_node_fleet_ledger(self, gender_osn, gender_csr):
        batch = explore_nodes_fleet(
            gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=BURN_IN, rng=6
        )
        ids = gender_csr.node_ids
        for trial in range(batch.num_trials):
            api = RestrictedGraphAPI(gender_osn)
            for index in batch.trajectories[trial]:
                api.neighbors(ids[int(index)])
            # Replay the exploration of each labeled collected node the
            # way the reference sampler does it.
            for index in batch.trajectories[trial][BURN_IN + 1 :]:
                node = ids[int(index)]
                labels = api.labels_of(node)
                if 1 in labels or 2 in labels:
                    for neighbor in api.neighbors(node):
                        api.labels_of(neighbor)
            assert api.api_calls == int(batch.api_calls[trial])

    def test_exploration_ledger_strategies_agree(self, gender_csr, monkeypatch):
        """The ledger charged as one block of walkers and as one-walker
        blocks (wide fleets on big graphs) must produce identical charges."""
        import repro.core.samplers.csr_backend as csr_backend

        kwargs = dict(k=K, repetitions=REPS, burn_in=BURN_IN, rng=6)
        dense = explore_nodes_fleet(gender_csr, 1, 2, **kwargs)
        monkeypatch.setattr(csr_backend, "_MASK_LEDGER_MAX_CELLS", 0)
        sparse = explore_nodes_fleet(gender_csr, 1, 2, **kwargs)
        assert np.array_equal(dense.trajectories, sparse.trajectories)
        assert np.array_equal(dense.api_calls, sparse.api_calls)

    def test_fleet_budget_crossing_raises(self, gender_csr):
        probe = sample_edges_fleet(
            gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=0, rng=7
        )
        tight = int(probe.api_calls.max()) - 1
        with pytest.raises(APIBudgetExceededError):
            sample_edges_fleet(
                gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=0, rng=7, budget=tight
            )

    def test_fleet_budget_loose_enough_passes(self, gender_csr):
        probe = explore_nodes_fleet(
            gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=0, rng=8
        )
        batch = explore_nodes_fleet(
            gender_csr,
            1,
            2,
            k=K,
            repetitions=REPS,
            burn_in=0,
            rng=8,
            budget=int(probe.api_calls.max()),
        )
        assert np.array_equal(batch.api_calls, probe.api_calls)


# ----------------------------------------------------------------------
# estimate_batch vs the scalar estimators
# ----------------------------------------------------------------------
class TestBatchEstimators:
    @pytest.fixture(scope="class")
    def edge_batch(self, gender_csr):
        return sample_edges_fleet(
            gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=BURN_IN, rng=9
        )

    @pytest.fixture(scope="class")
    def node_batch(self, gender_csr):
        return explore_nodes_fleet(
            gender_csr, 1, 2, k=K, repetitions=REPS, burn_in=BURN_IN, rng=10
        )

    def test_edge_hh_exact(self, edge_batch):
        estimator = EdgeHansenHurwitzEstimator()
        vec = estimator.estimate_batch(edge_batch)
        for trial in range(edge_batch.num_trials):
            scalar = estimator.estimate(edge_batch.sample_set(trial)).estimate
            assert vec[trial] == scalar

    def test_edge_ht_exact(self, edge_batch):
        estimator = EdgeHorvitzThompsonEstimator()
        vec = estimator.estimate_batch(edge_batch)
        for trial in range(edge_batch.num_trials):
            scalar = estimator.estimate(edge_batch.sample_set(trial)).estimate
            assert vec[trial] == scalar

    @pytest.mark.parametrize(
        "estimator_factory",
        [NodeHansenHurwitzEstimator, NodeHorvitzThompsonEstimator, NodeReweightedEstimator],
    )
    def test_node_estimators_close(self, node_batch, estimator_factory):
        estimator = estimator_factory()
        vec = estimator.estimate_batch(node_batch)
        for trial in range(node_batch.num_trials):
            scalar = estimator.estimate(node_batch.sample_set(trial)).estimate
            assert vec[trial] == pytest.approx(scalar, rel=1e-12)

    def test_batch_thinning_matches_sample_set_thinning(self, edge_batch):
        thinned = edge_batch.thinned()
        for trial in (0, edge_batch.num_trials - 1):
            reference = edge_batch.sample_set(trial).thinned()
            materialised = thinned.sample_set(trial)
            assert [s.canonical() for s in materialised.samples] == [
                s.canonical() for s in reference.samples
            ]

    def test_node_ht_rejects_underestimated_edge_prior(self, gender_csr):
        """An |E| prior below max_degree/2 makes degree/2|E| exceed 1;
        the batch path must raise like the scalar path, not return a
        silently wrong estimate."""
        from repro.exceptions import EstimationError

        batch = explore_nodes_fleet(
            gender_csr, 1, 2, k=K, repetitions=3, burn_in=BURN_IN, rng=11,
            known_num_edges=1,
        )
        estimator = NodeHorvitzThompsonEstimator()
        with pytest.raises(EstimationError):
            estimator.estimate_batch(batch)
        with pytest.raises(EstimationError):
            estimator.estimate(batch.sample_set(0))

    def test_ht_no_thinning_variant(self, node_batch):
        estimator = NodeHorvitzThompsonEstimator(thinning_fraction=None)
        vec = estimator.estimate_batch(node_batch)
        for trial in range(node_batch.num_trials):
            scalar = estimator.estimate(node_batch.sample_set(trial)).estimate
            assert vec[trial] == pytest.approx(scalar, rel=1e-12)


# ----------------------------------------------------------------------
# run_trials / compare_algorithms dispatch
# ----------------------------------------------------------------------
class TestFleetExecution:
    @pytest.fixture(scope="class")
    def suite(self, gender_osn):
        return build_algorithm_suite(gender_osn, include_baselines=False)

    def test_unknown_execution_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_execution("warp")
        assert "fleet" in EXECUTIONS

    def test_mismatched_csr_rejected_on_fleet_path(self, gender_osn, rare_label_osn, suite):
        """A CSR view frozen from a different graph must be rejected,
        matching the sequential path's adopt_csr guard."""
        wrong_csr = csr_view(rare_label_osn)
        with pytest.raises(ConfigurationError):
            run_trials(
                gender_osn,
                1,
                2,
                suite["NeighborSample-HH"],
                "NeighborSample-HH",
                sample_size=10,
                repetitions=2,
                burn_in=5,
                seed=1,
                csr=wrong_csr,
                execution="fleet",
            )

    def test_unknown_backend_rejected_eagerly_by_harness(self, gender_osn, suite):
        with pytest.raises(ConfigurationError):
            compare_algorithms(
                gender_osn, 1, 2, sample_fractions=[0.02], repetitions=2,
                algorithms=suite, burn_in=5, seed=1, backend="cuda",
            )
        with pytest.raises(ConfigurationError):
            frequency_sweep(
                gender_osn, [(1, 2)], repetitions=2, burn_in=5, seed=1,
                backend="cuda",
            )

    def test_unknown_backend_rejected_on_fleet_path(self, gender_osn, suite):
        with pytest.raises(ConfigurationError):
            run_trials(
                gender_osn,
                1,
                2,
                suite["NeighborSample-HH"],
                "NeighborSample-HH",
                sample_size=10,
                repetitions=2,
                burn_in=5,
                seed=1,
                backend="bogus",
                execution="fleet",
            )

    def test_fleet_reproducible_with_seed(self, gender_osn, suite):
        args = dict(sample_size=40, repetitions=5, burn_in=15, seed=42, execution="fleet")
        first = run_trials(
            gender_osn, 1, 2, suite["NeighborSample-HT"], "NeighborSample-HT", **args
        )
        second = run_trials(
            gender_osn, 1, 2, suite["NeighborSample-HT"], "NeighborSample-HT", **args
        )
        assert first.estimates == second.estimates
        assert first.api_calls == second.api_calls

    def test_fleet_outcome_shape(self, gender_osn, suite):
        outcome = run_trials(
            gender_osn,
            1,
            2,
            suite["NeighborExploration-RW"],
            "NeighborExploration-RW",
            sample_size=40,
            repetitions=5,
            burn_in=15,
            seed=1,
            execution="fleet",
        )
        assert outcome.repetitions == 5
        assert outcome.nrmse >= 0
        assert all(calls > 0 for calls in outcome.api_calls)

    def test_custom_runner_config_honored_on_fleet_path(self, gender_osn, gender_csr):
        """A custom ProposedRunner vectorizes with its *own* estimator
        configuration — it must not be swapped for the registry default
        registered under the same name."""
        from repro.core.pipeline import ProposedRunner

        def no_thinning_ht():
            return EdgeHorvitzThompsonEstimator(thinning_fraction=None)

        custom = ProposedRunner(sampler="edge", estimator_factory=no_thinning_ht)
        args = dict(sample_size=60, repetitions=4, burn_in=10, seed=6)
        fleet = run_trials(
            gender_osn, 1, 2, custom, "NeighborSample-HT", **args, execution="fleet"
        )
        # The fleet walk is deterministic in the seed, so the outcome
        # must equal the custom estimator applied to the same batch.
        import numpy as np
        from repro.utils.rng import ensure_numpy_rng

        batch = sample_edges_fleet(
            gender_csr, 1, 2, k=60, repetitions=4, burn_in=10, rng=ensure_numpy_rng(6)
        )
        expected = no_thinning_ht().estimate_batch(batch)
        assert fleet.estimates == [float(v) for v in expected]
        # ...and differ from the registry (thinned) configuration.
        registry = EdgeHorvitzThompsonEstimator().estimate_batch(batch)
        assert fleet.estimates != [float(v) for v in registry]

    def test_baselines_run_as_line_graph_fleets(self, gender_osn):
        """EX-* cells vectorize now: fleet execution must produce one
        estimate and one independent ledger per repetition (the
        distributional equivalence with the sequential line walk is
        KS-enforced in tests/integration/test_baseline_fleet_equivalence.py)."""
        suite = build_algorithm_suite(gender_osn, algorithms=["EX-RW", "EX-MHRW"])
        args = dict(sample_size=25, repetitions=3, burn_in=10, seed=4)
        for name in suite:
            fleet = run_trials(
                gender_osn, 1, 2, suite[name], name, **args, execution="fleet"
            )
            assert len(fleet.estimates) == 3
            assert all(np.isfinite(fleet.estimates))
            # Line crawls fetch both endpoints per visited edge, so each
            # repetition's ledger must be positive and graph-bounded.
            assert all(0 < calls <= gender_osn.num_nodes for calls in fleet.api_calls)

    def test_handwritten_runners_fall_back_to_sequential(self, gender_osn):
        """Only registry runners vectorize; a bare callable keeps the
        sequential reference loop bit for bit."""
        suite = build_algorithm_suite(gender_osn, algorithms=["EX-RW"])

        def handwritten(api, t1, t2, k, burn_in, rng, backend="python"):
            return suite["EX-RW"](api, t1, t2, k, burn_in, rng)

        args = dict(sample_size=25, repetitions=3, burn_in=10, seed=4)
        sequential = run_trials(
            gender_osn, 1, 2, handwritten, "custom", **args, execution="sequential"
        )
        fleet = run_trials(
            gender_osn, 1, 2, handwritten, "custom", **args, execution="fleet"
        )
        assert fleet.estimates == sequential.estimates
        assert fleet.api_calls == sequential.api_calls


class TestParallelDeterminism:
    def test_same_table_for_any_worker_count(self, gender_osn):
        suite = build_algorithm_suite(gender_osn, include_baselines=False)
        kwargs = dict(
            sample_fractions=[0.02, 0.05],
            repetitions=3,
            algorithms=suite,
            burn_in=12,
            seed=7,
            execution="fleet",
        )
        serial = compare_algorithms(gender_osn, 1, 2, n_jobs=1, **kwargs)
        parallel = compare_algorithms(gender_osn, 1, 2, n_jobs=2, **kwargs)
        assert serial.algorithms() == parallel.algorithms()
        for name in serial.algorithms():
            for column in range(2):
                assert (
                    serial.cells[name][column].estimates
                    == parallel.cells[name][column].estimates
                )
                assert (
                    serial.cells[name][column].api_calls
                    == parallel.cells[name][column].api_calls
                )

    def test_frequency_sweep_parallel_determinism(self, gender_osn):
        pairs = [(1, 2), (1, 1)]
        kwargs = dict(
            budget_fraction=0.03,
            repetitions=3,
            burn_in=12,
            seed=5,
            execution="fleet",
        )
        serial = frequency_sweep(gender_osn, pairs, n_jobs=1, **kwargs)
        parallel = frequency_sweep(gender_osn, pairs, n_jobs=2, **kwargs)
        assert len(serial) == len(parallel)
        for one, two in zip(serial, parallel):
            assert one.target_pair == two.target_pair
            assert one.nrmse_by_algorithm == two.nrmse_by_algorithm

    def test_unpicklable_runner_rejected_for_parallel(self, gender_osn):
        def custom(api, t1, t2, k, burn_in, rng, backend="python"):  # pragma: no cover
            raise AssertionError("never called")

        with pytest.raises(ConfigurationError):
            compare_algorithms(
                gender_osn,
                1,
                2,
                sample_fractions=[0.02],
                repetitions=2,
                algorithms={"my-algo": custom},
                burn_in=10,
                seed=1,
                n_jobs=2,
            )

    def test_tuned_baselines_survive_parallel(self, gender_osn):
        """A tuned suite must give identical tables at any worker count
        (the runner objects themselves cross the process boundary)."""
        suite = build_algorithm_suite(
            gender_osn, algorithms=["EX-RCMH"], rcmh_alpha=0.05
        )
        kwargs = dict(
            sample_fractions=[0.03],
            repetitions=3,
            algorithms=suite,
            burn_in=10,
            seed=13,
        )
        serial = compare_algorithms(gender_osn, 1, 2, n_jobs=1, **kwargs)
        parallel = compare_algorithms(gender_osn, 1, 2, n_jobs=2, **kwargs)
        assert (
            serial.cells["EX-RCMH"][0].estimates
            == parallel.cells["EX-RCMH"][0].estimates
        )
