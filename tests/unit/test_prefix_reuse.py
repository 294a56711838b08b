"""Prefix-reuse sweep engine: exact-layer contracts (fast tier).

The statistical layer (KS equivalence of ``reuse="prefix"`` vs
``reuse="none"`` estimates) lives in
``tests/integration/test_prefix_equivalence.py``; here the
deterministic properties are pinned: a prefix *is* the same walk
truncated, the max-budget column reproduces a fresh fleet bit for bit
from the same seed, and the ledgers stay monotone in the budget.
"""

import numpy as np
import pytest

from repro.core.samplers.csr_backend import (
    classify_edge_fleet,
    classify_node_fleet,
    run_fleet_walk,
    validate_reuse,
)
from repro.exceptions import ConfigurationError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    compare_algorithms,
    run_trials,
    run_trials_prefix,
)
from repro.experiments.sweeps import frequency_sweep
from repro.graph.csr import csr_view

BURN_IN = 15


@pytest.fixture(scope="module")
def suite(gender_osn):
    return build_algorithm_suite(gender_osn, include_baselines=False)


class TestFleetPrefix:
    def test_prefix_is_a_view_of_the_same_walk(self, gender_osn):
        csr = csr_view(gender_osn)
        fleet = run_fleet_walk(csr, 60, 8, BURN_IN, np.random.default_rng(1), "simple")
        short = fleet.prefix(25)
        assert short.burn_in == fleet.burn_in
        assert short.num_steps == 25
        assert np.array_equal(
            short.trajectories, fleet.trajectories[:, : BURN_IN + 26]
        )
        assert short.trajectories.base is fleet.trajectories  # no copy

    def test_full_length_prefix_is_self(self, gender_osn):
        csr = csr_view(gender_osn)
        fleet = run_fleet_walk(csr, 30, 4, 0, np.random.default_rng(2), "simple")
        assert fleet.prefix(30) is fleet

    def test_prefix_ledger_matches_truncated_run(self, gender_osn):
        csr = csr_view(gender_osn)
        rng_state = np.random.default_rng(3)
        fleet = run_fleet_walk(csr, 50, 6, BURN_IN, rng_state, "simple")
        short = fleet.prefix(20)
        # same per-walker distinct counts as recomputing from scratch
        expected = [
            len(set(row.tolist())) for row in short.trajectories
        ]
        assert short.charged_calls().tolist() == expected

    def test_overlong_prefix_rejected(self, gender_osn):
        csr = csr_view(gender_osn)
        fleet = run_fleet_walk(csr, 10, 2, 0, np.random.default_rng(4), "simple")
        with pytest.raises(ConfigurationError):
            fleet.prefix(11)


class TestRunTrialsPrefix:
    def test_max_column_matches_fresh_fleet_bit_for_bit(self, gender_osn, suite):
        runner = suite["NeighborSample-HH"]
        row = run_trials_prefix(
            gender_osn, 1, 2, runner, "NeighborSample-HH",
            [10, 25, 60], 12, BURN_IN, seed=99,
        )
        (fresh,) = run_trials_prefix(
            gender_osn, 1, 2, runner, "NeighborSample-HH",
            [60], 12, BURN_IN, seed=99,
        )
        assert row[2].estimates == fresh.estimates
        assert row[2].api_calls == fresh.api_calls

    @pytest.mark.parametrize(
        "algorithm", ["NeighborSample-HT", "NeighborExploration-HH"]
    )
    def test_ledgers_monotone_in_budget(self, gender_osn, suite, algorithm):
        row = run_trials_prefix(
            gender_osn, 1, 2, suite[algorithm], algorithm,
            [5, 20, 50], 10, BURN_IN, seed=5,
        )
        per_trial = np.array([outcome.api_calls for outcome in row])
        assert (np.diff(per_trial, axis=0) >= 0).all()
        assert [outcome.sample_size for outcome in row] == [5, 20, 50]

    def test_classification_agrees_with_prefix_classification(self, gender_osn):
        csr = csr_view(gender_osn)
        fleet = run_fleet_walk(csr, 40, 5, BURN_IN, np.random.default_rng(6), "simple")
        full = classify_edge_fleet(csr, fleet, 1, 2)
        short = classify_edge_fleet(csr, fleet.prefix(15), 1, 2)
        assert np.array_equal(short.sources, full.sources[:, :15])
        assert np.array_equal(short.is_target, full.is_target[:, :15])
        node_full = classify_node_fleet(csr, fleet, 1, 2)
        node_short = classify_node_fleet(csr, fleet.prefix(15), 1, 2)
        assert np.array_equal(node_short.nodes, node_full.nodes[:, :15])
        assert np.array_equal(
            node_short.incident_target_edges, node_full.incident_target_edges[:, :15]
        )

    def test_rejects_non_proposed_runner(self, gender_osn):
        def handwritten(api, t1, t2, k, burn_in, rng):  # pragma: no cover
            raise AssertionError("never called")

        with pytest.raises(ConfigurationError):
            run_trials_prefix(
                gender_osn, 1, 2, handwritten, "custom", [10], 5, 0, seed=1
            )

    def test_rejects_empty_sample_sizes(self, gender_osn, suite):
        with pytest.raises(ConfigurationError):
            run_trials_prefix(
                gender_osn, 1, 2, suite["NeighborSample-HH"], "NeighborSample-HH",
                [], 5, 0, seed=1,
            )


class TestHarnessWiring:
    def test_validate_reuse(self):
        assert validate_reuse("none") == "none"
        assert validate_reuse("prefix") == "prefix"
        with pytest.raises(ConfigurationError):
            validate_reuse("suffix")

    def test_compare_algorithms_prefix_produces_full_table(self, gender_osn, suite):
        table = compare_algorithms(
            gender_osn, 1, 2, [0.01, 0.03], 6,
            algorithms=suite, burn_in=BURN_IN, seed=3, reuse="prefix",
        )
        for name in suite:
            assert len(table.cells[name]) == 2
            for outcome in table.cells[name]:
                assert outcome.repetitions == 6

    def test_compare_algorithms_prefix_keeps_baselines(self, gender_osn):
        suite = build_algorithm_suite(gender_osn, algorithms=(
            "NeighborSample-HH", "EX-RW",
        ))
        table = compare_algorithms(
            gender_osn, 1, 2, [0.02], 3,
            algorithms=suite, burn_in=5, seed=3, reuse="prefix",
        )
        assert set(table.cells) == {"NeighborSample-HH", "EX-RW"}

    def test_frequency_sweep_prefix_covers_all_pairs(self, rare_label_osn):
        from repro.datasets.registry import select_target_pairs

        pairs = select_target_pairs(rare_label_osn, count=3)
        points = frequency_sweep(
            rare_label_osn, pairs, budget_fraction=0.03, repetitions=5,
            burn_in=BURN_IN, seed=4, reuse="prefix",
        )
        assert len(points) == 3
        for point in points:
            assert set(point.nrmse_by_algorithm) == {
                "NeighborSample-HH", "NeighborSample-HT",
                "NeighborExploration-HH", "NeighborExploration-HT",
                "NeighborExploration-RW",
            }

    def test_progress_reports_every_cell_once(self, gender_osn, suite):
        seen = []
        compare_algorithms(
            gender_osn, 1, 2, [0.01, 0.02], 4,
            algorithms=suite, burn_in=5, seed=6, reuse="prefix",
            progress=lambda name, size, fraction: seen.append((name, size, fraction)),
        )
        assert len(seen) == len(suite) * 2
        assert seen[-1][2] == pytest.approx(1.0)


class TestConfigWiring:
    def test_reuse_field_validated(self):
        config = ExperimentConfig(dataset="facebook", reuse="prefix")
        assert config.reuse == "prefix"
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", reuse="suffix")

    def test_csr_representation_needs_vectorized_path(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(dataset="facebook", representation="csr")
        assert ExperimentConfig(
            dataset="facebook", representation="csr", execution="fleet"
        ).representation == "csr"
        assert ExperimentConfig(
            dataset="facebook", representation="csr", reuse="prefix"
        ).reuse == "prefix"

    def test_sequential_csr_graph_raises_clearly(self, gender_osn, suite):
        csr = csr_view(gender_osn)
        with pytest.raises(ConfigurationError):
            run_trials(
                csr, 1, 2, suite["NeighborSample-HH"], "NeighborSample-HH",
                10, 3, 5, seed=1,
            )
