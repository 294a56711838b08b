"""The NRMSE grid driver behind tables and frequency sweeps.

``compare_algorithms`` (columns = budgets of one pair) and
``frequency_sweep`` (columns = pairs at one budget) both run through
``repro.experiments.runner.run_grid``.  Pinned here:

* grid inputs are validated once, before any expensive work, through
  both entry points — a CSR graph that would need reference jobs
  included;
* a fleet cell *is* a single-budget prefix fleet, for every registry
  algorithm, bit for bit;
* under ``reuse="prefix"`` the ``execution`` knob changes nothing, and
  neither does sending the prefix fleets through the worker pool;
* the per-cell and per-fleet seed derivations of both entry points.
"""

import math

import pytest

import repro.experiments.runner as runner_module
from repro.datasets.registry import select_target_pairs
from repro.exceptions import ConfigurationError
from repro.experiments.algorithms import ALL_ALGORITHM_ORDER, build_algorithm_suite
from repro.experiments.runner import (
    GridColumn,
    _derive_group_seed,
    compare_algorithms,
    run_grid,
    run_trials_prefix,
)
from repro.experiments.metrics import nrmse
from repro.experiments.planner import FleetSpec, PrefixFleet
from repro.experiments.sweeps import frequency_sweep
from repro.graph.csr import csr_view
from repro.utils.rng import derive_seed

BURN_IN = 10


@pytest.fixture(scope="module")
def full_suite(gender_osn):
    return build_algorithm_suite(gender_osn)


@pytest.fixture(scope="module")
def pairs(rare_label_osn):
    return select_target_pairs(rare_label_osn, count=3, min_target_edges=5)


def _cells(table):
    return {
        name: [(cell.sample_size, cell.estimates, cell.api_calls) for cell in table.cells[name]]
        for name in table.algorithms()
    }


@pytest.fixture
def no_burn_in_estimate(monkeypatch):
    """Fail the test if the driver reaches the mixing-time estimate."""

    def forbidden(*args, **kwargs):  # pragma: no cover - reached only on a bug
        raise AssertionError("recommended_burn_in ran before validation")

    monkeypatch.setattr(runner_module, "recommended_burn_in", forbidden)


class TestGridValidation:
    @pytest.mark.parametrize("fractions", [[], [1.5], [0.0], [-0.01], [0.01, 2.0]])
    def test_table_rejects_bad_fractions(self, gender_osn, fractions, no_burn_in_estimate):
        with pytest.raises(ConfigurationError, match="sample"):
            compare_algorithms(gender_osn, 1, 2, fractions, 3)

    @pytest.mark.parametrize("fraction", [-1, 0.0, 1.5])
    def test_sweep_rejects_bad_budget_fraction(
        self, rare_label_osn, pairs, fraction, no_burn_in_estimate
    ):
        with pytest.raises(ConfigurationError, match="sample fraction"):
            frequency_sweep(rare_label_osn, pairs, budget_fraction=fraction, repetitions=3)

    def test_table_resume_without_journal_is_rejected_before_burn_in(
        self, gender_osn, no_burn_in_estimate
    ):
        with pytest.raises(ConfigurationError, match="journal"):
            compare_algorithms(gender_osn, 1, 2, [0.01], 3, resume=True)

    def test_sweep_resume_without_journal_is_rejected_before_burn_in(
        self, rare_label_osn, pairs, no_burn_in_estimate
    ):
        with pytest.raises(ConfigurationError, match="journal"):
            frequency_sweep(rare_label_osn, pairs, repetitions=3, resume=True)

    def test_table_on_csr_needing_reference_jobs_fails_before_burn_in_and_journal(
        self, gender_osn, tmp_path, no_burn_in_estimate
    ):
        with pytest.raises(ConfigurationError, match="reference engine"):
            compare_algorithms(
                csr_view(gender_osn), 1, 2, [0.01], 2, journal=tmp_path / "table"
            )
        assert list(tmp_path.iterdir()) == []

    def test_sweep_on_csr_needing_reference_jobs_fails_before_burn_in_and_journal(
        self, rare_label_osn, pairs, tmp_path, no_burn_in_estimate
    ):
        with pytest.raises(ConfigurationError, match="reference engine"):
            frequency_sweep(
                csr_view(rare_label_osn), pairs, repetitions=2, journal=tmp_path / "sweep"
            )
        assert list(tmp_path.iterdir()) == []

    def test_full_budget_is_accepted(self, gender_osn, full_suite):
        table = compare_algorithms(
            gender_osn, 1, 2, [1.0], 2,
            algorithms={"NeighborSample-HH": full_suite["NeighborSample-HH"]},
            burn_in=BURN_IN, seed=1, execution="fleet",
        )
        assert table.sample_sizes == [gender_osn.num_nodes]


class TestFleetCellIsAPrefixFleet:
    @pytest.mark.parametrize("name", ALL_ALGORITHM_ORDER)
    @pytest.mark.parametrize("budget", [20, 60])
    def test_fleet_cell_equals_one_budget_prefix(self, gender_osn, full_suite, name, budget):
        runner = full_suite[name]
        (prefix,) = run_trials_prefix(
            gender_osn, 1, 2, runner, name, [budget], 5, BURN_IN, seed=99
        )
        outcomes = run_grid(
            gender_osn, {name: runner}, {0: GridColumn(1, 2, budget, prefix.true_count)},
            5, BURN_IN, 0,
            cell_seed=lambda *_: 99, fleet_seed=lambda *_: 0, fingerprint={},
            execution="fleet", n_jobs=1, reuse="none", journal=None, resume=False,
        )
        fleet = outcomes[(name, 0)]
        assert fleet.estimates == prefix.estimates
        assert fleet.api_calls == prefix.api_calls
        assert (fleet.sample_size, fleet.true_count) == (prefix.sample_size, prefix.true_count)


class TestExecutionIsIrrelevantUnderPrefixReuse:
    def test_table(self, gender_osn, full_suite):
        tables = [
            compare_algorithms(
                gender_osn, 1, 2, [0.01, 0.03], 4,
                algorithms=full_suite, burn_in=BURN_IN, seed=5,
                execution=execution, reuse="prefix",
            )
            for execution in ("sequential", "fleet")
        ]
        assert _cells(tables[0]) == _cells(tables[1])

    def test_sweep(self, rare_label_osn, pairs):
        suite = build_algorithm_suite(rare_label_osn)
        sweeps = [
            frequency_sweep(
                rare_label_osn, pairs, budget_fraction=0.03, repetitions=4,
                algorithms=suite, burn_in=BURN_IN, seed=7,
                execution=execution, reuse="prefix",
            )
            for execution in ("sequential", "fleet")
        ]
        assert sweeps[0] == sweeps[1]

    def test_sweep_prefix_fleets_through_the_pool(self, rare_label_osn, pairs):
        suite = build_algorithm_suite(rare_label_osn)
        sweeps = [
            frequency_sweep(
                rare_label_osn, pairs, budget_fraction=0.03, repetitions=4,
                algorithms=suite, burn_in=BURN_IN, seed=7, reuse="prefix", n_jobs=n_jobs,
            )
            for n_jobs in (1, 2)
        ]
        assert sweeps[0] == sweeps[1]


class TestSeedDerivation:
    """The seeds that make journals and tables stable across versions.

    The oracle is a :class:`PrefixFleet` built directly, so the grid
    driver's own prefix path is not its own reference.
    """

    @staticmethod
    def _fleet_estimates(graph, runner, name, seed, budget, t1, t2, repetitions=3):
        fleet = PrefixFleet(
            csr_view(graph), runner, FleetSpec(name, seed, repetitions, BURN_IN), budget
        )
        return fleet.estimate(t1, t2, budget)

    def test_table_cells_and_prefix_fleets(self, gender_osn, full_suite):
        name = "NeighborExploration-HH"
        runner = full_suite[name]
        fractions = [0.01, 0.03]
        table = compare_algorithms(
            gender_osn, 1, 2, fractions, 3, algorithms={name: runner},
            burn_in=BURN_IN, seed=5, execution="fleet",
        )
        sizes = table.sample_sizes
        assert sizes == [math.ceil(fraction * gender_osn.num_nodes) for fraction in fractions]
        for column, (cell, size) in enumerate(zip(table.cells[name], sizes)):
            expected = self._fleet_estimates(
                gender_osn, runner, name, derive_seed(5, name, column), size, 1, 2
            )
            assert (cell.estimates, cell.api_calls) == expected
        prefix = compare_algorithms(
            gender_osn, 1, 2, fractions, 3, algorithms={name: runner},
            burn_in=BURN_IN, seed=5, reuse="prefix",
        ).cells[name]
        fleet = PrefixFleet(
            csr_view(gender_osn), runner,
            FleetSpec(name, _derive_group_seed(5, name), 3, BURN_IN), max(sizes),
        )
        for cell, size in zip(prefix, sizes):
            assert (cell.estimates, cell.api_calls) == fleet.estimate(1, 2, size)

    @pytest.mark.parametrize("reuse", ["none", "prefix"])
    def test_sweep_points(self, rare_label_osn, pairs, reuse):
        name = "NeighborSample-HT"
        runner = build_algorithm_suite(rare_label_osn)[name]
        points = frequency_sweep(
            rare_label_osn, pairs, budget_fraction=0.03, repetitions=3,
            algorithms={name: runner}, burn_in=BURN_IN, seed=7,
            execution="fleet", reuse=reuse,
        )
        size = math.ceil(0.03 * rare_label_osn.num_nodes)
        by_pair = {point.target_pair: point for point in points}
        assert len(by_pair) == len(pairs)
        for pair_index, (t1, t2) in enumerate(pairs):
            if reuse == "none":
                seed = derive_seed(7, name, "frequency", pair_index)
            else:
                seed = derive_seed(7, name, "prefix-frequency")
            estimates, _ = self._fleet_estimates(rare_label_osn, runner, name, seed, size, t1, t2)
            point = by_pair[(t1, t2)]
            assert point.nrmse_by_algorithm[name] == nrmse(estimates, point.true_count)
