"""Query planning: coalescing rules, seed derivation, cache keys, and
the prefix fleet's many-budget answers."""

import pytest

import repro.experiments.planner as planner
from repro.exceptions import ConfigurationError
from repro.experiments.algorithms import ALL_ALGORITHM_ORDER, build_algorithm_suite
from repro.experiments.planner import FleetSpec, PrefixFleet
from repro.experiments.runner import _derive_group_seed
from repro.graph.csr import csr_view
from repro.service import EstimateQuery, plan_queries
from repro.utils.rng import derive_seed

BURN_IN = 5  # matches the conftest fixtures


def _query(**overrides) -> EstimateQuery:
    fields = dict(
        algorithm="NeighborSample-HH",
        t1=1,
        t2=2,
        budget=20,
        seed=7,
        repetitions=6,
        burn_in=5,
    )
    fields.update(overrides)
    return EstimateQuery(**fields)


class TestSeedDerivation:
    def test_fleet_seed_matches_batch_harness(self):
        # The property that makes served answers bit-compatible with the
        # batch CLI: both derive the fleet seed the same way.
        query = _query(seed=123, algorithm="EX-RW")
        assert query.fleet_seed() == derive_seed(123, "EX-RW", "prefix")
        assert query.fleet_seed() == _derive_group_seed(123, "EX-RW")

    def test_spec_pins_algorithm_seed_repetitions_burn_in(self):
        spec = _query().spec()
        assert spec == FleetSpec(
            "NeighborSample-HH", derive_seed(7, "NeighborSample-HH", "prefix"), 6, 5
        )


class TestPlanQueries:
    def test_shareable_queries_coalesce_into_one_plan(self):
        # Different pairs and budgets, same walk parameters: one fleet.
        queries = [
            _query(t1=1, t2=2, budget=10),
            _query(t1=2, t2=2, budget=40),
            _query(t1=1, t2=1, budget=25),
        ]
        plans = plan_queries(queries)
        assert len(plans) == 1
        assert plans[0].max_budget == 40
        assert plans[0].num_queries == 3
        assert plans[0].queries == queries  # arrival order preserved

    def test_different_walk_parameters_split_plans(self):
        queries = [
            _query(),
            _query(algorithm="EX-RW"),
            _query(seed=8),
            _query(repetitions=7),
            _query(burn_in=6),
        ]
        plans = plan_queries(queries)
        assert len(plans) == 5
        # plan order follows first appearance
        assert [plan.queries[0] for plan in plans] == queries

    def test_duplicate_queries_share_a_slot_in_one_plan(self):
        query = _query()
        plans = plan_queries([query, query])
        assert len(plans) == 1
        assert plans[0].num_queries == 2
        assert plans[0].max_budget == query.budget

    def test_empty_batch_plans_nothing(self):
        assert plan_queries([]) == []


class TestCacheKey:
    def test_key_embeds_the_graph_version(self):
        query = _query()
        assert query.cache_key(1) != query.cache_key(2)

    def test_key_distinguishes_every_query_field(self):
        base = _query()
        variants = [
            _query(algorithm="EX-RW"),
            _query(t1=2),
            _query(t2=1),
            _query(budget=21),
            _query(seed=8),
            _query(repetitions=7),
            _query(burn_in=6),
        ]
        keys = {variant.cache_key(1) for variant in variants}
        assert base.cache_key(1) not in keys
        assert len(keys) == len(variants)

    def test_equal_queries_share_a_key(self):
        assert _query().cache_key(3) == _query().cache_key(3)


# ----------------------------------------------------------------------
# PrefixFleet.estimate_many
# ----------------------------------------------------------------------
MAX_BUDGET = 40
#: Unsorted, with a duplicate, the smallest and the largest budget.
BUDGETS = [25, 1, MAX_BUDGET, 9, 25]


@pytest.fixture(scope="module")
def planner_graph(serving_graph):
    return csr_view(serving_graph), build_algorithm_suite(serving_graph)


def _fleet(planner_graph, name, max_budget=MAX_BUDGET):
    csr, suite = planner_graph
    spec = FleetSpec(name, derive_seed(5, name, "prefix"), 6, BURN_IN)
    return PrefixFleet(csr, suite[name], spec, max_budget)


class TestEstimateMany:
    @pytest.mark.parametrize("name", ALL_ALGORITHM_ORDER)
    def test_equals_per_budget_estimate_and_fresh_fleets(self, planner_graph, name):
        fleet = _fleet(planner_graph, name)
        answers = fleet.estimate_many(1, 2, BUDGETS)
        assert len(answers) == len(BUDGETS)
        for budget, answer in zip(BUDGETS, answers):
            assert answer == fleet.estimate(1, 2, budget)
            assert answer == _fleet(planner_graph, name, budget).estimate(1, 2, budget)

    @pytest.mark.parametrize("name", ALL_ALGORITHM_ORDER)
    def test_consecutive_pairs_equal_fresh_fleets(self, planner_graph, name):
        # One classification per (fleet, pair): nothing of pair A may
        # leak into pair B, nor into a later call off the held batch.
        fleet = _fleet(planner_graph, name)
        for pair in [(1, 2), (2, 2)]:
            answers = fleet.estimate_many(*pair, BUDGETS)
            for budget, answer in zip(BUDGETS, answers):
                assert answer == _fleet(planner_graph, name, budget).estimate(*pair, budget)
        # 17 is none of BUDGETS: only a fresh classification can answer it
        assert fleet.estimate(2, 2, 17) == _fleet(planner_graph, name, 17).estimate(2, 2, 17)

    @pytest.mark.parametrize("name", ALL_ALGORITHM_ORDER)
    @pytest.mark.parametrize("budget", [1, 17, MAX_BUDGET])
    def test_one_budget_equals_estimate(self, planner_graph, name, budget):
        fleet = _fleet(planner_graph, name)
        assert fleet.estimate_many(1, 2, [budget]) == [fleet.estimate(1, 2, budget)]

    @pytest.mark.parametrize(
        "name", ["NeighborSample-HT", "NeighborExploration-HH", "EX-RCMH"]
    )
    def test_one_classify_call_per_pair_inside_an_estimate_call(
        self, planner_graph, monkeypatch, name
    ):
        # A per-layer trace attributes a classify span to the estimate
        # call around it, so the one classification must run inside one.
        depth, calls = [], []

        class Watched(PrefixFleet):
            def estimate(self, *args):
                depth.append(args)
                try:
                    return super().estimate(*args)
                finally:
                    depth.pop()

        for attribute in ("classify_edge_fleet", "classify_node_fleet", "classify_line_fleet"):
            original = getattr(planner, attribute)

            def counted(*args, _original=original, **kwargs):
                calls.append(len(depth))
                return _original(*args, **kwargs)

            monkeypatch.setattr(planner, attribute, counted)
        csr, suite = planner_graph
        spec = FleetSpec(name, derive_seed(5, name, "prefix"), 6, BURN_IN)
        Watched(csr, suite[name], spec, MAX_BUDGET).estimate_many(1, 2, BUDGETS)
        assert calls == [1]

    def test_every_budget_is_checked_before_any_classify_call(
        self, planner_graph, monkeypatch
    ):
        fleet = _fleet(planner_graph, "NeighborExploration-HH")
        calls = []
        monkeypatch.setattr(
            planner, "classify_node_fleet", lambda *args, **kwargs: calls.append(args)
        )
        with pytest.raises(ConfigurationError, match="max budget"):
            fleet.estimate_many(1, 2, [10, MAX_BUDGET + 1])
        assert calls == []

    def test_the_ledger_lives_only_for_the_call(self, planner_graph):
        fleet = _fleet(planner_graph, "NeighborExploration-RW")
        expected = fleet.estimate(2, 2, 30)
        fleet.estimate_many(1, 2, [30, 10])
        # a later pair must not read the previous pair's ledger
        assert fleet.estimate(2, 2, 30) == expected
