"""The one-pass NeighborExploration ledger against a brute-force oracle.

:func:`repro.core.samplers.csr_backend._exploration_charges` charges a
fleet at many budgets in one ascending sweep.  Every row must equal what
each walker downloaded had it stopped at that budget, which the oracle
below recounts with one Python set per walker: the trajectory columns,
the MH probe columns, and the neighbor lists of the labeled collected
nodes.  Both ledger strategies (the dense boolean matrix and the
sort-based codes beyond ``_MASK_LEDGER_MAX_CELLS``) are checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.samplers.csr_backend as csr_backend
from repro.core.samplers.csr_backend import (
    ExplorationLedger,
    _exploration_charges,
    classify_node_fleet,
    explore_nodes_fleet,
)
from repro.exceptions import APIBudgetExceededError, ConfigurationError
from repro.graph.csr import CSRGraph, csr_view
from repro.walks.batched import BatchedWalkEngine

WALKERS = 7
K = 40
BURN_IN = 9


def oracle_charges(csr, fleet, t1, t2, budget):
    """Per-walker distinct pages of a crawl stopped after *budget* steps."""
    labeled = csr.label_mask(t1) | csr.label_mask(t2)
    charges = []
    for walker in range(fleet.num_walkers):
        pages = set(fleet.trajectories[walker, : fleet.burn_in + budget + 1].tolist())
        if fleet.probed is not None:
            pages |= set(fleet.probed[walker, : fleet.burn_in + budget].tolist())
        for node in fleet.collected[walker, :budget].tolist():
            if labeled[node]:
                pages |= set(csr.indices[csr.indptr[node] : csr.indptr[node + 1]].tolist())
        charges.append(len(pages))
    return np.array(charges)


def ledger_rows(csr, fleet, t1, t2, budgets):
    has_label = csr.label_mask(t1)[fleet.collected] | csr.label_mask(t2)[fleet.collected]
    return _exploration_charges(csr, fleet, has_label, budgets)


@pytest.fixture(scope="module")
def gender_csr(gender_osn):
    return csr_view(gender_osn)


@pytest.fixture(params=["dense", "sort"])
def strategy(request, monkeypatch):
    if request.param == "sort":
        monkeypatch.setattr(csr_backend, "_MASK_LEDGER_MAX_CELLS", 0)
    return request.param


def walk(csr, kernel="simple", seed=3):
    return BatchedWalkEngine(csr, kernel=kernel, rng=seed).run_fleet(
        WALKERS, K, burn_in=BURN_IN
    )


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "budgets",
        [[K], [1], [K, 1, 17, 17, 30, 1], [5, 3, K, 2]],
        ids=["max", "one", "unsorted-duplicated", "descending"],
    )
    def test_rows_follow_the_callers_budgets(self, gender_csr, strategy, budgets):
        fleet = walk(gender_csr)
        rows = ledger_rows(gender_csr, fleet, 1, 2, budgets)
        assert rows.shape == (len(budgets), WALKERS)
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, oracle_charges(gender_csr, fleet, 1, 2, budget))

    def test_pair_without_labeled_samples_charges_the_walk_only(
        self, gender_csr, strategy
    ):
        fleet = walk(gender_csr)
        budgets = [1, 12, K]
        rows = ledger_rows(gender_csr, fleet, "ghost", "ghost", budgets)
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, fleet.prefix(budget).charged_calls())
            assert np.array_equal(
                row, oracle_charges(gender_csr, fleet, "ghost", "ghost", budget)
            )

    @pytest.mark.parametrize("kernel", ["mhrw", "rcmh"])
    def test_probe_carrying_fleets(self, gender_csr, strategy, kernel):
        fleet = walk(gender_csr, kernel=kernel)
        assert fleet.probed is not None
        budgets = [K, 1, 8, 25]
        rows = ledger_rows(gender_csr, fleet, 1, 2, budgets)
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, oracle_charges(gender_csr, fleet, 1, 2, budget))
            # the single-prefix classification reaches the same ledger
            single = classify_node_fleet(gender_csr, fleet.prefix(budget), 1, 2)
            assert np.array_equal(single.api_calls, row)

    @pytest.mark.parametrize("budgets", [[], [0, 3], [K + 1]])
    def test_out_of_range_budgets_are_refused(self, gender_csr, budgets):
        with pytest.raises(ConfigurationError):
            ledger_rows(gender_csr, walk(gender_csr), 1, 2, budgets)


class TestBudgetEnforcement:
    @pytest.mark.parametrize("kernel", ["simple", "mhrw", "rcmh"])
    def test_raises_exactly_when_the_oracle_crosses(self, gender_csr, strategy, kernel):
        kwargs = dict(k=K, repetitions=WALKERS, burn_in=BURN_IN, rng=5, kernel=kernel)
        fleet = walk(gender_csr, kernel=kernel, seed=5)
        worst = int(oracle_charges(gender_csr, fleet, 1, 2, K).max())
        batch = explore_nodes_fleet(gender_csr, 1, 2, budget=worst, **kwargs)
        assert int(batch.api_calls.max()) == worst
        with pytest.raises(APIBudgetExceededError):
            explore_nodes_fleet(gender_csr, 1, 2, budget=worst - 1, **kwargs)


class TestExplorationLedger:
    def test_shared_ledger_equals_per_prefix_charging(self, gender_csr, strategy):
        fleet = walk(gender_csr, kernel="mhrw")
        budgets = [K, 4, 20, 4]
        ledger = ExplorationLedger(gender_csr, fleet, 1, 2, budgets)
        for budget in budgets:
            prefix = fleet.prefix(budget)
            shared = classify_node_fleet(gender_csr, prefix, 1, 2, ledger=ledger)
            alone = classify_node_fleet(gender_csr, prefix, 1, 2)
            assert np.array_equal(shared.api_calls, alone.api_calls)
            assert np.array_equal(shared.incident_target_edges, alone.incident_target_edges)

    def test_budget_check_applies_to_ledger_charges(self, gender_csr):
        fleet = walk(gender_csr)
        ledger = ExplorationLedger(gender_csr, fleet, 1, 2, [K])
        worst = int(oracle_charges(gender_csr, fleet, 1, 2, K).max())
        with pytest.raises(APIBudgetExceededError):
            classify_node_fleet(gender_csr, fleet, 1, 2, budget=worst - 1, ledger=ledger)

    @pytest.mark.parametrize("pair, budget", [((2, 1), K), ((1, 2), 11)])
    def test_a_ledger_serves_only_its_pair_and_budgets(self, gender_csr, pair, budget):
        fleet = walk(gender_csr)
        ledger = ExplorationLedger(gender_csr, fleet, 1, 2, [K, 10])
        with pytest.raises(ConfigurationError, match="ledger covers"):
            classify_node_fleet(gender_csr, fleet.prefix(budget), *pair, ledger=ledger)


@st.composite
def small_fleets(draw):
    num_nodes = draw(st.integers(2, 30))
    # a path keeps the graph connected; extra random edges make it bushy
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)),
            max_size=3 * num_nodes,
        )
    )
    edges = [(node, node + 1) for node in range(num_nodes - 1)]
    edges += [(u, v) for u, v in extra if u != v]
    labels = draw(
        st.lists(st.integers(0, 3), min_size=num_nodes, max_size=num_nodes)
    )
    csr = CSRGraph.from_edge_array(
        np.array(edges, dtype=np.int64), num_nodes=num_nodes,
        label_array=np.array(labels),
    )
    kernel = draw(st.sampled_from(["simple", "non_backtracking", "mhrw", "rcmh"]))
    steps = draw(st.integers(1, 25))
    fleet = BatchedWalkEngine(csr, kernel=kernel, rng=draw(st.integers(0, 2**16))).run_fleet(
        draw(st.integers(1, 6)), steps, burn_in=draw(st.integers(0, 5))
    )
    budgets = draw(st.lists(st.integers(1, steps), min_size=1, max_size=6))
    return csr, fleet, budgets


class TestLedgerProperty:
    @given(case=small_fleets(), pair=st.tuples(st.integers(0, 4), st.integers(0, 4)))
    @settings(max_examples=120, deadline=None)
    def test_both_strategies_match_the_oracle(self, case, pair):
        csr, fleet, budgets = case
        expected = np.array(
            [oracle_charges(csr, fleet, *pair, budget) for budget in budgets]
        )
        assert np.array_equal(ledger_rows(csr, fleet, *pair, budgets), expected)
        saved = csr_backend._MASK_LEDGER_MAX_CELLS
        csr_backend._MASK_LEDGER_MAX_CELLS = 0
        try:
            assert np.array_equal(ledger_rows(csr, fleet, *pair, budgets), expected)
        finally:
            csr_backend._MASK_LEDGER_MAX_CELLS = saved
