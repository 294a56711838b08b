"""The one-pass prefix ledger against a brute-force oracle.

:func:`repro.core.samplers.csr_backend._prefix_charges` charges a fleet
at many budgets in one pass, for every fleet kind: NeighborSample node
fleets (trajectory and MH probe columns), NeighborExploration node
fleets (plus the neighbor lists of the labeled collected nodes) and the
EX-* line fleets (both endpoints of every position and probe).  Every
row must equal what each walker downloaded had it stopped at that
budget, which the oracle below recounts with one Python set per walker.
The dense ledger is checked as one block of walkers and split into
several blocks (``_MASK_LEDGER_MAX_CELLS``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.samplers.csr_backend as csr_backend
from repro.baselines.adaptations import line_graph_max_degree
from repro.baselines.fleet import classify_line_fleet, run_baseline_fleet
from repro.core.samplers.csr_backend import (
    PrefixLedger,
    _prefix_charges,
    classify_edge_fleet,
    classify_node_fleet,
    explore_nodes_fleet,
)
from repro.exceptions import APIBudgetExceededError, ConfigurationError
from repro.experiments.algorithms import (
    ALL_ALGORITHM_ORDER,
    PAPER_ALGORITHM_ORDER,
    build_algorithm_suite,
)
from repro.graph.csr import CSRGraph, csr_view
from repro.walks.batched import BatchedWalkEngine, KernelSpec
from repro.walks.line_batched import BatchedLineWalkEngine, LineFleetResult

WALKERS = 7
K = 40
BURN_IN = 9
BASELINE_ORDER = [name for name in ALL_ALGORITHM_ORDER if name not in PAPER_ALGORITHM_ORDER]
BUDGET_LISTS = pytest.mark.parametrize(
    "budgets",
    [[K], [1], [K, 1, 17, 17, 30, 1], [5, 3, K, 2]],
    ids=["max", "one", "unsorted-duplicated", "descending"],
)


def oracle_charges(csr, fleet, budget, pair=None):
    """Per-walker distinct pages of a crawl stopped after *budget* steps.

    *pair* turns a node fleet into a NeighborExploration crawl: the
    neighbor lists of its labeled collected nodes are downloaded too.
    """
    keep, probes = fleet.burn_in + budget + 1, fleet.burn_in + budget
    if isinstance(fleet, LineFleetResult):
        positions = [fleet.src, fleet.dst]
        probed = [] if fleet.probed_src is None else [fleet.probed_src, fleet.probed_dst]
    else:
        positions = [fleet.trajectories]
        probed = [] if fleet.probed is None else [fleet.probed]
    labeled = None
    if pair is not None:
        labeled = csr.label_mask(pair[0]) | csr.label_mask(pair[1])
    charges = []
    for walker in range(fleet.num_walkers):
        pages = set()
        for array in positions:
            pages |= set(array[walker, :keep].tolist())
        for array in probed:
            pages |= set(array[walker, :probes].tolist())
        if labeled is not None:
            for node in fleet.collected[walker, :budget].tolist():
                if labeled[node]:
                    pages |= set(csr.indices[csr.indptr[node] : csr.indptr[node + 1]].tolist())
        charges.append(len(pages))
    return np.array(charges)


def ledger_rows(csr, fleet, budgets, pair=None):
    has_label = None
    if pair is not None:
        has_label = csr.label_mask(pair[0])[fleet.collected] | csr.label_mask(pair[1])[fleet.collected]
    return _prefix_charges(csr, fleet, budgets, has_label)


@pytest.fixture(scope="module")
def gender_csr(gender_osn):
    return csr_view(gender_osn)


@pytest.fixture(scope="module")
def baselines(gender_csr):
    return build_algorithm_suite(gender_csr, algorithms=BASELINE_ORDER)


@pytest.fixture(params=["single-block", "one-walker-blocks", "uneven-blocks"])
def blocks(request, monkeypatch, gender_csr):
    """The ledger as one block of walkers, or split into several."""
    assert WALKERS * gender_csr.num_nodes <= csr_backend._MASK_LEDGER_MAX_CELLS
    cap = {"one-walker-blocks": 0, "uneven-blocks": 3 * gender_csr.num_nodes}
    if request.param in cap:
        monkeypatch.setattr(csr_backend, "_MASK_LEDGER_MAX_CELLS", cap[request.param])
    return request.param


def walk(csr, kernel="simple", seed=3):
    return BatchedWalkEngine(csr, kernel=kernel, rng=seed).run_fleet(
        WALKERS, K, burn_in=BURN_IN
    )


def line_walk(csr, baselines, name, seed=3):
    return run_baseline_fleet(
        csr, baselines[name].baseline, K, WALKERS, burn_in=BURN_IN, rng=seed
    )


class TestAgainstOracle:
    @BUDGET_LISTS
    @pytest.mark.parametrize("kernel", ["simple", "mhrw", "rcmh"])
    def test_node_fleets(self, gender_csr, blocks, kernel, budgets):
        fleet = walk(gender_csr, kernel=kernel)
        rows = ledger_rows(gender_csr, fleet, budgets)
        assert rows.shape == (len(budgets), WALKERS)
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, oracle_charges(gender_csr, fleet, budget))
            assert np.array_equal(row, fleet.prefix(budget).charged_calls())

    @BUDGET_LISTS
    @pytest.mark.parametrize("kernel", ["simple", "mhrw", "rcmh"])
    def test_exploration_fleets(self, gender_csr, blocks, kernel, budgets):
        fleet = walk(gender_csr, kernel=kernel)
        rows = ledger_rows(gender_csr, fleet, budgets, (1, 2))
        assert rows.shape == (len(budgets), WALKERS)
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, oracle_charges(gender_csr, fleet, budget, (1, 2)))
            # the single-prefix classification reaches the same ledger
            single = classify_node_fleet(gender_csr, fleet.prefix(budget), 1, 2)
            assert np.array_equal(single.api_calls, row)

    @BUDGET_LISTS
    @pytest.mark.parametrize("name", BASELINE_ORDER)
    def test_line_fleets(self, gender_csr, baselines, blocks, name, budgets):
        fleet = line_walk(gender_csr, baselines, name)
        rows = ledger_rows(gender_csr, fleet, budgets)
        assert rows.shape == (len(budgets), WALKERS)
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, oracle_charges(gender_csr, fleet, budget))
            assert np.array_equal(row, fleet.prefix(budget).charged_calls())

    def test_probing_line_kernels_carry_probes(self, gender_csr, baselines):
        assert line_walk(gender_csr, baselines, "EX-MHRW").probed_src is not None
        assert line_walk(gender_csr, baselines, "EX-RCMH").probed_src is not None
        assert line_walk(gender_csr, baselines, "EX-RW").probed_src is None

    def test_pair_without_labeled_samples_charges_the_walk_only(
        self, gender_csr, blocks
    ):
        fleet = walk(gender_csr)
        budgets = [1, 12, K]
        rows = ledger_rows(gender_csr, fleet, budgets, ("ghost", "ghost"))
        for budget, row in zip(budgets, rows):
            assert np.array_equal(row, fleet.prefix(budget).charged_calls())

    @pytest.mark.parametrize("budgets", [[], [0, 3], [K + 1]])
    def test_out_of_range_budgets_are_refused(self, gender_csr, budgets):
        with pytest.raises(ConfigurationError):
            ledger_rows(gender_csr, walk(gender_csr), budgets, (1, 2))


class TestBudgetEnforcement:
    @pytest.mark.parametrize("kernel", ["simple", "mhrw", "rcmh"])
    def test_raises_exactly_when_the_oracle_crosses(self, gender_csr, blocks, kernel):
        kwargs = dict(k=K, repetitions=WALKERS, burn_in=BURN_IN, rng=5, kernel=kernel)
        fleet = walk(gender_csr, kernel=kernel, seed=5)
        worst = int(oracle_charges(gender_csr, fleet, K, (1, 2)).max())
        batch = explore_nodes_fleet(gender_csr, 1, 2, budget=worst, **kwargs)
        assert int(batch.api_calls.max()) == worst
        with pytest.raises(APIBudgetExceededError):
            explore_nodes_fleet(gender_csr, 1, 2, budget=worst - 1, **kwargs)


class TestPrefixLedger:
    BUDGETS = [K, 4, 20, 4]

    def test_exploration_ledger_equals_per_prefix_charging(self, gender_csr, blocks):
        fleet = walk(gender_csr, kernel="mhrw")
        ledger = PrefixLedger(gender_csr, fleet, 1, 2, self.BUDGETS)
        for budget in self.BUDGETS:
            prefix = fleet.prefix(budget)
            shared = classify_node_fleet(gender_csr, prefix, 1, 2, ledger=ledger)
            alone = classify_node_fleet(gender_csr, prefix, 1, 2)
            assert np.array_equal(shared.api_calls, alone.api_calls)
            assert np.array_equal(shared.incident_target_edges, alone.incident_target_edges)

    def test_edge_ledger_equals_per_prefix_charging(self, gender_csr, blocks):
        # NeighborSample refuses self-looping (accept/reject) walks
        fleet = walk(gender_csr, kernel="non_backtracking")
        ledger = PrefixLedger(gender_csr, fleet, 1, 2, self.BUDGETS)
        for budget in self.BUDGETS:
            prefix = fleet.prefix(budget)
            shared = classify_edge_fleet(gender_csr, prefix, 1, 2, ledger=ledger)
            alone = classify_edge_fleet(gender_csr, prefix, 1, 2)
            assert np.array_equal(shared.api_calls, alone.api_calls)

    @pytest.mark.parametrize("name", BASELINE_ORDER)
    def test_line_ledger_equals_per_prefix_charging(self, gender_csr, baselines, name):
        fleet = line_walk(gender_csr, baselines, name)
        ledger = PrefixLedger(gender_csr, fleet, 1, 2, self.BUDGETS)
        for budget in self.BUDGETS:
            prefix = fleet.prefix(budget)
            shared = classify_line_fleet(gender_csr, prefix, 1, 2, ledger=ledger)
            alone = classify_line_fleet(gender_csr, prefix, 1, 2)
            assert np.array_equal(shared.api_calls, alone.api_calls)

    def test_budget_check_applies_to_ledger_charges(self, gender_csr):
        fleet = walk(gender_csr)
        ledger = PrefixLedger(gender_csr, fleet, 1, 2, [K])
        worst = int(oracle_charges(gender_csr, fleet, K, (1, 2)).max())
        with pytest.raises(APIBudgetExceededError):
            classify_node_fleet(gender_csr, fleet, 1, 2, budget=worst - 1, ledger=ledger)

    @pytest.mark.parametrize("pair, budget", [((2, 1), K), ((1, 2), 11)])
    def test_a_ledger_serves_only_its_pair_and_budgets(self, gender_csr, pair, budget):
        fleet = walk(gender_csr)
        ledger = PrefixLedger(gender_csr, fleet, 1, 2, [K, 10])
        with pytest.raises(ConfigurationError, match="ledger covers"):
            classify_node_fleet(gender_csr, fleet.prefix(budget), *pair, ledger=ledger)
        with pytest.raises(ConfigurationError, match="ledger covers"):
            classify_edge_fleet(gender_csr, fleet.prefix(budget), *pair, ledger=ledger)


@st.composite
def small_fleets(draw):
    """A small connected graph, a node or line fleet on it, and budgets."""
    num_nodes = draw(st.integers(3, 30))
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
    steps = draw(st.integers(1, 25))
    walkers = draw(st.integers(1, 6))
    burn_in = draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        kernel = draw(st.sampled_from(["simple", "mhrw", "rcmh", "mdrw", "gmd"]))
        spec = KernelSpec(kernel, max_degree=float(line_graph_max_degree(csr)))
        fleet = BatchedLineWalkEngine(csr, kernel=spec, rng=seed).run_fleet(
            walkers, steps, burn_in=burn_in
        )
    else:
        kernel = draw(st.sampled_from(["simple", "non_backtracking", "mhrw", "rcmh"]))
        fleet = BatchedWalkEngine(csr, kernel=kernel, rng=seed).run_fleet(
            walkers, steps, burn_in=burn_in
        )
    budgets = draw(st.lists(st.integers(1, steps), min_size=1, max_size=6))
    return csr, fleet, budgets


class TestLedgerProperty:
    @given(
        case=small_fleets(),
        pair=st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 4))),
        cap=st.sampled_from([None, 0, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_fleet_kind_matches_the_oracle(self, case, pair, cap):
        csr, fleet, budgets = case
        if isinstance(fleet, LineFleetResult):
            pair = None  # line fleets explore nothing
        expected = np.array(
            [oracle_charges(csr, fleet, budget, pair) for budget in budgets]
        )
        saved = csr_backend._MASK_LEDGER_MAX_CELLS
        if cap is not None:
            csr_backend._MASK_LEDGER_MAX_CELLS = cap * csr.num_nodes
        try:
            assert np.array_equal(ledger_rows(csr, fleet, budgets, pair), expected)
        finally:
            csr_backend._MASK_LEDGER_MAX_CELLS = saved
