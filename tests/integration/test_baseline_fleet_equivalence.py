"""Statistical equivalence of the EX-* line-graph fleets and the
sequential reference baselines.

The fleet path walks the line graph implicitly with vectorized
accept/reject masks and numpy random streams, so its estimates cannot
be bit-identical to the sequential :meth:`LineGraphBaseline.estimate`
loop — the guarantee is distributional: for every EX-* baseline, the
fleet's per-trial estimates and per-trial charged-call ledgers must be
drawn from the same law as sequential trials.

Mirrors ``tests/integration/test_fleet_equivalence.py`` (the proposed
algorithms' suite): a two-sample Kolmogorov–Smirnov test over ≥ 60
independent trials per baseline, plus a relative-mean tolerance.
"""

import numpy as np
import pytest
from scipy import stats

from repro.baselines import BASELINE_NAMES
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import run_trials, run_trials_prefix
from repro.graph.statistics import count_target_edges

#: Trials per side (matching the proposed-algorithm KS suite).
NUM_TRIALS = 60
BURN_IN = 25
SAMPLE_SIZE = 80

#: Reject equivalence only on overwhelming evidence.
KS_ALPHA = 0.005


def _outcome(graph, suite, baseline, execution, seed):
    args = (graph, 1, 2, suite[baseline], baseline)
    if execution == "fleet":
        return run_trials_prefix(*args, [SAMPLE_SIZE], NUM_TRIALS, BURN_IN, seed=seed)[0]
    return run_trials(*args, SAMPLE_SIZE, NUM_TRIALS, BURN_IN, seed=seed)


@pytest.mark.slow
class TestBaselineFleetStatisticalLayer:
    """Line-fleet EX-* estimates vs sequential reference over >= 60 trials."""

    @pytest.fixture(scope="class")
    def suite(self, gender_osn):
        return build_algorithm_suite(gender_osn)

    @pytest.mark.parametrize("baseline", BASELINE_NAMES)
    def test_estimate_distributions_match(self, gender_osn, suite, baseline):
        sequential = np.asarray(
            _outcome(gender_osn, suite, baseline, "sequential", seed=101).estimates
        )
        fleet = np.asarray(
            _outcome(gender_osn, suite, baseline, "fleet", seed=202).estimates
        )

        statistic, p_value = stats.ks_2samp(sequential, fleet)
        assert p_value > KS_ALPHA, (
            f"{baseline}: KS statistic {statistic:.3f} (p={p_value:.4f}) — "
            "line-fleet estimates are not distributed like sequential estimates"
        )

        truth = count_target_edges(gender_osn, 1, 2)
        mean_gap = abs(sequential.mean() - fleet.mean())
        assert mean_gap < 0.15 * truth, (
            f"{baseline}: execution means differ by {mean_gap:.1f} "
            f"({100 * mean_gap / truth:.1f}% of the true count {truth})"
        )

    @pytest.mark.parametrize("baseline", ["EX-MHRW", "EX-MDRW", "EX-GMD"])
    def test_charged_calls_distributions_match(self, gender_osn, suite, baseline):
        """The ledgers must agree in distribution too — including the
        MH-family rejection probes (EX-MHRW) and the self-loop-heavy
        MD walks, whose crawls download far fewer distinct pages."""
        sequential = np.asarray(
            _outcome(gender_osn, suite, baseline, "sequential", seed=303).api_calls
        )
        fleet = np.asarray(
            _outcome(gender_osn, suite, baseline, "fleet", seed=404).api_calls
        )
        statistic, p_value = stats.ks_2samp(sequential, fleet)
        assert p_value > KS_ALPHA, (
            f"{baseline}: charged-call KS statistic {statistic:.3f} "
            f"(p={p_value:.4f})"
        )

    def test_prefix_columns_distributionally_match_fresh_cells(
        self, gender_osn, suite
    ):
        """A prefix-reuse budget column must be distributed like an
        independently walked cell at that budget (the paper's table
        harness reads EX-* columns off one max-budget line fleet)."""
        row = run_trials_prefix(
            gender_osn, 1, 2, suite["EX-MHRW"], "EX-MHRW",
            [SAMPLE_SIZE // 2, SAMPLE_SIZE], NUM_TRIALS, BURN_IN, seed=505,
        )
        (fresh,) = run_trials_prefix(
            gender_osn, 1, 2, suite["EX-MHRW"], "EX-MHRW",
            [SAMPLE_SIZE // 2], NUM_TRIALS, BURN_IN, seed=606,
        )
        _, p_value = stats.ks_2samp(row[0].estimates, fresh.estimates)
        assert p_value > KS_ALPHA
        _, p_calls = stats.ks_2samp(row[0].api_calls, fresh.api_calls)
        assert p_calls > KS_ALPHA
