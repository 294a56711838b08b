"""Statistical equivalence of fleet execution and sequential execution.

``run_trials(..., execution="fleet")`` consumes random bits
walker-by-step instead of trial-by-trial, so its estimates cannot be
bit-identical to the sequential path — the guarantee is distributional:
for every proposed algorithm, the fleet's per-trial estimates must be
drawn from the same law as sequential per-trial estimates.

Two layers:

* exact layer (fast tier) — the per-trial ledgers and the sequential
  fallback are deterministic properties checked on a handful of seeds
  (see also ``tests/unit/test_fleet.py`` for the replay parity);
* statistical layer (slow tier) — a two-sample Kolmogorov–Smirnov test
  over ≥ 60 independent trials per algorithm, fleet vs the sequential
  dict reference engine, plus a relative-mean tolerance, for all five
  proposed algorithms.
"""

import numpy as np
import pytest
from scipy import stats

from repro.experiments.algorithms import PAPER_ALGORITHM_ORDER, build_algorithm_suite
from repro.experiments.runner import run_trials
from repro.graph.statistics import count_target_edges

#: Trials per side (the issue requires >= 60 seeds per algorithm).
NUM_TRIALS = 60
BURN_IN = 25
SAMPLE_SIZE = 80

#: Reject equivalence only on overwhelming evidence; with 60 paired
#: runs a true distribution mismatch drives p far below this.
KS_ALPHA = 0.005


def _outcome(graph, t1, t2, suite, algorithm, execution, seed):
    return run_trials(
        graph,
        t1,
        t2,
        suite[algorithm],
        algorithm,
        sample_size=SAMPLE_SIZE,
        repetitions=NUM_TRIALS,
        burn_in=BURN_IN,
        seed=seed,
        execution=execution,
    )


@pytest.mark.slow
class TestFleetStatisticalLayer:
    """Fleet estimates vs sequential dict-engine estimates over >= 60 trials."""

    @pytest.fixture(scope="class")
    def suite(self, gender_osn):
        return build_algorithm_suite(gender_osn, include_baselines=False)

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHM_ORDER)
    def test_estimate_distributions_match(self, gender_osn, suite, algorithm):
        sequential = np.asarray(
            _outcome(gender_osn, 1, 2, suite, algorithm, "sequential", seed=11).estimates
        )
        fleet = np.asarray(
            _outcome(gender_osn, 1, 2, suite, algorithm, "fleet", seed=22).estimates
        )

        statistic, p_value = stats.ks_2samp(sequential, fleet)
        assert p_value > KS_ALPHA, (
            f"{algorithm}: KS statistic {statistic:.3f} (p={p_value:.4f}) — "
            "fleet estimates are not distributed like sequential estimates"
        )

        truth = count_target_edges(gender_osn, 1, 2)
        mean_gap = abs(sequential.mean() - fleet.mean())
        assert mean_gap < 0.15 * truth, (
            f"{algorithm}: execution means differ by {mean_gap:.1f} "
            f"({100 * mean_gap / truth:.1f}% of the true count {truth})"
        )

    @pytest.mark.parametrize("algorithm", ["NeighborExploration-HH", "NeighborSample-HH"])
    def test_charged_calls_distributions_match(self, gender_osn, suite, algorithm):
        """The budget ledgers must agree in distribution, not just the
        estimates: a fleet crawler downloads the same number of distinct
        pages a sequential crawler with the same budget would."""
        sequential = np.asarray(
            _outcome(gender_osn, 1, 2, suite, algorithm, "sequential", seed=33).api_calls
        )
        fleet = np.asarray(
            _outcome(gender_osn, 1, 2, suite, algorithm, "fleet", seed=44).api_calls
        )
        statistic, p_value = stats.ks_2samp(sequential, fleet)
        assert p_value > KS_ALPHA, (
            f"{algorithm}: charged-call KS statistic {statistic:.3f} "
            f"(p={p_value:.4f})"
        )

    def test_rare_label_exploration_distributions_match(self, rare_label_osn):
        labels = sorted(rare_label_osn.all_labels())
        t1, t2 = labels[0], labels[1]
        suite = build_algorithm_suite(rare_label_osn, include_baselines=False)
        sequential = np.asarray(
            _outcome(
                rare_label_osn, t1, t2, suite, "NeighborExploration-HH", "sequential", 55
            ).estimates
        )
        fleet = np.asarray(
            _outcome(
                rare_label_osn, t1, t2, suite, "NeighborExploration-HH", "fleet", 66
            ).estimates
        )
        _, p_value = stats.ks_2samp(sequential, fleet)
        assert p_value > KS_ALPHA
