"""Statistical equivalence of the CSR backend and the reference backend.

The tentpole guarantee: ``backend="csr"`` must reproduce the reference
engine's estimates *distribution for distribution*.  Two layers:

* exact layer (fast tier) — with ``exact_rng=True`` the CSR pipeline is
  bit-for-bit identical to the reference pipeline, so estimates match
  to the last ulp on a handful of seeds;
* statistical layer (slow tier) — the default fast-RNG CSR path is
  compared against the reference path over ≥ 50 independent seeds with
  a two-sample Kolmogorov–Smirnov test plus a relative-mean tolerance,
  per algorithm family.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.pipeline import estimate_target_edge_count
from repro.core.samplers import (
    NeighborExplorationSampler,
    NeighborSampleSampler,
)
from repro.core.estimators import (
    EdgeHansenHurwitzEstimator,
    NodeHansenHurwitzEstimator,
)
from repro.graph.api import RestrictedGraphAPI
from repro.graph.statistics import count_target_edges

#: Seeds for the statistical layer (the issue requires >= 50).
NUM_SEEDS = 60
BURN_IN = 25
SAMPLE_SIZE = 80

#: Reject equivalence only on overwhelming evidence; with 60 paired
#: runs a true distribution mismatch drives p far below this.
KS_ALPHA = 0.005


def _estimates(graph, t1, t2, algorithm, backend):
    values = []
    for seed in range(NUM_SEEDS):
        result = estimate_target_edge_count(
            graph,
            t1,
            t2,
            algorithm=algorithm,
            sample_size=SAMPLE_SIZE,
            burn_in=BURN_IN,
            seed=seed,
            backend=backend,
        )
        values.append(result.estimate)
    return np.asarray(values)


class TestExactLayer:
    """exact_rng=True: the CSR pipeline is the reference pipeline."""

    def test_neighbor_sample_estimates_identical(self, gender_osn):
        for seed in (0, 1, 2):
            api_ref = RestrictedGraphAPI(gender_osn)
            ref_samples = NeighborSampleSampler(
                api_ref, 1, 2, burn_in=BURN_IN, rng=seed
            ).sample(SAMPLE_SIZE)
            api_csr = RestrictedGraphAPI(gender_osn)
            csr_samples = NeighborSampleSampler(
                api_csr, 1, 2, burn_in=BURN_IN, rng=seed, backend="csr", exact_rng=True
            ).sample(SAMPLE_SIZE)
            ref = EdgeHansenHurwitzEstimator().estimate(ref_samples)
            fast = EdgeHansenHurwitzEstimator().estimate(csr_samples)
            assert fast.estimate == ref.estimate
            assert fast.api_calls == ref.api_calls

    def test_neighbor_exploration_estimates_identical(self, gender_osn):
        for seed in (0, 1, 2):
            api_ref = RestrictedGraphAPI(gender_osn)
            ref_samples = NeighborExplorationSampler(
                api_ref, 1, 2, burn_in=BURN_IN, rng=seed
            ).sample(SAMPLE_SIZE)
            api_csr = RestrictedGraphAPI(gender_osn)
            csr_samples = NeighborExplorationSampler(
                api_csr, 1, 2, burn_in=BURN_IN, rng=seed, backend="csr", exact_rng=True
            ).sample(SAMPLE_SIZE)
            ref = NodeHansenHurwitzEstimator().estimate(ref_samples)
            fast = NodeHansenHurwitzEstimator().estimate(csr_samples)
            assert fast.estimate == ref.estimate
            assert fast.api_calls == ref.api_calls


@pytest.mark.slow
class TestStatisticalLayer:
    """Default fast-RNG CSR path vs reference path over >= 50 seeds."""

    @pytest.mark.parametrize(
        "algorithm",
        [
            "NeighborSample-HH",
            "NeighborSample-HT",
            "NeighborExploration-HH",
            "NeighborExploration-HT",
        ],
    )
    def test_estimate_distributions_match(self, gender_osn, algorithm):
        python_estimates = _estimates(gender_osn, 1, 2, algorithm, "python")
        csr_estimates = _estimates(gender_osn, 1, 2, algorithm, "csr")

        statistic, p_value = stats.ks_2samp(python_estimates, csr_estimates)
        assert p_value > KS_ALPHA, (
            f"{algorithm}: KS statistic {statistic:.3f} (p={p_value:.4f}) — "
            "CSR estimates are not distributed like reference estimates"
        )

        truth = count_target_edges(gender_osn, 1, 2)
        mean_gap = abs(python_estimates.mean() - csr_estimates.mean())
        assert mean_gap < 0.15 * truth, (
            f"{algorithm}: backend means differ by {mean_gap:.1f} "
            f"({100 * mean_gap / truth:.1f}% of the true count {truth})"
        )

    def test_rare_label_exploration_distributions_match(self, rare_label_osn):
        labels = sorted(rare_label_osn.all_labels())
        t1, t2 = labels[0], labels[1]
        python_estimates = _estimates(
            rare_label_osn, t1, t2, "NeighborExploration-HH", "python"
        )
        csr_estimates = _estimates(
            rare_label_osn, t1, t2, "NeighborExploration-HH", "csr"
        )
        _, p_value = stats.ks_2samp(python_estimates, csr_estimates)
        assert p_value > KS_ALPHA
