"""Statistical equivalence of the one-walker fleet and the reference engine.

``estimate_target_edge_count`` picks its engine from the graph's type:
a dict graph runs the reference engine through the restricted API, a
:class:`CSRGraph` runs a one-walker numpy fleet.  The fleet consumes a
numpy random stream, so the guarantee is distributional: over >= 50
independent seeds, a two-sample Kolmogorov–Smirnov test plus a
relative-mean tolerance, per algorithm family.  (The exact layer — a
reference-stream walk classified by the fleet classifiers reproduces
the reference samplers — lives in ``tests/unit/test_csr_backend.py``.)
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.pipeline import estimate_target_edge_count
from repro.graph.csr import csr_view
from repro.graph.statistics import count_target_edges

#: Seeds for the statistical layer (the issue requires >= 50).
NUM_SEEDS = 60
BURN_IN = 25
SAMPLE_SIZE = 80

#: Reject equivalence only on overwhelming evidence; with 60 paired
#: runs a true distribution mismatch drives p far below this.
KS_ALPHA = 0.005


def _estimates(graph, t1, t2, algorithm):
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
        )
        values.append(result.estimate)
    return np.asarray(values)


@pytest.mark.slow
class TestStatisticalLayer:
    """One-walker fleet on ``csr_view(graph)`` vs the dict engine, >= 50 seeds."""

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
        python_estimates = _estimates(gender_osn, 1, 2, algorithm)
        csr_estimates = _estimates(csr_view(gender_osn), 1, 2, algorithm)

        statistic, p_value = stats.ks_2samp(python_estimates, csr_estimates)
        assert p_value > KS_ALPHA, (
            f"{algorithm}: KS statistic {statistic:.3f} (p={p_value:.4f}) — "
            "fleet estimates are not distributed like reference estimates"
        )

        truth = count_target_edges(gender_osn, 1, 2)
        mean_gap = abs(python_estimates.mean() - csr_estimates.mean())
        assert mean_gap < 0.15 * truth, (
            f"{algorithm}: engine means differ by {mean_gap:.1f} "
            f"({100 * mean_gap / truth:.1f}% of the true count {truth})"
        )

    def test_rare_label_exploration_distributions_match(self, rare_label_osn):
        labels = sorted(rare_label_osn.all_labels())
        t1, t2 = labels[0], labels[1]
        python_estimates = _estimates(rare_label_osn, t1, t2, "NeighborExploration-HH")
        csr_estimates = _estimates(
            csr_view(rare_label_osn), t1, t2, "NeighborExploration-HH"
        )
        _, p_value = stats.ks_2samp(python_estimates, csr_estimates)
        assert p_value > KS_ALPHA
