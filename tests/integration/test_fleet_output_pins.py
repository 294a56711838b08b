"""Pinned outputs of the CSR fleet paths on a small graph.

Every fleet path of the harness — the ten-algorithm ``reuse="prefix"``
table, the ``execution="fleet", reuse="none"`` table and the one-walker
CSR one-shot of :func:`estimate_target_edge_count` — is a deterministic
function of its seed.  These literals were recorded from the fleet
engines and pin them: an engine refactor that changes a single random
draw, a ledger charge or an estimator's summation order fails here.
Charged calls compare exactly; estimates to ``rel=1e-12``.
"""

import pytest

from repro.core.pipeline import ALGORITHMS, estimate_target_edge_count
from repro.datasets.labeling import assign_binary_labels
from repro.datasets.synthetic import powerlaw_cluster_osn
from repro.experiments.runner import compare_algorithms
from repro.graph.csr import CSRGraph

FRACTIONS = (0.02, 0.05)
REPETITIONS = 3
BURN_IN = 10
TABLE_SEED = 19
ONE_SHOT_SEED = 23
ONE_SHOT_K = 25

PREFIX_TABLE = {
    "NeighborSample-HH": (
        ([587.5, 391.6666666666667, 587.5], [14, 12, 12]),
        ([626.6666666666666, 705.0, 548.3333333333334], [23, 18, 20]),
    ),
    "NeighborSample-HT": (
        ([392.50082777506884, 392.50082777506884, 0.0], [14, 13, 14]),
        ([630.4084763975599, 236.40317864908496, 236.40317864908496], [21, 17, 21]),
    ),
    "NeighborExploration-HH": (
        ([657.4687921727395, 468.912037037037, 377.6785714285714], [114, 41, 44]),
        ([582.0404269220057, 680.1944444444442, 464.71487116351915], [139, 104, 104]),
    ),
    "NeighborExploration-HT": (
        ([230.92909286843553, 499.631163073101, 405.68248854255233], [63, 35, 62]),
        ([442.8707382944771, 436.7174634540753, 486.90884192403786], [137, 103, 177]),
    ),
    "NeighborExploration-RW": (
        ([1138.4302325581398, 534.4115354637568, 385.7506875910047], [108, 54, 93]),
        ([728.6445551500451, 729.8906799850049, 571.6795572995576], [171, 126, 123]),
    ),
    "EX-MDRW": (
        ([0.0, 1175.0, 1175.0], [8, 2, 5]),
        ([235.0, 1175.0, 940.0], [10, 2, 9]),
    ),
    "EX-MHRW": (
        ([587.5, 391.6666666666667, 783.3333333333334], [15, 15, 14]),
        ([705.0, 313.3333333333333, 548.3333333333334], [20, 21, 23]),
    ),
    "EX-RW": (
        ([916.9763513513512, 665.233524374174, 1081.3197026022303], [17, 18, 16]),
        ([1100.4527909982232, 921.2673419498676, 859.7845874965352], [25, 25, 25]),
    ),
    "EX-RCMH": (
        ([809.0187851935583, 244.62537623516232, 0.0], [16, 17, 12]),
        ([534.1380426482002, 810.9755219711137, 264.7212344468695], [23, 24, 20]),
    ),
    "EX-GMD": (
        ([979.1666666666666, 1175.0, 979.1666666666666], [11, 5, 14]),
        ([1096.6666666666667, 1175.0, 626.6666666666666], [13, 5, 20]),
    ),
}

FLEET_TABLE = {
    "NeighborSample-HH": (
        ([391.6666666666667, 391.6666666666667, 587.5], [15, 15, 15]),
        ([548.3333333333334, 861.6666666666666, 156.66666666666666], [23, 20, 22]),
    ),
    "NeighborSample-HT": (
        ([392.50082777506884, 392.50082777506884, 392.50082777506884], [16, 14, 15]),
        ([709.2095359472548, 630.4084763975599, 630.4084763975599], [22, 21, 20]),
    ),
    "NeighborExploration-HH": (
        ([650.0519405472236, 647.6165518618349, 473.41931216931215], [148, 87, 70]),
        ([667.3197450697451, 600.791329739443, 558.0902255639098], [113, 75, 121]),
    ),
    "NeighborExploration-HT": (
        ([617.5010862129067, 519.2800906445436, 501.1247315853804], [59, 51, 71]),
        ([549.6837207364516, 508.7150816574162, 398.69066238823376], [147, 124, 100]),
    ),
    "NeighborExploration-RW": (
        ([786.0456841955455, 580.2919708029196, 833.4611171960569], [76, 35, 85]),
        ([651.8646191393257, 529.170566866241, 615.9607255759024], [128, 115, 140]),
    ),
    "EX-MDRW": (
        ([0.0, 0.0, 1175.0], [2, 3, 5]),
        ([0.0, 626.6666666666666, 940.0], [6, 7, 3]),
    ),
    "EX-MHRW": (
        ([783.3333333333334, 195.83333333333334, 587.5], [15, 17, 11]),
        ([626.6666666666666, 861.6666666666666, 548.3333333333334], [24, 22, 21]),
    ),
    "EX-RW": (
        ([186.47882907192135, 776.284129694372, 703.8548037000204], [17, 16, 18]),
        ([741.3030586881981, 307.29932615717325, 701.9980936732221], [26, 20, 23]),
    ),
    "EX-RCMH": (
        ([535.9232298502781, 717.8390018919766, 197.8761500641827], [17, 17, 16]),
        ([387.29575577538446, 256.33109493240676, 910.9507437157944], [21, 25, 24]),
    ),
    "EX-GMD": (
        ([1175.0, 783.3333333333333, 979.1666666666666], [4, 10, 16]),
        ([78.33333333333333, 548.3333333333334, 235.0], [10, 10, 9]),
    ),
}

ONE_SHOT = {
    "NeighborSample-HH": (564.0, 31),
    "NeighborSample-HT": (569.7812514369446, 31),
    "NeighborExploration-HH": (499.4508064516131, 131),
    "NeighborExploration-HT": (474.99216341925285, 131),
    "NeighborExploration-RW": (470.8660658071617, 131),
}


@pytest.fixture(scope="module")
def csr():
    graph = powerlaw_cluster_osn(300, 4, 0.3, rng=5)
    assign_binary_labels(graph, 0.4, labels=(1, 2), rng=6)
    return CSRGraph.from_labeled_graph(graph)


def _assert_table(table, pinned):
    assert list(table.cells) == list(pinned)
    for algorithm, columns in pinned.items():
        for outcome, (estimates, calls) in zip(table.cells[algorithm], columns, strict=True):
            assert list(outcome.api_calls) == calls, algorithm
            assert list(outcome.estimates) == pytest.approx(estimates, rel=1e-12), algorithm


@pytest.mark.parametrize(
    "reuse, pinned", [("prefix", PREFIX_TABLE), ("none", FLEET_TABLE)]
)
def test_ten_algorithm_fleet_tables(csr, reuse, pinned):
    table = compare_algorithms(
        csr, 1, 2, FRACTIONS, REPETITIONS,
        burn_in=BURN_IN, seed=TABLE_SEED, execution="fleet", reuse=reuse,
    )
    assert table.sample_sizes == [6, 15]
    _assert_table(table, pinned)


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
def test_csr_one_shot(csr, algorithm):
    result = estimate_target_edge_count(
        csr, 1, 2, algorithm=algorithm,
        sample_size=ONE_SHOT_K, burn_in=BURN_IN, seed=ONE_SHOT_SEED,
    )
    estimate, calls = ONE_SHOT[algorithm]
    assert result.api_calls == calls
    assert result.estimate == pytest.approx(estimate, rel=1e-12)
