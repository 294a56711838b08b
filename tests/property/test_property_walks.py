"""Property-based tests for thinning, mixing helpers and walk bookkeeping."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import WalkError
from repro.graph.labeled_graph import LabeledGraph
from repro.walks.batched import (
    KernelSpec,
    kernel_move_probabilities,
    kernel_stationary_weights,
    pow_like_scalar,
)
from repro.walks.kernels import (
    GeneralMaximumDegreeKernel,
    MaximumDegreeKernel,
    MetropolisHastingsKernel,
    RejectionControlledMHKernel,
)
from repro.walks.mixing import (
    node_index,
    stationary_distribution,
    total_variation_distance,
    transition_matrix,
)
from repro.walks.thinning import thin_indices, thinning_interval


class TestThinningProperties:
    @given(k=st.integers(0, 5000), fraction=st.floats(0.001, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_indices_are_sorted_unique_and_in_range(self, k, fraction):
        indices = thin_indices(k, fraction)
        assert indices == sorted(set(indices))
        assert all(0 <= i < k for i in indices)

    @given(k=st.integers(1, 5000), fraction=st.floats(0.001, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_first_index_is_zero_and_gap_constant(self, k, fraction):
        indices = thin_indices(k, fraction)
        assert indices[0] == 0
        interval = thinning_interval(k, fraction)
        gaps = {b - a for a, b in zip(indices, indices[1:])}
        assert gaps <= {interval}

    @given(k=st.integers(1, 5000))
    @settings(max_examples=100, deadline=None)
    def test_larger_fraction_keeps_fewer_samples(self, k):
        fine = thin_indices(k, 0.01)
        coarse = thin_indices(k, 0.2)
        assert len(coarse) <= len(fine)


def random_connected_graph(rng, size):
    """A random connected graph built from a random tree plus extra edges."""
    graph = LabeledGraph()
    nodes = list(range(size))
    for index in range(1, size):
        graph.add_edge(nodes[index], nodes[rng.randrange(index)])
    extra = rng.randrange(0, size)
    for _ in range(extra):
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class TestMixingProperties:
    @given(seed=st.integers(0, 2**16), size=st.integers(3, 25))
    @settings(max_examples=60, deadline=None)
    def test_transition_matrix_row_stochastic_and_pi_fixed_point(self, seed, size):
        import random

        rng = random.Random(seed)
        graph = random_connected_graph(rng, size)
        index = node_index(graph)
        matrix = transition_matrix(graph, index)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        pi = stationary_distribution(graph, index)
        assert abs(pi.sum() - 1.0) < 1e-9
        assert np.allclose(pi @ matrix, pi, atol=1e-12)

    @given(
        p=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
        q=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_total_variation_bounds(self, p, q):
        size = min(len(p), len(q))
        p_arr = np.array(p[:size])
        q_arr = np.array(q[:size])
        if p_arr.sum() == 0 or q_arr.sum() == 0:
            return
        p_arr = p_arr / p_arr.sum()
        q_arr = q_arr / q_arr.sum()
        distance = total_variation_distance(p_arr, q_arr)
        assert -1e-12 <= distance <= 1.0 + 1e-12
        assert total_variation_distance(p_arr, p_arr) == 0.0
        # symmetry
        assert distance == total_variation_distance(q_arr, p_arr)


#: Degrees cover everything a paper-scale OSN can produce.
DEGREES = st.integers(1, 1_000_000)

#: The exponents pow_like_scalar evaluates without libm pow: the
#: identity is exact and IEEE requires sqrt and x*x to be correctly
#: rounded, which libm pow need not be (so only 1.0 matches ``**``).
FAST_EXPONENTS = (0.5, 1.0, 2.0)


class _OneStepProvider:
    """Just enough of a restricted API for one reference kernel step
    from node ``"u"``: it has *du* neighbors, and every other node (the
    proposal ``"v"``) has degree *dv*.
    """

    def __init__(self, du: int, dv: int = 1) -> None:
        self.du = du
        self.dv = dv

    def neighbors(self, node):
        return range(self.du)

    def degree(self, node) -> int:
        return self.du if node == "u" else self.dv


class _FixedDraw:
    """An rng whose proposal is always ``"v"`` and whose uniform is fixed."""

    def __init__(self, uniform: float) -> None:
        self.uniform = uniform

    def choice(self, sequence):
        return "v"

    def random(self) -> float:
        return self.uniform


def _reference_moves_below(kernel, provider, probability: float) -> bool:
    """Whether the reference kernel's accept threshold is *probability*.

    A reference step moves iff ``rng.random() < threshold``, so the
    threshold equals *probability* exactly when a draw of *probability*
    stays and the next float below it moves.
    """

    def moves(uniform: float) -> bool:
        return kernel.step(provider, "u", None, _FixedDraw(uniform))[0] == "v"

    return moves(math.nextafter(probability, -math.inf)) and not moves(probability)


class TestKernelFormulaTwins:
    """The vectorized accept probabilities and stationary weights must
    equal the reference kernels of :mod:`repro.walks.kernels` to the
    last ULP — ``==`` on floats, no tolerance — or fleet walks and
    re-weighted estimates drift from the reference semantics and become
    machine-dependent."""

    @given(du=DEGREES, dv=DEGREES)
    @settings(max_examples=300, deadline=None)
    def test_mhrw_accept_matches_reference(self, du, dv):
        [p] = kernel_move_probabilities(
            KernelSpec("mhrw"), np.array([du]), np.array([dv])
        )
        assert _reference_moves_below(
            MetropolisHastingsKernel(), _OneStepProvider(du, dv), p
        )

    @given(du=DEGREES, dv=DEGREES, alpha=st.floats(0.001, 1.0))
    @settings(max_examples=300, deadline=None)
    @example(du=3, dv=7, alpha=0.2)  # the paper's alpha
    @example(du=7, dv=3, alpha=1.0)  # the identity fast path
    def test_rcmh_accept_matches_reference(self, du, dv, alpha):
        assume(alpha != 0.5)  # sqrt, see FAST_EXPONENTS
        [p] = kernel_move_probabilities(
            KernelSpec("rcmh", alpha=alpha), np.array([du]), np.array([dv])
        )
        assert _reference_moves_below(
            RejectionControlledMHKernel(alpha), _OneStepProvider(du, dv), p
        )

    def test_rcmh_accept_at_paper_alpha_on_every_small_ratio(self):
        """alpha = 0.2 over every degree pair up to 60, in one fleet-shaped call."""
        du, dv = np.meshgrid(np.arange(1, 61), np.arange(1, 61))
        probabilities = kernel_move_probabilities(
            KernelSpec("rcmh", alpha=0.2), du.ravel(), dv.ravel()
        )
        kernel = RejectionControlledMHKernel(0.2)
        for a, b, p in zip(du.ravel().tolist(), dv.ravel().tolist(), probabilities):
            assert _reference_moves_below(kernel, _OneStepProvider(a, b), p), (a, b)

    @given(du=DEGREES, headroom=st.integers(0, 1_000_000))
    @settings(max_examples=200, deadline=None)
    def test_mdrw_move_matches_reference(self, du, headroom):
        max_degree = float(du + headroom)
        [p] = kernel_move_probabilities(
            KernelSpec("mdrw", max_degree=max_degree), np.array([du]), None
        )
        assert _reference_moves_below(
            MaximumDegreeKernel(max_degree), _OneStepProvider(du), p
        )

    def test_mdrw_degree_above_max_raises_like_reference(self):
        spec = KernelSpec("mdrw", max_degree=4.0)
        with pytest.raises(WalkError, match="max_degree"):
            kernel_move_probabilities(spec, np.array([5]), None)
        with pytest.raises(WalkError, match="max_degree"):
            MaximumDegreeKernel(4.0).step(_OneStepProvider(5), "u", None, _FixedDraw(0.0))

    @given(du=DEGREES, d_max=DEGREES, delta=st.floats(0.001, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_gmd_move_matches_reference(self, du, d_max, delta):
        [p] = kernel_move_probabilities(
            KernelSpec("gmd", max_degree=float(d_max), delta=delta), np.array([du]), None
        )
        assert _reference_moves_below(
            GeneralMaximumDegreeKernel(float(d_max), delta), _OneStepProvider(du), p
        )

    @given(degree=DEGREES, alpha=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    @example(degree=5, alpha=0.2)  # the paper's alpha
    def test_rcmh_stationary_weight_matches_reference(self, degree, alpha):
        assume(alpha != 0.5)  # exponent 1 - alpha = 0.5: sqrt
        [weight] = kernel_stationary_weights(
            KernelSpec("rcmh", alpha=alpha), np.array([degree])
        )
        reference = RejectionControlledMHKernel(alpha).stationary_weight(
            _OneStepProvider(degree), "u"
        )
        assert weight == reference

    @given(degree=DEGREES, d_max=DEGREES, delta=st.floats(0.001, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_other_stationary_weights_match_reference(self, degree, d_max, delta):
        provider = _OneStepProvider(degree)
        degrees = np.array([degree])
        pairs = [
            (KernelSpec("simple"), float(degree)),
            (KernelSpec("non_backtracking"), float(degree)),
            (KernelSpec("mhrw"), MetropolisHastingsKernel().stationary_weight(provider, "u")),
            (
                KernelSpec("mdrw", max_degree=float(d_max)),
                MaximumDegreeKernel(float(d_max)).stationary_weight(provider, "u"),
            ),
            (
                KernelSpec("gmd", max_degree=float(d_max), delta=delta),
                GeneralMaximumDegreeKernel(float(d_max), delta).stationary_weight(
                    provider, "u"
                ),
            ),
        ]
        for spec, reference in pairs:
            assert kernel_stationary_weights(spec, degrees)[0] == reference, spec

    @given(
        values=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12),
        y=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    @example(values=[0.5, 3.0, 0.5], y=0.2)  # repeated bases share one pow
    def test_pow_like_scalar_matches_python_pow(self, values, y):
        """Generic exponents go through libm pow, exactly what Python's
        ``**`` (and so every reference kernel) calls, once per distinct
        base — repeats and the input's shape must not move a bit."""
        assume(y not in FAST_EXPONENTS)
        grid = np.array(values + values).reshape(2, -1)
        assert pow_like_scalar(grid, y).tolist() == [
            [x**y for x in row] for row in grid.tolist()
        ]

    @given(x=st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_pow_like_scalar_fast_paths_are_correctly_rounded(self, x):
        values = np.array([x])
        assert pow_like_scalar(values, 1.0)[0] == x
        assert pow_like_scalar(values, 2.0)[0] == x * x
        assert pow_like_scalar(values, 0.5)[0] == math.sqrt(x)
