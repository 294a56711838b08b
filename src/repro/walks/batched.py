"""Vectorized random walks over a :class:`~repro.graph.csr.CSRGraph`.

Two node-walk styles live here, both sharing the CSR arrays and both
walking the simple random walk — the walk NeighborSample and
NeighborExploration run (paper §4):

* :func:`csr_walk` — one walker, a tight scalar loop that reproduces
  the reference dict engine (:class:`repro.walks.engine.RandomWalk`)
  **step for step from the same seed**, by consuming ``random.Random``
  bits exactly the way ``rng.choice`` does.  It is the replay oracle
  the tests check the node fleet classifiers against.
* :class:`BatchedWalkEngine` — ``N`` independent walkers advanced one
  numpy-vectorized step at a time: the fleets behind the harness's
  prefix and fleet jobs and the one-walker CSR one-shot.

The EX-* baselines walk the *line graph* with accept/reject kernels;
their fleet is :class:`~repro.walks.line_batched.BatchedLineWalkEngine`,
which reads its kernels through the array helpers defined here
(:class:`KernelSpec`, :func:`kernel_move_probabilities`,
:func:`kernel_stationary_weights`, :func:`pow_like_scalar`).  Charged
API calls follow the same distinct-page-download semantics as
:class:`repro.graph.api.RestrictedGraphAPI` with caching on: fetching
a page (neighbor list) of a node is charged once per distinct node and
revisits are free.

Buffer stores: the batched engine reads the graph only through numpy
*gathers* (``indices[indptr[current] + offsets]``, ``degrees[nodes]``),
so it runs unchanged over shared-memory or memory-mapped CSR buffers
(:mod:`repro.graph.store`) — a memmapped adjacency faults in just the
pages the fleet touches and is never densified.  Only the scalar
single-walker path (:func:`csr_walk`) materialises Python adjacency
lists via :meth:`CSRGraph.adjacency_lists`; whole-array label passes
use the chunked-gather fallback documented on
:meth:`CSRGraph.neighbor_mask_counts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, EmptyGraphError, WalkError
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomSource, ensure_numpy_rng, ensure_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

#: Kernel names the line-graph fleets vectorize: the simple walk (EX-RW)
#: and the accept/reject kernels of the other EX-* baselines (Li et al.).
SUPPORTED_CSR_KERNELS: Tuple[str, ...] = ("simple", "mhrw", "mdrw", "rcmh", "gmd")

KernelLike = Union[None, str, object]


@dataclass(frozen=True)
class KernelSpec:
    """Array-backend description of one transition kernel.

    The line-graph fleets cannot call the object kernels of
    :mod:`repro.walks.kernels` per step, so a kernel is reduced to its
    name plus the scalar knobs the accept test and the stationary
    weights need:

    * ``max_degree`` — the (upper bound on the) maximum degree required
      by ``mdrw`` / ``gmd``; on the EX-* path this is the maximum
      degree of the *line graph*.
    * ``alpha`` — the ``rcmh`` interpolation knob (``0`` = simple
      random walk, ``1`` = full Metropolis–Hastings).
    * ``delta`` — the ``gmd`` degree-cap knob (``1`` recovers ``mdrw``).
    """

    name: str
    max_degree: float = 0.0
    alpha: float = 0.2
    delta: float = 0.5

    def __post_init__(self) -> None:
        if self.name not in SUPPORTED_CSR_KERNELS:
            raise ConfigurationError(
                f"unsupported CSR kernel {self.name!r}; "
                f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
            )
        if self.name in ("mdrw", "gmd"):
            check_positive(self.max_degree, "max_degree")
        if self.name == "rcmh":
            check_in_range(self.alpha, "alpha", 0.0, 1.0)
        if self.name == "gmd":
            check_in_range(self.delta, "delta", 0.0, 1.0)
            if self.delta == 0.0:
                raise ConfigurationError(
                    "delta must be strictly positive for the GMD walk"
                )

    @property
    def probes_proposals(self) -> bool:
        """Whether the accept test reads the *proposal's* page.

        The MH acceptance ratio needs ``d(v)`` of the proposed node, so
        the reference kernel issues a ``degree(proposal)`` API call even
        when the proposal is rejected; the fleet ledgers must charge
        those probes too.  The MD-family kernels decide from the
        *current* degree alone and never touch the proposal's page.
        """
        return self.name == "mhrw" or (self.name == "rcmh" and self.alpha > 0.0)


def resolve_kernel_spec(kernel: KernelLike) -> KernelSpec:
    """Normalise *kernel* to a :class:`KernelSpec`.

    Accepts a name string, a :class:`KernelSpec`, or a kernel instance
    from :mod:`repro.walks.kernels` (whose ``max_degree`` / ``alpha`` /
    ``delta`` attributes are read off the object).  The bare names
    ``"mdrw"`` / ``"gmd"`` carry no maximum degree, which the walk
    itself needs, so they raise a :class:`ConfigurationError` pointing
    at the spec/instance forms.
    """
    if kernel is None:
        return KernelSpec("simple")
    if isinstance(kernel, KernelSpec):
        return kernel
    if isinstance(kernel, str):
        if kernel not in SUPPORTED_CSR_KERNELS:
            raise ConfigurationError(
                f"unsupported CSR kernel {kernel!r}; "
                f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
            )
        if kernel in ("mdrw", "gmd"):
            raise ConfigurationError(
                f"kernel {kernel!r} needs a maximum degree; pass a "
                "KernelSpec or a kernel instance instead of the bare name"
            )
        return KernelSpec(kernel)
    name = getattr(kernel, "name", None)
    if name in SUPPORTED_CSR_KERNELS:
        return KernelSpec(
            name,
            max_degree=float(getattr(kernel, "max_degree", 0.0)),
            alpha=float(getattr(kernel, "alpha", 0.2)),
            delta=float(getattr(kernel, "delta", 0.5)),
        )
    raise ConfigurationError(
        f"the line-graph fleet cannot vectorize kernel {kernel!r}; "
        f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
    )


def pow_like_scalar(values, exponent: float) -> np.ndarray:
    """Elementwise ``values ** exponent`` with *scalar* (libm) rounding.

    numpy's vectorized float64 power loop may come from a SIMD
    implementation that disagrees with libm ``pow`` by 1 ULP on some
    inputs (machine-dependent), while every scalar path — Python
    ``**`` and the reference kernels — calls libm.  The vectorized engines route their generic powers through
    this helper so all paths compute the same accept probabilities and
    stationary weights bit for bit, on every machine: the
    correctly-rounded exponents (1, 2, 0.5) vectorize directly,
    everything else evaluates libm ``pow`` once per *unique* base —
    degrees and degree ratios repeat heavily — and gathers the results
    back.
    """
    values = np.asarray(values, dtype=np.float64)
    if exponent == 1.0:
        return values.copy()
    if exponent == 2.0:
        return values * values
    if exponent == 0.5:
        return np.sqrt(values)
    unique, inverse = np.unique(values, return_inverse=True)
    powered = np.array(
        [math.pow(base, exponent) for base in unique.tolist()], dtype=np.float64
    )
    # numpy < 2.1 flattens return_inverse; reshape covers both behaviors.
    return powered[np.reshape(inverse, values.shape)]


def kernel_move_probabilities(
    spec: KernelSpec,
    current_degrees: np.ndarray,
    proposal_degrees: Optional[np.ndarray],
) -> Optional[np.ndarray]:
    """Per-walker probability of accepting the drawn candidate.

    The canonical formula table of the line-graph fleets' vectorized
    accept test, the array twin of the reference kernels'
    ``accept_probability``:

    * ``mhrw`` — ``min(1, d(u)/d(v))``
    * ``rcmh`` — ``min(1, (d(u)/d(v))**alpha)`` (``alpha=0``: always)
    * ``mdrw`` — ``d(u)/d_max``
    * ``gmd``  — ``d(u)/max(d(u), delta·d_max)``

    Returns ``None`` when the kernel always moves (the simple walk, and
    ``rcmh`` at ``alpha=0``), so callers can skip the
    accept draw entirely.  ``mdrw`` degrees above ``max_degree`` raise
    :class:`WalkError`, matching the reference kernel.
    """
    name = spec.name
    if name == "mhrw":
        return np.minimum(1.0, current_degrees / proposal_degrees)
    if name == "rcmh":
        if spec.alpha == 0.0:
            return None
        # pow_like_scalar, not `** alpha`: numpy's SIMD pow can be 1 ULP
        # off libm, which every scalar path calls — the bit-exactness
        # contract spans all of them.
        return np.minimum(
            1.0, pow_like_scalar(current_degrees / proposal_degrees, spec.alpha)
        )
    if name == "mdrw":
        worst = int(current_degrees.max(initial=0))
        if worst > spec.max_degree:
            raise WalkError(
                f"walk reached a node of degree {worst} > "
                f"max_degree={spec.max_degree}"
            )
        return current_degrees / spec.max_degree
    if name == "gmd":
        return current_degrees / np.maximum(
            current_degrees, spec.delta * spec.max_degree
        )
    return None  # the simple walk always moves


def kernel_stationary_weights(spec: KernelSpec, degrees: np.ndarray) -> np.ndarray:
    """Unnormalised stationary weights of nodes of *degrees* under *spec*.

    The array twin of ``TransitionKernel.stationary_weight``; the EX-*
    estimators divide by these to importance-reweight their samples.
    """
    name = spec.name
    if name in ("mhrw", "mdrw"):
        return np.ones(degrees.shape, dtype=np.float64)
    if name == "rcmh":
        return pow_like_scalar(degrees, 1.0 - spec.alpha)
    if name == "gmd":
        return np.maximum(degrees, spec.delta * spec.max_degree).astype(np.float64)
    return degrees.astype(np.float64)  # simple


def _check_not_empty(csr: CSRGraph) -> None:
    if csr.num_nodes == 0:
        raise EmptyGraphError("cannot walk on an empty graph")


def _isolated_error(index: int, csr: CSRGraph) -> WalkError:
    return WalkError(
        f"random walk reached isolated node {csr.node_ids[index]!r}; "
        "run on the largest connected component"
    )


# ----------------------------------------------------------------------
# exact-RNG draw contract
# ----------------------------------------------------------------------
def exact_randbelow(generator):
    """The index source of ``random.Random.choice``, as a bound callable.

    ``choice(seq)`` is ``seq[rng._randbelow(len(seq))]``; consuming
    ``_randbelow`` directly keeps the bit stream aligned with the dict
    engine.  Defined once so every exact-RNG replay path shares the same
    consumption contract (with a ``randrange`` fallback should CPython
    ever drop the private method).
    """
    randbelow = getattr(generator, "_randbelow", None)
    if randbelow is None:  # pragma: no cover - future-proofing
        return generator.randrange
    return randbelow


def draw_start_index(csr: CSRGraph, rng) -> int:
    """Uniform start index for a walk, drawn from a ``random.Random``.

    Consumes the generator exactly like
    :meth:`RestrictedGraphAPI.random_node` (one ``choice`` over the node
    list), so seeded replays of the reference pipeline stay aligned.
    """
    _check_not_empty(csr)
    return exact_randbelow(ensure_rng(rng))(csr.num_nodes)


# ----------------------------------------------------------------------
# single-walker scalar path
# ----------------------------------------------------------------------
def csr_walk(
    csr: CSRGraph,
    num_steps: int,
    start: Optional[int] = None,
    rng: RandomSource = None,
) -> np.ndarray:
    """Run one simple-random-walk walker; return the node index after each step.

    The replay oracle of the node fleets: it consumes ``random.Random``
    bits exactly like the reference engine, so the same seed yields the
    same trajectory as :class:`repro.walks.engine.RandomWalk` with the
    simple kernel over a :class:`RestrictedGraphAPI` of the same graph.
    Tests classify its paths with the fleet classifiers and compare
    against the reference samplers.

    Parameters
    ----------
    csr:
        The frozen graph.
    num_steps:
        Number of transitions to perform.
    start:
        Starting node *index*; drawn uniformly from the rng when omitted
        (mirroring :meth:`RestrictedGraphAPI.random_node`).
    rng:
        Seed or :class:`random.Random`.
    """
    check_non_negative_int(num_steps, "num_steps")
    _check_not_empty(csr)
    randbelow = exact_randbelow(ensure_rng(rng))
    indptr, indices, degrees = csr.adjacency_lists()
    if start is None:
        start = randbelow(csr.num_nodes)
    # Only the start can be isolated: every later position is someone's
    # neighbor, so its degree is >= 1 and the hot loop skips the check.
    if num_steps and degrees[start] == 0:
        raise _isolated_error(start, csr)
    u = start
    out: List[int] = []
    append = out.append
    for _ in range(num_steps):
        u = indices[indptr[u] + randbelow(degrees[u])]
        append(u)
    return np.asarray(out, dtype=np.int64)


# ----------------------------------------------------------------------
# budget accounting
# ----------------------------------------------------------------------
def per_walker_distinct_counts(trajectories: np.ndarray, *extra: np.ndarray) -> np.ndarray:
    """Distinct pages downloaded by each walker of an independent fleet.

    The fleet models ``N`` *independent* crawlers: walker ``w`` is
    charged once per distinct node in ``trajectories[w]`` — exactly what
    ``N`` separate :class:`~repro.graph.api.RestrictedGraphAPI` wrappers
    with caching on would each record, which is how the experiment
    harness runs repetitions.  (Extra pages beyond the trajectory, such
    as NeighborExploration's explored neighbors, are accounted by the
    fleet classifiers themselves.)

    Additional per-walker page arrays — the second endpoint array of a
    line-graph fleet, and the proposal probes of its MH-family kernels
    — are passed as *extra* positional arrays (same number of rows) and
    folded into each walker's distinct count.

    All rows have equal length, so each row is sorted in C and its value
    transitions counted — no per-walker Python work.
    """
    trajectories = np.atleast_2d(trajectories)
    if extra:
        trajectories = np.concatenate(
            [trajectories] + [np.atleast_2d(pages) for pages in extra], axis=1
        )
    ordered = np.sort(trajectories, axis=1)
    return (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1) + 1


# ----------------------------------------------------------------------
# batched engine
# ----------------------------------------------------------------------
@dataclass
class FleetWalkResult:
    """Full trajectories of ``N`` independent walkers (burn-in included).

    Produced by :meth:`BatchedWalkEngine.run_fleet`, the engine behind
    the harness's fleet jobs (``execution="fleet"`` or
    ``reuse="prefix"``): one walker stands for one experiment
    repetition, so every walker keeps its *own* distinct-page ledger,
    mirroring the fresh
    :class:`~repro.graph.api.RestrictedGraphAPI` each repetition gets.

    Attributes
    ----------
    trajectories:
        ``(num_walkers, burn_in + num_steps + 1)`` node indices; column
        0 is the start node, the remaining columns are the positions
        after each transition (burn-in transitions included, because a
        real crawler downloads pages during burn-in too).
    burn_in:
        Transitions discarded before collection starts.
    """

    trajectories: np.ndarray
    burn_in: int

    @property
    def num_walkers(self) -> int:
        return int(self.trajectories.shape[0])

    @property
    def num_steps(self) -> int:
        """Collected (post-burn-in) transitions per walker."""
        return int(self.trajectories.shape[1]) - 1 - self.burn_in

    @property
    def collected(self) -> np.ndarray:
        """``(num_walkers, num_steps)`` positions after the burn-in."""
        return self.trajectories[:, self.burn_in + 1 :]

    @property
    def sources(self) -> np.ndarray:
        """Source endpoint of each collected transition (same shape)."""
        return self.trajectories[:, self.burn_in : -1]

    @property
    def pages(self) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """Every page array a walker downloads: ``(positions, probes)``.

        The positions are the trajectories; the simple walk probes no
        proposals, so the probe arrays are empty (the layout of
        :attr:`~repro.walks.line_batched.LineFleetResult.pages`).
        """
        return (self.trajectories,), ()

    def charged_calls(self) -> np.ndarray:
        """Per-walker distinct pages downloaded (independent crawlers)."""
        return per_walker_distinct_counts(self.trajectories)

    def prefix(self, num_steps: int) -> "FleetWalkResult":
        """The fleet truncated to its first *num_steps* collected steps.

        The foundation of the prefix-reuse sweep engine: a budget-``b``
        crawl from a given seed *is* the first ``b`` collected steps of
        a longer crawl from the same seed, so every smaller budget point
        of a sweep can be read off one max-budget fleet.  The returned
        result shares the trajectory buffer (a view, not a copy); its
        ledgers (:meth:`charged_calls`) are recomputed over the
        truncated trajectories and therefore match what a fleet run to
        exactly ``num_steps`` would have charged.
        """
        check_positive_int(num_steps, "num_steps")
        if num_steps > self.num_steps:
            raise ConfigurationError(
                f"prefix of {num_steps} steps exceeds the fleet's "
                f"{self.num_steps} collected steps"
            )
        if num_steps == self.num_steps:
            return self
        return FleetWalkResult(
            trajectories=self.trajectories[:, : self.burn_in + num_steps + 1],
            burn_in=self.burn_in,
        )


class BatchedWalkEngine:
    """Advance ``N`` independent simple-random-walk walkers, one numpy step at a time.

    Each step draws one uniform per walker and gathers a uniform
    neighbor of every walker's current node from ``indptr`` /
    ``indices``.

    Parameters
    ----------
    csr:
        The frozen graph.
    rng:
        Seed / generator (normalised to a numpy generator).
    """

    def __init__(self, csr: CSRGraph, rng: RandomSource = None) -> None:
        self.csr = csr
        self._nprng = ensure_numpy_rng(rng)

    def run_fleet(
        self, num_walkers: int, num_steps: int, burn_in: int = 0
    ) -> FleetWalkResult:
        """Run ``N`` *independent* walkers and record their full trajectories.

        Starts are uniform nodes.  Each walker stands for one experiment
        repetition, so each keeps its own distinct-page ledger (no
        fleet-shared cache — see :meth:`FleetWalkResult.charged_calls`).
        """
        check_positive_int(num_walkers, "num_walkers")
        check_positive_int(num_steps, "num_steps")
        check_non_negative_int(burn_in, "burn_in")
        csr = self.csr
        _check_not_empty(csr)
        rng = self._nprng
        current = rng.integers(0, csr.num_nodes, size=num_walkers, dtype=np.int64)
        # Only starts can be isolated; every later position is a neighbor.
        start_degrees = csr.degrees[current]
        if not start_degrees.all():
            raise _isolated_error(int(current[int(np.argmin(start_degrees))]), csr)

        total = burn_in + num_steps
        trajectories = np.empty((num_walkers, total + 1), dtype=np.int64)
        trajectories[:, 0] = current
        for step in range(total):
            degrees = csr.degrees[current]
            offsets = (rng.random(num_walkers) * degrees).astype(np.int64)
            np.minimum(offsets, degrees - 1, out=offsets)
            current = csr.indices[csr.indptr[current] + offsets].astype(np.int64)
            trajectories[:, step + 1] = current
        return FleetWalkResult(trajectories=trajectories, burn_in=burn_in)


__all__ = [
    "SUPPORTED_CSR_KERNELS",
    "KernelSpec",
    "resolve_kernel_spec",
    "kernel_move_probabilities",
    "kernel_stationary_weights",
    "exact_randbelow",
    "draw_start_index",
    "csr_walk",
    "per_walker_distinct_counts",
    "pow_like_scalar",
    "FleetWalkResult",
    "BatchedWalkEngine",
]
