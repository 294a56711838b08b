"""Vectorized random walks over a :class:`~repro.graph.csr.CSRGraph`.

Two execution styles live here, both sharing the CSR arrays:

* :func:`csr_walk` — one walker, a tight scalar loop that reproduces
  the reference dict engine (:class:`repro.walks.engine.RandomWalk`)
  **step for step from the same seed**, by consuming ``random.Random``
  bits exactly the way ``rng.choice`` does.  It is the replay oracle
  the tests check the fleet classifiers against.
* :class:`BatchedWalkEngine` — ``N`` independent walkers advanced one
  numpy-vectorized step at a time, for throughput workloads (fleet
  simulation, variance studies, benchmarks).

Both support every kernel of :mod:`repro.walks.kernels`: the two
degree-stationary kernels the paper's proposed algorithms use
(``simple``, ``non_backtracking``) *and* the four accept/reject
baseline kernels of the EX-* adaptations (``mhrw``, ``mdrw``,
``rcmh``, ``gmd``), whose acceptance tests are applied as one
vectorized accept/reject mask with stay-in-place (self-loop)
semantics on rejection.  Charged API calls follow the same
distinct-page-download semantics as
:class:`repro.graph.api.RestrictedGraphAPI` with caching on: fetching
a page (neighbor list) of a node is charged once per distinct node,
revisits are free, and exceeding a budget raises
:class:`~repro.exceptions.APIBudgetExceededError`.  The MH-family
kernels (``mhrw``, and ``rcmh`` with ``alpha > 0``) additionally
*probe* their proposal's page to evaluate the acceptance ratio, so
rejected proposals are charged too — exactly like the reference
kernel's ``degree(proposal)`` call.

Buffer stores: the batched engine reads the graph only through numpy
*gathers* (``indices[indptr[current] + offsets]``, ``degrees[nodes]``),
so it runs unchanged over shared-memory or memory-mapped CSR buffers
(:mod:`repro.graph.store`) — a memmapped adjacency faults in just the
pages the fleet touches and is never densified.  Only the scalar
single-walker paths (:func:`csr_walk`) materialise Python adjacency
lists via :meth:`CSRGraph.adjacency_lists`; whole-array label passes
use the chunked-gather fallback documented on
:meth:`CSRGraph.neighbor_mask_counts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    APIBudgetExceededError,
    ConfigurationError,
    EmptyGraphError,
    WalkError,
)
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomSource, ensure_numpy_rng, ensure_rng
from repro.utils.validation import (
    check_in_range,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

#: The kernels whose stationary law is proportional to degree — the
#: walks the paper's proposed algorithms run.
DEGREE_STATIONARY_KERNELS: Tuple[str, ...] = ("simple", "non_backtracking")

#: The accept/reject kernels of the EX-* baselines (Li et al.), applied
#: as a single vectorized accept mask per fleet step.
BASELINE_CSR_KERNELS: Tuple[str, ...] = ("mhrw", "mdrw", "rcmh", "gmd")

#: Kernel names the CSR backend can vectorize.
SUPPORTED_CSR_KERNELS: Tuple[str, ...] = (
    DEGREE_STATIONARY_KERNELS + BASELINE_CSR_KERNELS
)

KernelLike = Union[None, str, object]


@dataclass(frozen=True)
class KernelSpec:
    """Array-backend description of one transition kernel.

    The vectorized engines cannot call the object kernels of
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


def resolve_csr_kernel(kernel: KernelLike) -> str:
    """Normalise *kernel* (name, spec or kernel instance) to a supported name.

    Every kernel of :mod:`repro.walks.kernels` is vectorizable; unknown
    names/objects raise :class:`ConfigurationError`.  Use
    :func:`resolve_kernel_spec` when the kernel's knobs (``max_degree``,
    ``alpha``, ``delta``) are needed too.
    """
    return resolve_kernel_spec(kernel, require_parameters=False).name


def resolve_kernel_spec(
    kernel: KernelLike, require_parameters: bool = True
) -> KernelSpec:
    """Normalise *kernel* to a :class:`KernelSpec`.

    Accepts a name string, a :class:`KernelSpec`, or a kernel instance
    from :mod:`repro.walks.kernels` (whose ``max_degree`` / ``alpha`` /
    ``delta`` attributes are read off the object).  The bare names
    ``"mdrw"`` / ``"gmd"`` carry no maximum degree, which the walk
    itself needs; with *require_parameters* they raise a
    :class:`ConfigurationError` pointing at the spec/instance forms
    (name-level validation passes ``require_parameters=False``).
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
        if kernel in ("mdrw", "gmd") and require_parameters:
            raise ConfigurationError(
                f"kernel {kernel!r} needs a maximum degree; pass a "
                "KernelSpec or a kernel instance instead of the bare name"
            )
        return KernelSpec(kernel, max_degree=1.0 if kernel in ("mdrw", "gmd") else 0.0)
    name = getattr(kernel, "name", None)
    if name in SUPPORTED_CSR_KERNELS:
        return KernelSpec(
            name,
            max_degree=float(getattr(kernel, "max_degree", 0.0)),
            alpha=float(getattr(kernel, "alpha", 0.2)),
            delta=float(getattr(kernel, "delta", 0.5)),
        )
    raise ConfigurationError(
        f"the CSR backend cannot vectorize kernel {kernel!r}; "
        f"supported: {', '.join(SUPPORTED_CSR_KERNELS)}"
    )


def pow_like_scalar(values, exponent: float) -> np.ndarray:
    """Elementwise ``values ** exponent`` with *scalar* (libm) rounding.

    numpy's vectorized float64 power loop may come from a SIMD
    implementation that disagrees with libm ``pow`` by 1 ULP on some
    inputs (machine-dependent), while every scalar path — Python
    ``**``, the reference kernels and the per-step CSR loops — calls
    libm.  The vectorized engines route their generic powers through
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

    The canonical formula table, shared by every *vectorized*
    accept/reject path (fleet advance and line-graph fleets; the
    scalar per-step loop in ``_walk_exact`` inlines the same formulas
    for speed — keep them in sync):

    * ``mhrw`` — ``min(1, d(u)/d(v))``
    * ``rcmh`` — ``min(1, (d(u)/d(v))**alpha)`` (``alpha=0``: always)
    * ``mdrw`` — ``d(u)/d_max``
    * ``gmd``  — ``d(u)/max(d(u), delta·d_max)``

    Returns ``None`` when the kernel always moves (degree-stationary
    kernels, and ``rcmh`` at ``alpha=0``), so callers can skip the
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
    return None  # degree-stationary kernels always move


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
    return degrees.astype(np.float64)  # simple / non_backtracking


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
# single-walker scalar paths
# ----------------------------------------------------------------------
def csr_walk(
    csr: CSRGraph,
    num_steps: int,
    start: Optional[int] = None,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    return_probes: bool = False,
) -> np.ndarray:
    """Run one walker for *num_steps* steps; return the node index after each.

    The replay oracle of the vectorized engines: it consumes
    ``random.Random`` bits exactly like the reference engine, so the
    same seed yields the same trajectory as
    :class:`repro.walks.engine.RandomWalk` over a
    :class:`RestrictedGraphAPI` of the same graph — for every kernel,
    the baselines' accept/reject ones included.  Tests classify its
    paths with the fleet classifiers and compare against the reference
    samplers.

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
    kernel:
        Any supported kernel (name, :class:`KernelSpec`, or kernel
        instance); the MD/GMD kernels need their ``max_degree`` knob, so
        pass those as instances or specs rather than bare names.
    return_probes:
        When true, return ``(path, probes)`` instead of just the path,
        where *probes* is the per-step proposal drawn by an MH-family
        kernel (whose accept test fetched the proposal's page — see
        :attr:`KernelSpec.probes_proposals`) or ``None`` for every
        other kernel.  Callers reproducing charged-call accounting need
        the probes: a rejected proposal still cost a page download.
    """
    check_non_negative_int(num_steps, "num_steps")
    _check_not_empty(csr)
    spec = resolve_kernel_spec(kernel)
    path, probes = _walk_exact(csr, num_steps, start, ensure_rng(rng), spec)
    return (path, probes) if return_probes else path


def _walk_exact(csr, num_steps, start, generator, spec):
    randbelow = exact_randbelow(generator)
    random = generator.random
    indptr, indices, degrees = csr.adjacency_lists()
    if start is None:
        start = randbelow(csr.num_nodes)
    # Only the start can be isolated: every later position is someone's
    # neighbor, so its degree is >= 1 and the hot loops skip the check.
    if num_steps and degrees[start] == 0:
        raise _isolated_error(start, csr)
    u = start
    out: List[int] = []
    append = out.append
    kernel_name = spec.name
    if kernel_name == "rcmh" and spec.alpha == 0.0:
        # The reference kernel short-circuits to an unconditional move
        # without consuming the accept draw — exactly the simple walk.
        kernel_name = "simple"
    if kernel_name == "simple":
        for _ in range(num_steps):
            u = indices[indptr[u] + randbelow(degrees[u])]
            append(u)
    elif kernel_name == "non_backtracking":
        prev = None
        for _ in range(num_steps):
            lo = indptr[u]
            deg = degrees[u]
            if deg == 1:
                nxt = indices[lo]  # dead end: backtracking, no rng consumed
            else:
                # When prev is not a neighbor the first draw already
                # differs from it, so the rejection loop alone replicates
                # both kernel branches with identical rng consumption.
                nxt = indices[lo + randbelow(deg)]
                while nxt == prev:
                    nxt = indices[lo + randbelow(deg)]
            prev, u = u, nxt
            append(u)
    elif kernel_name in ("mhrw", "rcmh"):
        # Reference consumption: choice(neighbors) then random() for the
        # accept test (degree(proposal) consumes no rng).  Accept
        # formulas inline kernel_move_probabilities — the canonical
        # table — because this is a per-step hot loop.
        alpha = spec.alpha if kernel_name == "rcmh" else 1.0
        probes: List[int] = []
        for _ in range(num_steps):
            deg = degrees[u]
            proposal = indices[indptr[u] + randbelow(deg)]
            probes.append(proposal)
            ratio = deg / degrees[proposal]
            accept = min(1.0, ratio if alpha == 1.0 else ratio**alpha)
            if random() < accept:
                u = proposal
            append(u)
        return (
            np.asarray(out, dtype=np.int64),
            np.asarray(probes, dtype=np.int64),
        )
    else:  # mdrw / gmd: random() for the move test, then choice on moves
        max_degree = spec.max_degree
        delta = spec.delta if kernel_name == "gmd" else 1.0
        for _ in range(num_steps):
            deg = degrees[u]
            if kernel_name == "mdrw" and deg > max_degree:
                raise WalkError(
                    f"walk reached a node of degree {deg} > "
                    f"max_degree={max_degree}"
                )
            if random() < deg / max(deg, delta * max_degree):
                u = indices[indptr[u] + randbelow(deg)]
            append(u)
    return np.asarray(out, dtype=np.int64), None


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
    fleet samplers themselves.)

    Additional per-walker page arrays — e.g. the proposal probes of the
    MH-family kernels, or the two endpoint arrays of a line-graph fleet
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

    Produced by :meth:`BatchedWalkEngine.run_fleet`, the execution mode
    behind ``run_trials(..., execution="fleet")``: one walker stands for
    one experiment repetition, so every walker keeps its *own*
    distinct-page ledger, mirroring the fresh
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
    probed:
        ``(num_walkers, burn_in + num_steps)`` proposal node indices for
        kernels whose accept test reads the proposal's page (``mhrw``,
        ``rcmh`` with ``alpha > 0`` — see
        :attr:`KernelSpec.probes_proposals`), or ``None``.  Rejected
        proposals cost a page download in the reference engine, so the
        per-walker ledgers fold these in.
    kernel:
        The :class:`KernelSpec` that walked this fleet.  Carried on the
        result so classification cannot be handed a mismatched spec
        (the stationary weights would be silently wrong).
    """

    trajectories: np.ndarray
    burn_in: int
    probed: Optional[np.ndarray] = None
    kernel: Optional[KernelSpec] = None

    @property
    def num_walkers(self) -> int:
        return int(self.trajectories.shape[0])

    @property
    def num_steps(self) -> int:
        """Collected (post-burn-in) transitions per walker."""
        return int(self.trajectories.shape[1]) - 1 - self.burn_in

    @property
    def start_nodes(self) -> np.ndarray:
        return self.trajectories[:, 0]

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

        The positions are the trajectories; the probes are the MH-family
        proposal columns (none for kernels that do not probe).  Column
        ``t`` of a probe array belongs to the step into position column
        ``t + 1``.
        """
        return (self.trajectories,), (() if self.probed is None else (self.probed,))

    def charged_calls(self) -> np.ndarray:
        """Per-walker distinct pages downloaded (independent crawlers).

        Includes the proposal probes of the MH-family kernels: a
        rejected proposal's page was still fetched to evaluate the
        acceptance ratio, exactly like the reference kernel's
        ``degree(proposal)`` call.
        """
        positions, probes = self.pages
        return per_walker_distinct_counts(*positions, *probes)

    def prefix(self, num_steps: int) -> "FleetWalkResult":
        """The fleet truncated to its first *num_steps* collected steps.

        The foundation of the prefix-reuse sweep engine: a budget-``b``
        crawl from a given seed *is* the first ``b`` collected steps of
        a longer crawl from the same seed, so every smaller budget point
        of a sweep can be read off one max-budget fleet.  The returned
        result shares the trajectory buffer (a view, not a copy); its
        ledgers (:meth:`charged_calls`) are recomputed over the
        truncated trajectories — proposal probes of rejection steps
        included — and therefore match what a fleet run to exactly
        ``num_steps`` would have charged.
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
            probed=(
                None
                if self.probed is None
                else self.probed[:, : self.burn_in + num_steps]
            ),
            kernel=self.kernel,
        )


class BatchedWalkEngine:
    """Advance ``N`` independent walkers with one numpy step at a time.

    Parameters
    ----------
    csr:
        The frozen graph.
    kernel:
        Any supported kernel — ``"simple"`` (default),
        ``"non_backtracking"``, or one of the EX-* accept/reject
        kernels (``mhrw`` / ``mdrw`` / ``rcmh`` / ``gmd``), given as a
        name, :class:`KernelSpec` or kernel instance.  The accept/reject
        kernels advance with a single vectorized accept mask per step:
        candidate neighbors for all walkers come from one ``indptr``
        gather, the per-walker accept probabilities from
        :func:`kernel_move_probabilities`, and rejected walkers stay in
        place (self-loop semantics).
    budget:
        Optional per-walker charged-API-call cap, with the same
        distinct-page semantics as a caching :class:`RestrictedGraphAPI`
        (see :meth:`run_fleet`).
    rng:
        Seed / generator (normalised to a numpy generator).
    """

    def __init__(
        self,
        csr: CSRGraph,
        kernel: KernelLike = "simple",
        budget: Optional[int] = None,
        rng: RandomSource = None,
    ) -> None:
        self.csr = csr
        self.kernel = resolve_kernel_spec(kernel)
        self.kernel_name = self.kernel.name
        self.budget = budget if budget is None else check_non_negative_int(budget, "budget")
        self._nprng = ensure_numpy_rng(rng)

    def run_fleet(
        self,
        num_walkers: int,
        num_steps: int,
        burn_in: int = 0,
        start_nodes: Optional[Sequence[int]] = None,
    ) -> FleetWalkResult:
        """Run ``N`` *independent* walkers and record their full trajectories.

        The execution mode behind ``run_trials(..., execution="fleet")``:
        each walker stands for one experiment repetition, so each keeps
        its own distinct-page ledger (no fleet-shared cache — see
        :meth:`FleetWalkResult.charged_calls`).  When the engine has a
        *budget*, it is enforced **per walker**: the run raises
        :class:`APIBudgetExceededError` when any single walker's crawl
        downloaded more than *budget* distinct pages — the same outcome
        as the budgeted :class:`RestrictedGraphAPI` wrapper each
        sequential repetition runs through, except that the check
        happens after the walk completes (the fleet walks to the end
        before settling the ledgers), not mid-step; size the walk
        accordingly when probing tight budgets.
        """
        check_positive_int(num_walkers, "num_walkers")
        check_positive_int(num_steps, "num_steps")
        check_non_negative_int(burn_in, "burn_in")
        _check_not_empty(self.csr)
        current = self._draw_starts(num_walkers, start_nodes)

        total = burn_in + num_steps
        trajectories = np.empty((num_walkers, total + 1), dtype=np.int64)
        trajectories[:, 0] = current
        probes: Optional[np.ndarray] = None
        if self.kernel.probes_proposals:
            probes = np.empty((num_walkers, total), dtype=np.int64)
        previous = np.full(num_walkers, -1, dtype=np.int64)
        for step in range(total):
            nxt, probed = self._advance(current, previous)
            if probes is not None:
                probes[:, step] = probed
            previous = current
            current = nxt
            trajectories[:, step + 1] = current

        result = FleetWalkResult(
            trajectories=trajectories,
            burn_in=burn_in,
            probed=probes,
            kernel=self.kernel,
        )
        if self.budget is not None:
            charges = result.charged_calls()
            if int(charges.max(initial=0)) > self.budget:
                raise APIBudgetExceededError(self.budget, self.budget + 1)
        return result

    # ------------------------------------------------------------------
    def _draw_starts(
        self, num_walkers: int, start_nodes: Optional[Sequence[int]]
    ) -> np.ndarray:
        csr = self.csr
        if start_nodes is None:
            current = self._nprng.integers(
                0, csr.num_nodes, size=num_walkers, dtype=np.int64
            )
        else:
            current = np.asarray(start_nodes, dtype=np.int64)
            if current.shape != (num_walkers,):
                raise ConfigurationError(
                    f"start_nodes must have shape ({num_walkers},), got {current.shape}"
                )
            if current.size and (current.min() < 0 or current.max() >= csr.num_nodes):
                raise ConfigurationError("start_nodes contains out-of-range indices")
        # Only starts can be isolated; every later position is a neighbor.
        start_degrees = csr.degrees[current]
        if not start_degrees.all():
            index = int(current[int(np.argmin(start_degrees))])
            raise _isolated_error(index, csr)
        return current.copy()

    def _advance(
        self, current: np.ndarray, previous: np.ndarray
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """One vectorized step; returns ``(next_positions, probed_pages)``.

        *probed_pages* is the proposal array when the kernel's accept
        test fetched the proposals' pages (MH family), else ``None``.
        """
        csr = self.csr
        degrees = csr.degrees[current]
        draws = self._nprng.random(current.size)
        if self.kernel_name == "non_backtracking":
            # Exclude the previous node by a swap-with-last draw: sample
            # an offset over the d−1 allowed slots and, when it lands on
            # the excluded neighbor, take the last slot instead — a
            # bijection onto row∖{previous} that needs no redraw loop
            # (fixed one-draw-per-step consumption).  Dead ends (degree 1) and the first step
            # (previous = −1) fall back to the plain uniform draw, so
            # backtracking stays the only option at a dead end.
            eligible = (previous >= 0) & (degrees > 1)
            span = np.where(eligible, degrees - 1, degrees)
            offsets = (draws * span).astype(np.int64)
            np.minimum(offsets, span - 1, out=offsets)
            rows = csr.indptr[current]
            nxt = csr.indices[rows + offsets].astype(np.int64)
            bump = eligible & (nxt == previous)
            if bump.any():
                nxt[bump] = csr.indices[rows[bump] + degrees[bump] - 1]
            return nxt, None
        offsets = (draws * degrees).astype(np.int64)
        np.minimum(offsets, degrees - 1, out=offsets)
        nxt = csr.indices[csr.indptr[current] + offsets].astype(np.int64)
        if self.kernel_name == "simple":
            return nxt, None
        # Accept/reject baselines: one vectorized accept mask; rejected
        # walkers stay in place (the kernels' self-loop semantics).
        spec = self.kernel
        accept_probabilities = kernel_move_probabilities(
            spec, degrees, csr.degrees[nxt]
        )
        probed = nxt if spec.probes_proposals else None
        if accept_probabilities is None:  # rcmh at alpha=0: always move
            return nxt, probed
        accept = self._nprng.random(current.size) < accept_probabilities
        return np.where(accept, nxt, current), probed


__all__ = [
    "SUPPORTED_CSR_KERNELS",
    "DEGREE_STATIONARY_KERNELS",
    "BASELINE_CSR_KERNELS",
    "KernelSpec",
    "resolve_csr_kernel",
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
