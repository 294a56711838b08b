"""Vectorized fleets over the *implicit* line graph ``G'`` of a CSR graph.

The EX-* baseline adaptations (paper §5.1) run node-counting random
walks on the line graph ``G' = (H, R)`` of ``G``: every edge of ``G``
is a node of ``G'``, adjacent to the other edges sharing one of its
endpoints.  The reference implementation walks ``G'`` lazily through
:class:`~repro.graph.line_graph.LineGraphAPI`, one Python object per
neighbor — unusable at million-node scale, and materialising ``G'``
explicitly is worse (a ``G`` node of degree ``d`` contributes
``d(d−1)/2`` line edges, which explodes on heavy-tailed graphs).

:class:`BatchedLineWalkEngine` avoids both: a fleet of walkers lives in
*edge space* — the current line node of walker ``w`` is the endpoint
pair ``(u_w, v_w)`` — and every step works directly on the CSR arrays
of ``G``:

* the line degree is arithmetic, ``d'(u,v) = d(u) + d(v) − 2``;
* a uniform line neighbor is drawn in two vectorized stages: choose the
  pivot endpoint with probability proportional to its ``d − 1`` other
  incident edges, then draw a uniform neighbor of the pivot excluding
  the opposite endpoint (a swap-with-last draw over the ``d − 1``
  allowed slots — fixed draw consumption per step);
* the kernel's accept test is one vectorized mask over the current and
  proposal line degrees (:func:`~repro.walks.batched.kernel_move_probabilities`),
  with stay-in-place semantics on rejection.

The kernels are the five of the EX-* baselines
(:data:`~repro.walks.batched.SUPPORTED_CSR_KERNELS`): the simple walk
of EX-RW and the accept/reject kernels ``mhrw`` / ``mdrw`` / ``rcmh`` /
``gmd``; :class:`~repro.walks.batched.KernelSpec` rejects any other.

Charged-call accounting matches the reference path: walking to, or
probing, a line node fetches the friend lists of *both its endpoints*
on ``G``, so the per-walker ledgers count distinct ``G`` nodes over the
trajectory endpoint arrays plus — for the MH-family kernels — the
endpoints of every (possibly rejected) proposal.

Like :class:`~repro.walks.batched.BatchedWalkEngine`, every read of
``G`` here is a gather, so the engine runs unchanged over
shared-memory or memory-mapped CSR buffers (:mod:`repro.graph.store`)
without densifying the adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, EmptyGraphError, WalkError
from repro.graph.csr import CSRGraph
from repro.utils.rng import RandomSource, ensure_numpy_rng
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.walks.batched import (
    KernelLike,
    KernelSpec,
    kernel_move_probabilities,
    per_walker_distinct_counts,
    resolve_kernel_spec,
)


@dataclass
class LineFleetResult:
    """Full line-graph trajectories of ``N`` independent walkers.

    A line node is an (unordered) edge of ``G``; each walker's position
    at step ``t`` is the endpoint pair ``(src[w, t], dst[w, t])``.

    Attributes
    ----------
    src, dst:
        ``(num_walkers, burn_in + num_steps + 1)`` endpoint index
        arrays; column 0 is the start edge.  The pair order is
        traversal order (the pivot endpoint the walk moved through
        lands in ``src``), which classification treats symmetrically.
    burn_in:
        Transitions discarded before collection starts.
    probed_src, probed_dst:
        ``(num_walkers, burn_in + num_steps)`` endpoints of the
        proposal drawn at each step, recorded only for kernels whose
        accept test fetches the proposal's pages (``mhrw``, ``rcmh``
        with ``alpha > 0``); ``None`` otherwise.  Rejected proposals
        cost page downloads in the reference engine, so the ledgers
        fold these in — and prefixes slice them consistently, keeping
        the rejection steps' accounting intact.
    kernel:
        The :class:`~repro.walks.batched.KernelSpec` that walked this
        fleet.  Carried on the result so classification cannot be
        handed a mismatched spec (the stationary weights would be
        silently wrong).
    """

    src: np.ndarray
    dst: np.ndarray
    burn_in: int
    probed_src: Optional[np.ndarray] = None
    probed_dst: Optional[np.ndarray] = None
    kernel: Optional[KernelSpec] = None

    @property
    def num_walkers(self) -> int:
        return int(self.src.shape[0])

    @property
    def num_steps(self) -> int:
        """Collected (post-burn-in) transitions per walker."""
        return int(self.src.shape[1]) - 1 - self.burn_in

    @property
    def collected_src(self) -> np.ndarray:
        """First endpoints of the collected line nodes (``(N, num_steps)``)."""
        return self.src[:, self.burn_in + 1 :]

    @property
    def collected_dst(self) -> np.ndarray:
        """Second endpoints of the collected line nodes (same shape)."""
        return self.dst[:, self.burn_in + 1 :]

    @property
    def pages(self) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
        """Every ``G`` page array a walker downloads: ``(positions, probes)``.

        Both endpoint arrays of the trajectory, and both endpoint arrays
        of the MH-family proposals (none for kernels that do not probe);
        the same layout as :attr:`FleetWalkResult.pages`.
        """
        probes = () if self.probed_src is None else (self.probed_src, self.probed_dst)
        return (self.src, self.dst), probes

    def charged_calls(self) -> np.ndarray:
        """Per-walker distinct ``G`` pages downloaded (independent crawlers).

        Every visited line node costs the pages of both its endpoints
        (the reference ``LineGraphAPI.neighbors`` reads both friend
        lists); MH-family proposal probes add the proposal endpoints
        even when the proposal was rejected.
        """
        positions, probes = self.pages
        return per_walker_distinct_counts(*positions, *probes)

    def prefix(self, num_steps: int) -> "LineFleetResult":
        """The fleet truncated to its first *num_steps* collected steps.

        The line-graph twin of :meth:`FleetWalkResult.prefix`: budget
        columns of a sweep are read off one max-budget fleet.  Proposal
        probes are truncated alongside the trajectories, so the ledger
        of a prefix is bit-identical to a fresh fleet run to exactly
        ``num_steps`` from the same seed — rejection steps included.
        """
        check_positive_int(num_steps, "num_steps")
        if num_steps > self.num_steps:
            raise ConfigurationError(
                f"prefix of {num_steps} steps exceeds the fleet's "
                f"{self.num_steps} collected steps"
            )
        if num_steps == self.num_steps:
            return self
        keep_nodes = self.burn_in + num_steps + 1
        keep_probes = self.burn_in + num_steps
        return LineFleetResult(
            src=self.src[:, :keep_nodes],
            dst=self.dst[:, :keep_nodes],
            burn_in=self.burn_in,
            probed_src=(
                None if self.probed_src is None else self.probed_src[:, :keep_probes]
            ),
            probed_dst=(
                None if self.probed_dst is None else self.probed_dst[:, :keep_probes]
            ),
            kernel=self.kernel,
        )


class BatchedLineWalkEngine:
    """Advance ``N`` independent line-graph walkers, one numpy step at a time.

    Parameters
    ----------
    csr:
        The frozen *original* graph ``G`` — the line graph is never
        materialised.
    kernel:
        One of the five EX-* kernels (name, :class:`KernelSpec`, or
        kernel instance).  For ``mdrw`` / ``gmd`` the spec's ``max_degree`` is
        the maximum degree *of the line graph*
        (:func:`repro.baselines.adaptations.line_graph_max_degree`).
    rng:
        Seed / generator (normalised to a numpy generator).
    """

    def __init__(
        self,
        csr: CSRGraph,
        kernel: KernelLike = "simple",
        rng: RandomSource = None,
    ) -> None:
        self.csr = csr
        self.kernel = resolve_kernel_spec(kernel)
        self._nprng = ensure_numpy_rng(rng)

    def run_fleet(
        self,
        num_walkers: int,
        num_steps: int,
        burn_in: int = 0,
    ) -> LineFleetResult:
        """Run ``N`` independent line walkers; record full trajectories.

        Start edges follow the reference seed rule
        (:meth:`LineGraphAPI.random_node`): a uniform node of ``G``,
        then a uniform incident edge.  Each walker stands for one
        experiment repetition and keeps its own distinct-page ledger
        (:meth:`LineFleetResult.charged_calls`).
        """
        check_positive_int(num_walkers, "num_walkers")
        check_positive_int(num_steps, "num_steps")
        check_non_negative_int(burn_in, "burn_in")
        csr = self.csr
        if csr.num_nodes == 0:
            raise EmptyGraphError("cannot walk on an empty graph")
        if csr.num_edges == 0:
            raise WalkError("the line graph of an edgeless graph has no nodes")
        spec = self.kernel
        rng = self._nprng
        degrees = csr.degrees
        indptr = csr.indptr
        indices = csr.indices

        # Seed edges: uniform node, then uniform incident edge.
        u = rng.integers(0, csr.num_nodes, size=num_walkers, dtype=np.int64)
        if not degrees[u].all():
            index = int(u[int(np.argmin(degrees[u]))])
            raise WalkError(
                f"random line walk seeded at isolated node "
                f"{csr.node_ids[index]!r}; run on the largest connected component"
            )
        offsets = (rng.random(num_walkers) * degrees[u]).astype(np.int64)
        np.minimum(offsets, degrees[u] - 1, out=offsets)
        v = indices[indptr[u] + offsets].astype(np.int64)

        total = burn_in + num_steps
        src = np.empty((num_walkers, total + 1), dtype=np.int64)
        dst = np.empty((num_walkers, total + 1), dtype=np.int64)
        src[:, 0] = u
        dst[:, 0] = v
        probes: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None)
        if spec.probes_proposals:
            probes = (
                np.empty((num_walkers, total), dtype=np.int64),
                np.empty((num_walkers, total), dtype=np.int64),
            )

        for step in range(total):
            u, v, proposal = self._advance(u, v)
            if probes[0] is not None:
                probes[0][:, step] = proposal[0]
                probes[1][:, step] = proposal[1]
            src[:, step + 1] = u
            dst[:, step + 1] = v

        return LineFleetResult(
            src=src,
            dst=dst,
            burn_in=burn_in,
            probed_src=probes[0],
            probed_dst=probes[1],
            kernel=spec,
        )

    # ------------------------------------------------------------------
    def _advance(
        self, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """One vectorized line-graph step for the whole fleet.

        Returns the new endpoint arrays plus the proposal endpoint pair
        (used for ledger probes; equal to the new position on accepted
        steps).
        """
        csr = self.csr
        spec = self.kernel
        rng = self._nprng
        degrees = csr.degrees
        du = degrees[u]
        dv = degrees[v]
        line_degrees = du + dv - 2
        if not line_degrees.all():
            stuck = int(np.argmin(line_degrees))
            raise WalkError(
                f"line walk reached isolated line node "
                f"({csr.node_ids[int(u[stuck])]!r}, "
                f"{csr.node_ids[int(v[stuck])]!r}); "
                "run on the largest connected component"
            )

        # Stage 1 — pick the pivot endpoint: side u holds d(u)−1 of the
        # d(u)+d(v)−2 line neighbors.
        side_draws = (rng.random(u.size) * line_degrees).astype(np.int64)
        np.minimum(side_draws, line_degrees - 1, out=side_draws)
        side_u = side_draws < (du - 1)
        pivot = np.where(side_u, u, v)
        other = np.where(side_u, v, u)

        # Stage 2 — uniform neighbor of the pivot excluding the opposite
        # endpoint, by a swap-with-last draw: sample over the pivot's
        # d−1 allowed slots (pivot degree >= 2 on the chosen side) and
        # bump a draw that lands on the excluded endpoint to the last
        # slot — a bijection onto row∖{other} with exactly one uniform
        # consumed per walker per step.
        pivot_degrees = degrees[pivot]
        span = pivot_degrees - 1
        offsets = (rng.random(u.size) * span).astype(np.int64)
        np.minimum(offsets, span - 1, out=offsets)
        rows = csr.indptr[pivot]
        w = csr.indices[rows + offsets].astype(np.int64)
        bump = w == other
        if bump.any():
            w[bump] = csr.indices[rows[bump] + pivot_degrees[bump] - 1]

        # Kernel accept test on line degrees; rejected walkers stay.
        accept_probabilities = kernel_move_probabilities(
            spec, line_degrees, degrees[pivot] + degrees[w] - 2
        )
        if accept_probabilities is None:  # simple walk / rcmh at alpha=0
            return pivot, w, (pivot, w)
        accept = rng.random(u.size) < accept_probabilities
        return (
            np.where(accept, pivot, u),
            np.where(accept, w, v),
            (pivot, w),
        )


__all__ = ["LineFleetResult", "BatchedLineWalkEngine"]
