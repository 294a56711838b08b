"""NeighborSample — the paper's Algorithm 1 (edge sampling).

At each of ``k`` iterations the process samples a user ``u`` via a
simple random walk and then picks one of ``u``'s neighbors ``v``
uniformly at random; ``(u, v)`` is the edge sampled at that iteration.
At stationarity each edge of ``G`` is sampled with probability
``1/|E|`` per iteration (both traversal directions contribute
``1/2|E|`` each, §4.1.2 of the paper).

Two implementations are provided, matching the paper:

* :meth:`NeighborSampleSampler.sample` (``single_walk=True``, default) —
  the efficient variant: run one long walk, discard the burn-in, and
  take the edges traversed during the last ``k`` steps as the sample.
  The marginal distribution of each sampled edge is still uniform over
  ``E``; consecutive samples are dependent, which the Hansen–Hurwitz
  estimator tolerates and the Horvitz–Thompson estimator repairs by
  thinning.
* ``single_walk=False`` — the naive Algorithm 1: every iteration pays a
  full burn-in so the ``k`` edges are genuinely independent.  Exists for
  the ablation benchmark; it is far more expensive in API calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.exceptions import ConfigurationError, WalkError
from repro.graph.api import RestrictedGraphAPI
from repro.graph.labeled_graph import Label, Node
from repro.graph.line_graph import edge_is_target
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.walks.engine import RandomWalk
from repro.walks.kernels import SimpleRandomWalkKernel, TransitionKernel

from repro.core.samplers.base import EdgeSample, EdgeSampleSet
from repro.core.samplers.csr_backend import (
    run_csr_sampler,
    sample_edges_csr,
    validate_backend_and_kernel,
)


class NeighborSampleSampler:
    """Sample ``k`` edges from a restricted-access OSN via random walk.

    Parameters
    ----------
    api:
        Restricted neighbor-list access to the graph.
    t1, t2:
        The target labels; each sampled edge is flagged with
        ``I((u, v))`` at sampling time (the labels come with the profile
        pages the walk downloads anyway).
    burn_in:
        Steps discarded before sampling starts.  Use the dataset's mixing
        time (see :func:`repro.walks.mixing.recommended_burn_in`).
    kernel:
        The walk kernel; the paper uses the simple random walk.  A
        non-backtracking kernel can be substituted — it has the same
        stationary distribution, so the estimators stay unbiased.
    rng:
        Seed or generator.
    backend:
        ``"python"`` (default) walks the dict-based reference engine
        through the restricted API; ``"csr"`` walks frozen numpy arrays
        (:mod:`repro.core.samplers.csr_backend`) with identical
        charged-call accounting and a distributionally equivalent
        sampling law.  Only the simple and non-backtracking kernels are
        vectorized.
    exact_rng:
        With ``backend="csr"``, consume random bits exactly like the
        reference engine so the same seed reproduces its samples
        verbatim (slower than the default numpy-uniform fast path).
    """

    def __init__(
        self,
        api: RestrictedGraphAPI,
        t1: Label,
        t2: Label,
        burn_in: int = 0,
        kernel: Optional[TransitionKernel] = None,
        rng: RandomSource = None,
        backend: str = "python",
        exact_rng: bool = False,
    ) -> None:
        self.api = api
        self.t1 = t1
        self.t2 = t2
        self.burn_in = check_non_negative_int(burn_in, "burn_in")
        self.kernel = kernel if kernel is not None else SimpleRandomWalkKernel()
        if self.kernel.stationary_weight is None:  # pragma: no cover - defensive
            raise ConfigurationError("kernel must expose stationary weights")
        self.backend = validate_backend_and_kernel(backend, self.kernel)
        self.exact_rng = exact_rng
        self._rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def sample(
        self,
        k: int,
        single_walk: bool = True,
        start_node: Optional[Node] = None,
    ) -> EdgeSampleSet:
        """Collect ``k`` edge samples.

        Parameters
        ----------
        k:
            Number of sampling iterations.
        single_walk:
            ``True`` (paper's efficient implementation): one walk, the
            edges of its last ``k`` steps.  ``False``: ``k`` independent
            walks, one edge each (Algorithm 1 verbatim).
        start_node:
            Optional fixed starting node (useful in tests).
        """
        check_positive_int(k, "k")
        if self.backend == "csr":
            if not single_walk:
                raise ConfigurationError(
                    "the csr backend implements the single-walk path only; "
                    "use backend='python' for the independent-walks ablation"
                )
            return self._sample_csr(k, start_node)
        if single_walk:
            return self._sample_single_walk(k, start_node)
        return self._sample_independent(k, start_node)

    def _sample_csr(self, k: int, start_node: Optional[Node]) -> EdgeSampleSet:
        return run_csr_sampler(
            self.api,
            sample_edges_csr,
            self.t1,
            self.t2,
            k,
            burn_in=self.burn_in,
            kernel=self.kernel,
            rng=self._rng,
            start_node=start_node,
            exact_rng=self.exact_rng,
        )

    # ------------------------------------------------------------------
    def _classify_edge(self, u: Node, v: Node) -> bool:
        """``I((u, v))`` — is the edge a target edge?"""
        return edge_is_target(
            self.api.labels_of(u), self.api.labels_of(v), self.t1, self.t2
        )

    def _sample_single_walk(self, k: int, start_node: Optional[Node]) -> EdgeSampleSet:
        walk = RandomWalk(self.api, self.kernel, burn_in=self.burn_in, rng=self._rng)
        result = walk.run(k, start_node=start_node)
        sample_set = EdgeSampleSet(
            num_edges=self.api.num_edges,
            num_nodes=self.api.num_nodes,
            target_labels=(self.t1, self.t2),
        )
        for index, edge in enumerate(result.edges):
            if edge is None:
                # The simple walk never self-loops; other kernels might.
                raise WalkError(
                    "NeighborSample requires a kernel that traverses an edge at "
                    f"every step, but step {index} was a self-loop"
                )
            u, v = edge
            sample_set.samples.append(
                EdgeSample(u=u, v=v, is_target=self._classify_edge(u, v), step_index=index)
            )
        sample_set.api_calls_used = self.api.api_calls
        return sample_set

    def _sample_independent(self, k: int, start_node: Optional[Node]) -> EdgeSampleSet:
        sample_set = EdgeSampleSet(
            num_edges=self.api.num_edges,
            num_nodes=self.api.num_nodes,
            target_labels=(self.t1, self.t2),
        )
        for index in range(k):
            walk = RandomWalk(self.api, self.kernel, burn_in=self.burn_in, rng=self._rng)
            result = walk.run(1, start_node=start_node)
            u = result.nodes[0]
            neighbors = self.api.neighbors(u)
            v = self._rng.choice(neighbors)
            sample_set.samples.append(
                EdgeSample(u=u, v=v, is_target=self._classify_edge(u, v), step_index=index)
            )
        sample_set.api_calls_used = self.api.api_calls
        return sample_set


__all__ = ["NeighborSampleSampler"]
