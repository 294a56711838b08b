"""Restricted OSN access: the API model the paper assumes.

The paper (§3) assumes the estimation algorithms *cannot* see the whole
graph; they can only

* retrieve the list of friends/neighbors of a given user (one API call),
* read that user's profile labels (bundled with the same call — profile
  pages ship with the friend list in real OSN crawls),
* and know ``|V|`` and ``|E|`` as prior knowledge.

:class:`RestrictedGraphAPI` enforces exactly that.  Every sampler and
estimator in :mod:`repro.core` and :mod:`repro.baselines` works through
this wrapper, so the number of API calls an algorithm issues is measured
the same way the paper measures it (the x-axis of every table is a
budget expressed as a percentage of ``|V|`` API calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.exceptions import APIBudgetExceededError
from repro.graph.labeled_graph import Label, LabeledGraph, Node
from repro.utils.rng import RandomSource, ensure_rng


@dataclass
class APICallCounter:
    """Mutable record of how many API calls a client has issued.

    Attributes
    ----------
    calls:
        Total number of *charged* neighbor-list retrievals.
    cache_hits:
        Retrievals answered from the local cache (not charged — a crawler
        keeps pages it has already downloaded).
    budget:
        Optional hard limit; exceeding it raises
        :class:`~repro.exceptions.APIBudgetExceededError`.
    """

    calls: int = 0
    cache_hits: int = 0
    budget: Optional[int] = None
    per_node: Dict[Node, int] = field(default_factory=dict)

    def charge(self, node: Node) -> None:
        """Record one charged API call for *node*."""
        self.calls += 1
        self.per_node[node] = self.per_node.get(node, 0) + 1
        if self.budget is not None and self.calls > self.budget:
            raise APIBudgetExceededError(self.budget, self.calls)

    def record_cache_hit(self) -> None:
        """Record a retrieval served from cache (free)."""
        self.cache_hits += 1

    @property
    def total_requests(self) -> int:
        """Charged calls plus cache hits."""
        return self.calls + self.cache_hits

    def reset(self) -> None:
        """Zero all counters (the budget is kept)."""
        self.calls = 0
        self.cache_hits = 0
        self.per_node.clear()


class RestrictedGraphAPI:
    """Neighbor-list API over a :class:`LabeledGraph`.

    Parameters
    ----------
    graph:
        The underlying graph (never exposed to callers).
    budget:
        Optional maximum number of charged API calls.
    cache:
        When ``True`` (default) repeated lookups of the same node are
        free, mirroring a crawler that stores downloaded pages.  The
        paper's budget semantics ("x% of |V| API calls") count *distinct*
        page downloads, which is exactly what caching models.
    known_num_nodes / known_num_edges:
        Override the prior knowledge the paper assumes.  By default the
        true values of the underlying graph are used; passing estimates
        lets you study the effect of imperfect priors.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        budget: Optional[int] = None,
        cache: bool = True,
        known_num_nodes: Optional[int] = None,
        known_num_edges: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._cache_enabled = cache
        self._neighbor_cache: Dict[Node, List[Node]] = {}
        self._label_cache: Dict[Node, FrozenSet[Label]] = {}
        self.counter = APICallCounter(budget=budget)
        self._known_num_nodes = known_num_nodes
        self._known_num_edges = known_num_edges

    # ------------------------------------------------------------------
    # prior knowledge (paper assumption 2)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """``|V|`` as prior knowledge."""
        if self._known_num_nodes is not None:
            return self._known_num_nodes
        return self._graph.num_nodes

    @property
    def num_edges(self) -> int:
        """``|E|`` as prior knowledge."""
        if self._known_num_edges is not None:
            return self._known_num_edges
        return self._graph.num_edges

    # ------------------------------------------------------------------
    # the one API the paper allows
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> List[Node]:
        """Retrieve the friend list of *node* — one charged API call.

        Cached retrievals are free when caching is enabled.
        """
        if self._cache_enabled and node in self._neighbor_cache:
            self.counter.record_cache_hit()
            return list(self._neighbor_cache[node])
        neighbors = self._graph.neighbors(node)
        labels = self._graph.labels_of(node)
        self.counter.charge(node)
        if self._cache_enabled:
            self._neighbor_cache[node] = neighbors
            self._label_cache[node] = labels
        return list(neighbors)

    def degree(self, node: Node) -> int:
        """Degree of *node*; comes with the same page as the friend list."""
        return len(self.neighbors(node))

    def labels_of(self, node: Node) -> FrozenSet[Label]:
        """Profile labels of *node*; bundled with the neighbor-list page."""
        if self._cache_enabled and node in self._label_cache:
            self.counter.record_cache_hit()
            return self._label_cache[node]
        labels = self._graph.labels_of(node)
        self.counter.charge(node)
        if self._cache_enabled:
            self._label_cache[node] = labels
            self._neighbor_cache[node] = self._graph.neighbors(node)
        return labels

    def has_label(self, node: Node, label: Label) -> bool:
        """Whether *node*'s profile carries *label*."""
        return label in self.labels_of(node)

    def random_node(self, rng: RandomSource = None) -> Node:
        """Return an arbitrary seed node to start a walk from.

        Real crawls start from some known account; here we draw one
        uniformly.  This is *not* used for estimation (that would require
        uniform node sampling, which OSN APIs do not offer) — only as the
        walk's starting point, whose effect is washed out by the burn-in.
        """
        generator = ensure_rng(rng)
        # Reservoir-free: materialising the node list once is fine because
        # this happens a handful of times per experiment.
        nodes = list(self._graph.nodes())
        return generator.choice(nodes)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def api_calls(self) -> int:
        """Number of charged API calls so far."""
        return self.counter.calls

    def reset_counter(self) -> None:
        """Zero the call counter and drop the cache (fresh crawl)."""
        self.counter.reset()
        self._neighbor_cache.clear()
        self._label_cache.clear()


__all__ = ["RestrictedGraphAPI", "APICallCounter"]
