"""Fleet classification for the paper's two sampling processes.

Every repetition of a table cell runs as one walker of a simple-random-
walk fleet over a frozen :class:`~repro.graph.csr.CSRGraph`
(:class:`~repro.walks.batched.BatchedWalkEngine`), and the walk is
classified here into the array-native :class:`EdgeSampleBatch` /
:class:`NodeSampleBatch` the estimators' ``estimate_batch`` consume:
:func:`classify_edge_fleet` for NeighborSample,
:func:`classify_node_fleet` for NeighborExploration.  A one-walker
fleet is also what :func:`~repro.core.pipeline.estimate_target_edge_count`
runs on a :class:`CSRGraph`; :meth:`EdgeSampleBatch.sample_set` turns
its row into the reference sample containers.

Fidelity guarantees:

* Fleet estimates agree in distribution with the dict reference engine
  (:class:`NeighborSampleSampler` / :class:`NeighborExplorationSampler`
  over a :class:`RestrictedGraphAPI`), enforced by the
  Kolmogorov–Smirnov equivalence suites.
* Charged API calls are counted with the reference distinct-page
  semantics, per walker: one charge per distinct node whose
  neighbor-list page the walker downloads (walk positions and — for
  NeighborExploration — the explored neighbors of labeled sampled
  nodes), exactly what a fresh caching :class:`RestrictedGraphAPI` per
  repetition records.
* Classifying a path that :func:`~repro.walks.batched.csr_walk` walked
  with the reference engine's random stream reproduces the reference
  samplers' samples and charged calls exactly; the tests check the
  edge and node classifiers against the dict samplers that way.

The EX-* baselines walk the *line graph* with accept/reject kernels;
their fleet path lives in :mod:`repro.baselines.fleet` on top of
:class:`~repro.walks.line_batched.BatchedLineWalkEngine`, and shares
the one-pass budget ledger (:class:`PrefixLedger`) defined here.

The fleet classification paths touch the graph only through gathers
(label masks indexed by trajectories, ``gather_neighbors`` for the
exploration ledgers) and the incident-count table
(:meth:`CSRGraph.neighbor_mask_counts`), so they run unchanged over
shm-backed CSR buffers (:mod:`repro.graph.store`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label

from repro.core.samplers.base import EdgeSampleBatch, NodeSampleBatch

#: Trial-execution choices for the experiment harness: one repetition at
#: a time through a fresh API wrapper, or all repetitions of a cell as
#: one vectorized walker fleet.
EXECUTIONS: Tuple[str, ...] = ("sequential", "fleet")

#: Walk-reuse choices for the sweep harness: fresh walks per cell, or
#: one max-budget fleet whose prefixes serve every smaller budget point
#: (and whose trajectories serve every target pair of a frequency
#: sweep) — O(max budget) walking instead of O(Σ budgets).
REUSES: Tuple[str, ...] = ("none", "prefix")


def validate_execution(execution: str) -> str:
    """Return *execution* or raise the shared unknown-execution error."""
    if execution not in EXECUTIONS:
        raise ConfigurationError(
            f"unknown execution {execution!r}; available: {', '.join(EXECUTIONS)}"
        )
    return execution


def validate_reuse(reuse: str) -> str:
    """Return *reuse* or raise the shared unknown-reuse error."""
    if reuse not in REUSES:
        raise ConfigurationError(
            f"unknown reuse {reuse!r}; available: {', '.join(REUSES)}"
        )
    return reuse


#: Walker-block cap of the dense ledger, in ``walker · |V|`` cells of
#: one byte each.  2^20 cells (1 MB) keeps a block's stamps in cache;
#: it charged 10^5- and 10^6-node fleets faster than 2^22-2^27 cell
#: blocks did, at a fraction of their memory.
_MASK_LEDGER_MAX_CELLS = 1 << 20


def _ledger_segments(csr: CSRGraph, pages, burn_in: int, steps: np.ndarray, explored=None):
    """The pages each walker downloads between consecutive budgets.

    *pages* is a fleet's ``(positions, probes)`` page arrays (see
    :attr:`~repro.walks.line_batched.LineFleetResult.pages`).  Yields
    ``(i, codes)`` for every ascending budget ``steps[i]``, **last
    segment first**: *codes* are the ``walker · |V| + page`` codes of
    the segment ``[steps[i - 1], steps[i])`` — the new position
    columns, the new probe columns and, when *explored* is a
    NeighborExploration ``(has_label, collected)`` pair, the neighbor
    lists of the (walker, labeled node) pairs first explored in that
    segment.  The union over the first ``i + 1`` segments is exactly
    what the walkers downloaded had they stopped at ``steps[i]``.
    """
    positions, probes = pages
    span = np.int64(csr.num_nodes)
    row_codes = np.arange(positions[0].shape[0], dtype=np.int64)[:, None] * span
    position_bounds = np.concatenate(([0], burn_in + 1 + steps))
    probe_bounds = np.concatenate(([0], burn_in + steps))
    if explored is not None:
        has_label, collected = explored
        # Each (walker, explored node) pair once, at its first collected
        # index: the row-major nonzero walks each row left to right, so
        # unique's first occurrence is the earliest exploration.
        rows, cols = np.nonzero(has_label[:, : steps[-1]])
        pair_codes, first_at = np.unique(
            rows * span + collected[rows, cols], return_index=True
        )
        first = cols[first_at]
        order = np.argsort(first, kind="stable")
        pair_codes, first = pair_codes[order], first[order]
        explorer_codes = pair_codes - pair_codes % span
        explored_nodes = pair_codes % span
        pair_bounds = np.concatenate(([0], np.searchsorted(first, steps)))

    for index in range(steps.size - 1, -1, -1):
        low, high = position_bounds[index], position_bounds[index + 1]
        codes = [row_codes + array[:, low:high] for array in positions]
        low, high = probe_bounds[index], probe_bounds[index + 1]
        codes += [row_codes + array[:, low:high] for array in probes]
        if explored is not None:
            low, high = pair_bounds[index], pair_bounds[index + 1]
            nodes = explored_nodes[low:high]
            codes.append(
                np.repeat(explorer_codes[low:high], csr.degrees[nodes])
                + csr.gather_neighbors(nodes)
            )
        yield index, [part.ravel() for part in codes]


def _prefix_charges(
    csr: CSRGraph,
    fleet,
    budgets,
    has_label: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-walker distinct pages at every budget, ``(len(budgets), walkers)``.

    Row ``i`` is what each walker of *fleet* — a node fleet
    (:class:`~repro.walks.batched.FleetWalkResult`) or a line fleet
    (:class:`~repro.walks.line_batched.LineFleetResult`) — charged had
    it stopped after ``budgets[i]`` collected steps: its positions and
    a line fleet's MH probes (:attr:`pages`) and, given *has_label* over a node fleet's
    collected steps (NeighborExploration), the neighbors it explored
    around the labeled nodes among those steps.  Rows follow the
    caller's budget order; duplicates are allowed.

    One pass charges every budget, vectorized across the fleet: a dense
    ``(walkers, |V|)`` stamp ledger holds in each cell ``i + 1`` for the
    first segment ``i`` that downloads that page, and 0 for pages never
    downloaded (segments are stamped last to first, so the earliest one
    wins).  A single scan of the stamped cells then counts each
    walker's new pages per segment (``bincount``) and a ``cumsum``
    turns the counts into charges; one budget only needs a per-row
    count of the stamped cells.  A fleet wider than
    ``_MASK_LEDGER_MAX_CELLS`` cells is charged a block of walkers at a
    time.
    """
    budgets = np.asarray(budgets, dtype=np.int64)
    if budgets.size == 0 or budgets.min() < 1 or budgets.max() > fleet.num_steps:
        raise ConfigurationError(
            f"ledger budgets must lie in [1, {fleet.num_steps}], got {budgets.tolist()}"
        )
    steps, inverse = np.unique(budgets, return_inverse=True)
    positions, probes = fleet.pages
    span = csr.num_nodes
    num_segments = steps.size
    num_walkers = fleet.num_walkers
    block = max(1, _MASK_LEDGER_MAX_CELLS // span)
    charges = np.empty((num_walkers, num_segments), dtype=np.int64)
    for start in range(0, num_walkers, block):
        rows = slice(start, start + block)
        width = min(block, num_walkers - start)
        explored = None if has_label is None else (has_label[rows], fleet.collected[rows])
        segments = _ledger_segments(
            csr,
            ([pages[rows] for pages in positions], [pages[rows] for pages in probes]),
            fleet.burn_in,
            steps,
            explored,
        )
        stamps = np.zeros(width * span, dtype=np.min_scalar_type(num_segments))
        for index, segment in segments:
            for codes in segment:
                stamps[codes] = index + 1
        if num_segments == 1:
            # One budget: a row count beats locating every stamped cell.
            charges[rows, 0] = np.count_nonzero(stamps.reshape(width, span), axis=1)
            continue
        # Through a bool mask: nonzero runs several times faster on bools.
        cells = np.flatnonzero(stamps != 0)
        counts = np.bincount(
            (cells // span) * num_segments + stamps[cells] - 1,
            minlength=width * num_segments,
        )
        charges[rows] = np.cumsum(counts.reshape(width, num_segments), axis=1)
    return charges.T[inverse]


class PrefixLedger:
    """One fleet's charged calls at many prefixes, for one target pair.

    Built over a max-budget *fleet* — node or line — for the budgets a
    caller is about to read off its prefixes.  The first
    :meth:`charges` call charges every budget in one
    :func:`_prefix_charges` pass and later calls look theirs up, so
    classifying a fleet's prefixes charges it once instead of once per
    budget.  NeighborExploration charges depend on the target pair,
    which is why a ledger serves one pair only.
    """

    def __init__(self, csr: CSRGraph, fleet, t1: Label, t2: Label, budgets) -> None:
        self.csr = csr
        self.fleet = fleet
        self.targets = (t1, t2)
        self.budgets = sorted({int(budget) for budget in budgets})
        self._charges: Optional[Dict[int, np.ndarray]] = None

    def charges(
        self, prefix, t1: Label, t2: Label, has_label: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per-walker charges of *prefix*, a prefix of the ledger's fleet.

        *has_label* — NeighborExploration's labeled-sample mask over at
        least the longest budget's collected steps — is read by the
        first call only, which charges every budget.
        """
        if (t1, t2) != self.targets or prefix.num_steps not in self.budgets:
            raise ConfigurationError(
                f"this ledger covers pair {self.targets!r} at budgets "
                f"{self.budgets}, not ({t1!r}, {t2!r}) at {prefix.num_steps}"
            )
        if self._charges is None:
            rows = _prefix_charges(self.csr, self.fleet, self.budgets, has_label)
            self._charges = dict(zip(self.budgets, rows))
        return self._charges[prefix.num_steps]


def classify_edge_fleet(
    csr: CSRGraph,
    fleet,
    t1: Label,
    t2: Label,
    ledger: Optional[PrefixLedger] = None,
) -> EdgeSampleBatch:
    """NeighborSample classification of an already-walked fleet.

    Separating the walk (:class:`~repro.walks.batched.FleetWalkResult`)
    from its classification is what the prefix-reuse sweep engine is
    built on: one fleet can be classified against many target pairs and
    truncated (:meth:`FleetWalkResult.prefix`) to many budgets — the
    walk is label-agnostic, only this step reads the masks.  A caller
    classifying several prefixes of one fleet passes a
    :class:`PrefixLedger`, which charges every prefix in one pass.
    """
    sources = fleet.sources
    dests = fleet.collected
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    is_target = (m1[sources] & m2[dests]) | (m2[sources] & m1[dests])

    # Every page a NeighborSample crawler downloads is a walk position.
    charges = fleet.charged_calls() if ledger is None else ledger.charges(fleet, t1, t2)

    return EdgeSampleBatch(
        sources=sources,
        dests=dests,
        is_target=is_target,
        num_edges=csr.num_edges,
        num_nodes=csr.num_nodes,
        target_labels=(t1, t2),
        api_calls=charges,
        node_ids=csr.node_ids,
        trajectories=fleet.trajectories,
    )


def classify_node_fleet(
    csr: CSRGraph,
    fleet,
    t1: Label,
    t2: Label,
    ledger: Optional[PrefixLedger] = None,
) -> NodeSampleBatch:
    """NeighborExploration classification of an already-walked fleet.

    ``T(u)`` comes from the precomputed vectorized incident counts; the
    per-trial charged-call ledger adds the pages of the neighbors each
    trial explores around its labeled sampled nodes — computed per
    target pair, because which nodes get explored depends on it.  A
    caller classifying several prefixes of one fleet against one pair
    passes the pair's :class:`PrefixLedger`, which charges every
    prefix in a single pass on the first call.
    """
    collected = fleet.collected
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    has_label = m1[collected] | m2[collected]
    incident = np.where(
        has_label, csr.target_incident_counts(t1, t2)[collected], 0
    ).astype(np.int64)

    if ledger is None:
        charges = _prefix_charges(csr, fleet, [fleet.num_steps], has_label)[0]
    else:
        charges = ledger.charges(fleet, t1, t2, has_label)

    return NodeSampleBatch(
        nodes=collected,
        degrees=csr.degrees[collected],
        has_target_label=has_label,
        incident_target_edges=incident,
        num_edges=csr.num_edges,
        num_nodes=csr.num_nodes,
        target_labels=(t1, t2),
        api_calls=charges,
        node_ids=csr.node_ids,
        trajectories=fleet.trajectories,
    )


__all__ = [
    "EXECUTIONS",
    "REUSES",
    "validate_execution",
    "validate_reuse",
    "classify_edge_fleet",
    "classify_node_fleet",
    "PrefixLedger",
]
