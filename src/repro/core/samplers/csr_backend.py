"""CSR-array implementations of the paper's two sampling processes.

These functions mirror :class:`NeighborSampleSampler` and
:class:`NeighborExplorationSampler` over a frozen
:class:`~repro.graph.csr.CSRGraph` instead of the dict-based
:class:`RestrictedGraphAPI`.  They produce the very same
:class:`EdgeSampleSet` / :class:`NodeSampleSet` containers, so every
estimator downstream is backend-agnostic.

Fidelity guarantees:

* ``exact_rng=True`` reproduces the reference sampler **bit for bit**:
  same seed, same trajectory, same samples, same charged API calls.
* ``exact_rng=False`` (default) uses the fast numpy-uniform walk; it has
  the same per-step transition distribution, so estimates agree in
  distribution (enforced by the Kolmogorov–Smirnov equivalence suite).
* Charged API calls are counted with the reference distinct-page
  semantics: one charge per distinct node whose neighbor-list page the
  process downloads (walk positions, plus — for NeighborExploration —
  the explored neighbors of labeled sampled nodes).  A *budget* makes
  the functions raise :class:`APIBudgetExceededError` exactly when the
  reference crawler would have run out mid-crawl.  Through
  :func:`run_csr_sampler` the accounting also persists across repeated
  calls on one wrapper (previously downloaded pages stay free), and a
  non-caching wrapper is rejected — ``cache=False`` charges every
  retrieval, which the distinct-page model cannot reproduce.  Only the
  aggregate count is reproduced: the per-node call breakdown
  (:attr:`APICallCounter.per_node`) is not tracked on this path.

Kernel support: every kernel of :mod:`repro.walks.kernels` is accepted
— the degree-stationary walks the proposed algorithms use *and* the
EX-* accept/reject kernels (``mhrw`` / ``mdrw`` / ``rcmh`` / ``gmd``),
which :class:`~repro.walks.batched.BatchedWalkEngine` applies as one
vectorized accept mask per step.  When a fleet walks a
non-degree-stationary kernel, the returned batches carry per-sample
stationary ``weights`` so re-weighted estimators can
importance-correct; the MH-family proposal probes are folded into the
per-trial ledgers.  (The EX-* baselines themselves walk the *line
graph* — their fleet path lives in :mod:`repro.baselines.fleet` on top
of :class:`~repro.walks.line_batched.BatchedLineWalkEngine`.)

The fleet classification paths touch the graph only through gathers
(label masks indexed by trajectories, ``gather_neighbors`` for the
exploration ledgers) and the incident-count table — whose underlying
whole-adjacency pass dispatches to the chunked-gather fallback on
memory-mapped graphs (:meth:`CSRGraph.neighbor_mask_counts`) — so they
run unchanged over shm/mmap-backed CSR buffers
(:mod:`repro.graph.store`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import APIBudgetExceededError, ConfigurationError, WalkError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label, Node
from repro.utils.rng import RandomSource, ensure_numpy_rng, ensure_rng
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.walks.batched import (
    BatchedWalkEngine,
    DEGREE_STATIONARY_KERNELS,
    KernelLike,
    charge_distinct_pages,
    csr_walk,
    draw_start_index,
    kernel_stationary_weights,
    resolve_kernel_spec,
)

from repro.core.samplers.base import (
    EdgeSample,
    EdgeSampleBatch,
    EdgeSampleSet,
    NodeSample,
    NodeSampleBatch,
    NodeSampleSet,
)
#: Walk-backend choices, shared by the samplers, the pipeline, the
#: experiment config and the CLI.
BACKENDS: Tuple[str, ...] = ("python", "csr")

#: Trial-execution choices for the experiment harness: one repetition at
#: a time through a fresh API wrapper, or all repetitions of a cell as
#: one vectorized walker fleet.
EXECUTIONS: Tuple[str, ...] = ("sequential", "fleet")

#: Walk-reuse choices for the sweep harness: fresh walks per cell, or
#: one max-budget fleet whose prefixes serve every smaller budget point
#: (and whose trajectories serve every target pair of a frequency
#: sweep) — O(max budget) walking instead of O(Σ budgets).
REUSES: Tuple[str, ...] = ("none", "prefix")


def validate_backend(backend: str) -> str:
    """Return *backend* or raise the shared unknown-backend error."""
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
        )
    return backend


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


def validate_backend_and_kernel(backend: str, kernel) -> str:
    """Backend validation plus, for the CSR tiers, an eager kernel check.

    Shared by both sampler constructors so an unknown or
    under-parameterized kernel (e.g. a bare ``"mdrw"`` name without its
    ``max_degree``) fails at construction time, not mid-sample.
    """
    if validate_backend(backend) != "python":
        resolve_kernel_spec(kernel)
    return backend


def _run_walk(
    csr: CSRGraph,
    total_steps: int,
    start_node: Optional[Node],
    rng: RandomSource,
    kernel_name,
    exact_rng: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Walk ``total_steps`` steps; return ``(positions, downloaded_pages)``.

    *positions* is the start plus every position (length + 1);
    *downloaded_pages* lists the pages the reference crawler fetches,
    in fetch order — the positions themselves plus, for MH-family
    kernels, each step's probed proposal interleaved right after the
    position it was proposed from (``degree(proposal)`` fires between
    consecutive ``neighbors(current)`` calls), so budget-crossing
    accounting stays faithful even for rejected proposals.
    """
    # Normalise the rng up front so the start draw and the walk consume
    # one generator (draw_start_index mirrors RestrictedGraphAPI.random_node
    # in exact mode).
    generator = ensure_rng(rng) if exact_rng else ensure_numpy_rng(rng)
    if start_node is None:
        start = draw_start_index(csr, generator, exact_rng=exact_rng)
    else:
        start = csr.index_of(start_node)
    path, probes = csr_walk(
        csr, total_steps, start, generator, kernel_name,
        exact_rng=exact_rng, return_probes=True,
    )
    full = np.concatenate(([start], path))
    if probes is None:
        return full, full
    pages = np.empty(full.size + probes.size, dtype=np.int64)
    pages[0::2] = full
    pages[1::2] = probes
    return full, pages


def _charge_pages(
    pages: np.ndarray,
    budget: Optional[int],
    page_filter: Optional[np.ndarray],
) -> int:
    """Count the chargeable pages in *pages* and update *page_filter*.

    *page_filter* is the caller's "already downloaded" mask (one bool
    per CSR index); pages present in it are free, mirroring the
    reference wrapper's cache.  Delegates to
    :func:`charge_distinct_pages` for the crossing semantics (error
    reports ``budget + 1``; pages fetched before the crossing stay
    marked).
    """
    if budget is not None:
        check_non_negative_int(budget, "budget")
    if page_filter is None:
        # Standalone use: nothing was downloaded before this crawl.
        page_filter = np.zeros(int(pages.max()) + 1, dtype=bool)
    return charge_distinct_pages(pages, page_filter, budget)


def sample_edges_csr(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    start_node: Optional[Node] = None,
    budget: Optional[int] = None,
    exact_rng: bool = False,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
    page_filter: Optional[np.ndarray] = None,
) -> EdgeSampleSet:
    """NeighborSample (Algorithm 1, single-walk variant) on CSR arrays.

    Returns the same :class:`EdgeSampleSet` the reference sampler would:
    the edges traversed during the last ``k`` of ``burn_in + k`` steps,
    each classified as target / non-target via the label masks.
    *page_filter* marks pages already downloaded (free revisits); it is
    updated in place.  Charged-call parity holds for every kernel: an
    MH-family walk's probed proposals are charged in reference fetch
    order, rejected ones included.
    """
    check_positive_int(k, "k")
    check_non_negative_int(burn_in, "burn_in")
    spec = resolve_kernel_spec(kernel)
    full, pages = _run_walk(csr, burn_in + k, start_node, rng, spec, exact_rng)

    sources = full[burn_in : burn_in + k]
    dests = full[burn_in + 1 :]
    loops = np.flatnonzero(sources == dests)
    if loops.size:
        # Accept/reject kernels can stay in place; NeighborSample needs a
        # traversed edge per collected step — same error as the reference.
        raise WalkError(
            "NeighborSample requires a kernel that traverses an edge at "
            f"every step, but step {int(loops[0])} was a self-loop"
        )
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    is_target = (m1[sources] & m2[dests]) | (m2[sources] & m1[dests])

    # Every page the reference crawler downloads is a walk position or —
    # for MH-family kernels — a probed proposal; classification
    # endpoints are walk nodes, hence cache hits.
    charged = _charge_pages(pages, budget, page_filter)

    ids = csr.node_ids
    sample_set = EdgeSampleSet(
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls_used=charged,
    )
    samples = sample_set.samples
    for index in range(k):
        samples.append(
            EdgeSample(
                u=ids[int(sources[index])],
                v=ids[int(dests[index])],
                is_target=bool(is_target[index]),
                step_index=index,
            )
        )
    return sample_set


def explore_nodes_csr(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    start_node: Optional[Node] = None,
    budget: Optional[int] = None,
    exact_rng: bool = False,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
    page_filter: Optional[np.ndarray] = None,
) -> NodeSampleSet:
    """NeighborExploration (Algorithm 2, single-walk variant) on CSR arrays.

    ``T(u)`` for labeled sampled nodes comes from the precomputed
    vectorized incident-target-edge counts; the charged-call accounting
    adds the pages of explored neighbors, as the reference sampler does.
    *page_filter* marks pages already downloaded (free revisits); it is
    updated in place.  (On budget exhaustion, which pages count as
    fetched-before-crossing is approximated: explorations are accounted
    in node-index rather than sample order.)
    """
    check_positive_int(k, "k")
    check_non_negative_int(burn_in, "burn_in")
    spec = resolve_kernel_spec(kernel)
    full, walk_pages = _run_walk(csr, burn_in + k, start_node, rng, spec, exact_rng)

    collected = full[burn_in + 1 :]
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    has_label = m1[collected] | m2[collected]
    incident = csr.target_incident_counts(t1, t2)[collected]

    labeled = np.unique(collected[has_label])
    if labeled.size:
        explored = [
            csr.indices[csr.indptr[i] : csr.indptr[i + 1]] for i in labeled
        ]
        pages = np.concatenate([walk_pages] + explored)
    else:
        pages = walk_pages
    charged = _charge_pages(pages, budget, page_filter)

    ids = csr.node_ids
    degrees = csr.degrees[collected]
    sample_set = NodeSampleSet(
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls_used=charged,
    )
    samples = sample_set.samples
    for index in range(k):
        labeled_here = bool(has_label[index])
        samples.append(
            NodeSample(
                node=ids[int(collected[index])],
                degree=int(degrees[index]),
                has_target_label=labeled_here,
                incident_target_edges=int(incident[index]) if labeled_here else 0,
                step_index=index,
            )
        )
    return sample_set


def run_csr_sampler(
    api,
    sample_fn: Callable[..., object],
    t1: Label,
    t2: Label,
    k: int,
    burn_in: int,
    kernel: KernelLike,
    rng: RandomSource,
    start_node: Optional[Node],
    exact_rng: bool,
):
    """Run a CSR sampling function through a :class:`RestrictedGraphAPI`.

    Shared by both sampler classes.  Keeps the wrapper's accounting in
    step with the reference path:

    * pages already in the wrapper's cache (downloaded by earlier calls,
      on either backend) are free — the wrapper's page mask is threaded
      through and updated in place;
    * on budget exhaustion the counter lands on ``budget + 1`` and the
      raised error reports the crossing attempt, exactly like
      :meth:`APICallCounter.charge`;
    * on success the charged calls are added to the wrapper's counter.

    Requires a caching wrapper: with ``cache=False`` the reference
    charges every retrieval, an accounting the distinct-page CSR model
    cannot reproduce.
    """
    if not api.cache_enabled:
        raise ConfigurationError(
            "backend='csr' models the distinct-page-download accounting of a "
            "caching crawler; build the RestrictedGraphAPI with cache=True or "
            "use backend='python'"
        )
    counter = api.counter
    remaining = None
    if counter.budget is not None:
        remaining = max(0, counter.budget - counter.calls)
    try:
        sample_set = sample_fn(
            api.to_csr(),
            t1,
            t2,
            k,
            burn_in=burn_in,
            rng=rng,
            kernel=kernel,
            start_node=start_node,
            budget=remaining,
            exact_rng=exact_rng,
            known_num_nodes=api.num_nodes,
            known_num_edges=api.num_edges,
            page_filter=api.downloaded_page_mask(),
        )
    except APIBudgetExceededError:
        counter.calls = counter.budget + 1  # mirror the reference counter
        raise APIBudgetExceededError(counter.budget, counter.calls) from None
    counter.calls += sample_set.api_calls_used
    sample_set.api_calls_used = api.api_calls
    return sample_set


# ----------------------------------------------------------------------
# fleet execution: every repetition of a table cell as one walker fleet
# ----------------------------------------------------------------------
def run_fleet_walk(
    csr: CSRGraph,
    k: int,
    repetitions: int,
    burn_in: int,
    rng: RandomSource,
    kernel: KernelLike,
):
    check_positive_int(k, "k")
    check_positive_int(repetitions, "repetitions")
    check_non_negative_int(burn_in, "burn_in")
    engine = BatchedWalkEngine(csr, kernel=kernel, rng=ensure_numpy_rng(rng))
    return engine.run_fleet(repetitions, k, burn_in=burn_in)


def enforce_fleet_budget(charges: np.ndarray, budget: Optional[int]) -> None:
    """Per-walker budget check, mirroring :meth:`APICallCounter.charge`.

    Each walker stands for one repetition crawling through its own
    budgeted wrapper, so the first walker whose distinct-page ledger
    crosses *budget* is the crawl that would have died mid-walk.
    """
    if budget is None:
        return
    check_non_negative_int(budget, "budget")
    if charges.size and int(charges.max()) > budget:
        raise APIBudgetExceededError(budget, budget + 1)


#: Walker-block cap of the dense ledger, in ``walker · |V|`` cells of
#: one byte each.  2^20 cells (1 MB) keeps a block's stamps in cache;
#: it charged 10^5- and 10^6-node fleets faster than 2^22-2^27 cell
#: blocks did, at a fraction of their memory.
_MASK_LEDGER_MAX_CELLS = 1 << 20


def _ledger_segments(csr: CSRGraph, pages, burn_in: int, steps: np.ndarray, explored=None):
    """The pages each walker downloads between consecutive budgets.

    *pages* is a fleet's ``(positions, probes)`` page arrays (see
    :attr:`~repro.walks.batched.FleetWalkResult.pages`).  Yields
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
    MH probes (:attr:`pages`) and, given *has_label* over a node fleet's
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


def _fleet_weights(csr: CSRGraph, fleet, nodes: np.ndarray) -> Optional[np.ndarray]:
    """Per-sample stationary weights for non-degree-stationary fleets.

    The spec comes off the fleet itself
    (:attr:`~repro.walks.batched.FleetWalkResult.kernel`), so
    classification can never be handed a kernel that disagrees with the
    walk.  ``None`` for the simple / non-backtracking walks (their
    weights are the degrees, which the batches already carry); for the
    accept/reject kernels the importance weights a re-weighted
    estimator divides by.
    """
    spec = getattr(fleet, "kernel", None)
    if spec is None or spec.name in DEGREE_STATIONARY_KERNELS:
        return None
    return kernel_stationary_weights(spec, csr.degrees[nodes])


def classify_edge_fleet(
    csr: CSRGraph,
    fleet,
    t1: Label,
    t2: Label,
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
    ledger: Optional[PrefixLedger] = None,
) -> EdgeSampleBatch:
    """NeighborSample classification of an already-walked fleet.

    Separating the walk (:class:`~repro.walks.batched.FleetWalkResult`)
    from its classification is what the prefix-reuse sweep engine is
    built on: one fleet can be classified against many target pairs and
    truncated (:meth:`FleetWalkResult.prefix`) to many budgets — the
    walk is label-agnostic, only this step reads the masks.

    When the fleet was walked with a non-degree-stationary
    (EX-*-style) kernel — read off :attr:`FleetWalkResult.kernel`, so
    no mismatched spec can be injected — the batch carries the
    per-sample stationary ``weights`` of the *source* nodes, the
    importance weights a re-weighted estimator needs.  A caller
    classifying several prefixes of one fleet passes a
    :class:`PrefixLedger`, which charges every prefix in one pass.
    """
    sources = fleet.sources
    dests = fleet.collected
    loops = np.flatnonzero((sources == dests).any(axis=1))
    if loops.size:
        # Accept/reject kernels can stay in place; NeighborSample needs
        # a traversed edge per collected step — same error the scalar
        # paths raise (walker index reported instead of step index).
        raise WalkError(
            "NeighborSample requires a kernel that traverses an edge at "
            f"every step, but walker {int(loops[0])} self-looped"
        )
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    is_target = (m1[sources] & m2[dests]) | (m2[sources] & m1[dests])

    # As on the sequential CSR path, every page a NeighborSample crawler
    # downloads belongs to a walk position — plus, for MH-family
    # kernels, the probed proposals, which the fleet's ledger includes.
    charges = fleet.charged_calls() if ledger is None else ledger.charges(fleet, t1, t2)
    enforce_fleet_budget(charges, budget)

    return EdgeSampleBatch(
        sources=sources,
        dests=dests,
        is_target=is_target,
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls=charges,
        node_ids=csr.node_ids,
        trajectories=fleet.trajectories,
        weights=_fleet_weights(csr, fleet, sources),
    )


def classify_node_fleet(
    csr: CSRGraph,
    fleet,
    t1: Label,
    t2: Label,
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
    ledger: Optional[PrefixLedger] = None,
) -> NodeSampleBatch:
    """NeighborExploration classification of an already-walked fleet.

    ``T(u)`` comes from the precomputed vectorized incident counts; the
    per-trial charged-call ledger adds the pages of the neighbors each
    trial explores around its labeled sampled nodes — computed per
    target pair, because which nodes get explored depends on it.  A
    caller classifying several prefixes of one fleet against one pair
    passes the pair's :class:`PrefixLedger`, which charges every
    prefix in a single pass on the first call.  When the fleet walked a
    non-degree-stationary kernel (:attr:`FleetWalkResult.kernel`) the
    batch also carries the collected nodes' stationary ``weights`` (see
    :func:`classify_edge_fleet`).
    """
    collected = fleet.collected
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    has_label = m1[collected] | m2[collected]
    incident = np.where(
        has_label, csr.target_incident_counts(t1, t2)[collected], 0
    ).astype(np.int64)

    # MH-family kernels probed their proposals' pages too; the ledger
    # charges the fleet's probe columns alongside the trajectory.
    if ledger is None:
        charges = _prefix_charges(csr, fleet, [fleet.num_steps], has_label)[0]
    else:
        charges = ledger.charges(fleet, t1, t2, has_label)
    enforce_fleet_budget(charges, budget)

    return NodeSampleBatch(
        nodes=collected,
        degrees=csr.degrees[collected],
        has_target_label=has_label,
        incident_target_edges=incident,
        num_edges=csr.num_edges if known_num_edges is None else known_num_edges,
        num_nodes=csr.num_nodes if known_num_nodes is None else known_num_nodes,
        target_labels=(t1, t2),
        api_calls=charges,
        node_ids=csr.node_ids,
        trajectories=fleet.trajectories,
        weights=_fleet_weights(csr, fleet, collected),
    )


def sample_edges_fleet(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    repetitions: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
) -> EdgeSampleBatch:
    """NeighborSample for *repetitions* independent trials in one fleet.

    One walker per trial, advanced with vectorized numpy steps (burn-in
    included); the result is the array-native
    :class:`~repro.core.samplers.base.EdgeSampleBatch` — per-trial
    source/destination/target-flag rows — plus a per-trial charged-call
    ledger with the same distinct-page semantics as running each trial
    through its own caching :class:`RestrictedGraphAPI`.
    """
    fleet = run_fleet_walk(csr, k, repetitions, burn_in, rng, kernel)
    return classify_edge_fleet(
        csr, fleet, t1, t2,
        budget=budget,
        known_num_nodes=known_num_nodes,
        known_num_edges=known_num_edges,
    )


def explore_nodes_fleet(
    csr: CSRGraph,
    t1: Label,
    t2: Label,
    k: int,
    repetitions: int,
    burn_in: int = 0,
    rng: RandomSource = None,
    kernel: KernelLike = "simple",
    budget: Optional[int] = None,
    known_num_nodes: Optional[int] = None,
    known_num_edges: Optional[int] = None,
) -> NodeSampleBatch:
    """NeighborExploration for *repetitions* independent trials in one fleet.

    ``T(u)`` comes from the precomputed vectorized incident counts; the
    per-trial charged-call ledger adds the pages of the neighbors each
    trial explores around its labeled sampled nodes, exactly like the
    reference sampler running through a fresh caching wrapper.
    """
    fleet = run_fleet_walk(csr, k, repetitions, burn_in, rng, kernel)
    return classify_node_fleet(
        csr, fleet, t1, t2,
        budget=budget,
        known_num_nodes=known_num_nodes,
        known_num_edges=known_num_edges,
    )


__all__ = [
    "BACKENDS",
    "EXECUTIONS",
    "REUSES",
    "validate_backend",
    "validate_execution",
    "validate_reuse",
    "run_fleet_walk",
    "sample_edges_csr",
    "explore_nodes_csr",
    "classify_edge_fleet",
    "classify_node_fleet",
    "PrefixLedger",
    "sample_edges_fleet",
    "explore_nodes_fleet",
    "run_csr_sampler",
]
