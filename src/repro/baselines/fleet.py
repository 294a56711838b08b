"""Fleet execution of the EX-* baselines: vectorized line-graph trials.

The sequential reference path runs each EX-* repetition as a Python
walk over :class:`~repro.graph.line_graph.LineGraphAPI` and re-weights
the visited line nodes one at a time.  This module is its array-native
twin, built on :class:`~repro.walks.line_batched.BatchedLineWalkEngine`:

* :func:`run_baseline_fleet` — all repetitions of one (baseline,
  budget) cell as a single fleet of implicit line-graph walkers;
* :func:`classify_line_fleet` — label-mask classification of an
  already-walked fleet into an
  :class:`~repro.core.samplers.base.EdgeSampleBatch` whose rows are the
  visited line nodes (edges of ``G``), carrying the per-sample
  *stationary weights* the re-weighted estimator needs and the
  per-trial distinct-page ledgers (proposal probes included);
* :func:`reweighted_estimates` — the Li et al. re-weighted form
  ``F̂ = |H| · (Σ I/w) / (Σ 1/w)`` for every trial at once.

Separating the walk from its classification mirrors the proposed
algorithms' prefix-reuse engine: one max-budget line fleet per baseline
serves every budget column (:meth:`LineFleetResult.prefix`) and — in
frequency sweeps — every target pair, because the line walk itself is
label-agnostic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.samplers.base import EdgeSampleBatch
from repro.core.samplers.csr_backend import PrefixLedger
from repro.exceptions import EstimationError
from repro.graph.csr import CSRGraph
from repro.graph.labeled_graph import Label
from repro.utils.rng import RandomSource, ensure_numpy_rng
from repro.walks.batched import kernel_stationary_weights
from repro.walks.line_batched import BatchedLineWalkEngine, LineFleetResult

from repro.baselines.adaptations import LineGraphBaseline


def run_baseline_fleet(
    csr: CSRGraph,
    baseline: LineGraphBaseline,
    k: int,
    repetitions: int,
    burn_in: int = 0,
    rng: RandomSource = None,
) -> LineFleetResult:
    """Walk all *repetitions* of one EX-* cell as one line-graph fleet.

    One walker per repetition, ``burn_in + k`` vectorized transitions
    each; the kernel (and its ``alpha`` / ``delta`` / line-max-degree
    knobs) comes off the *baseline* instance, so tuned suites vectorize
    with their own configuration.
    """
    line_engine = BatchedLineWalkEngine(
        csr, kernel=baseline.csr_kernel_spec(), rng=ensure_numpy_rng(rng)
    )
    return line_engine.run_fleet(repetitions, k, burn_in=burn_in)


def classify_line_fleet(
    csr: CSRGraph,
    fleet: LineFleetResult,
    t1: Label,
    t2: Label,
    ledger: Optional[PrefixLedger] = None,
) -> EdgeSampleBatch:
    """Classify an already-walked line fleet against a target pair.

    A collected line node ``(u, v)`` is a target node of ``G'`` exactly
    when ``(u, v)`` is a target edge of ``G`` — one label-mask gather.
    The batch rows are per-trial; ``weights`` holds the stationary
    weights of the kernel *the fleet itself was walked with*
    (:attr:`LineFleetResult.kernel` — carried on the result so a
    mismatched spec cannot silently mis-weight the estimates) on the
    line degrees ``d(u) + d(v) − 2``, and ``api_calls`` the per-trial
    distinct-``G``-page ledgers, rejected proposal probes included.  A
    caller classifying several prefixes of one fleet passes a
    :class:`~repro.core.samplers.csr_backend.PrefixLedger`, which
    charges every prefix in one pass.
    """
    spec = fleet.kernel
    if spec is None:
        raise EstimationError(
            "the line fleet does not carry its kernel spec; walk it with "
            "BatchedLineWalkEngine / run_baseline_fleet"
        )
    sources = fleet.collected_src
    dests = fleet.collected_dst
    m1 = csr.label_mask(t1)
    m2 = csr.label_mask(t2)
    is_target = (m1[sources] & m2[dests]) | (m2[sources] & m1[dests])

    line_degrees = csr.degrees[sources] + csr.degrees[dests] - 2
    weights = kernel_stationary_weights(spec, line_degrees)

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
        weights=weights,
    )


def reweighted_estimates(batch: EdgeSampleBatch) -> np.ndarray:
    """The Li et al. re-weighted estimator for every trial of a fleet.

    .. math::

       F̂ = |H| · \\frac{Σ_i I(v_i) / w(v_i)}{Σ_i 1 / w(v_i)}

    where ``|H| = |E|`` (prior knowledge, carried as
    ``batch.num_edges``), ``I`` is the target flag and ``w`` the
    stationary weights carried by the batch.  Pure array arithmetic;
    values agree with :meth:`LineGraphBaseline.estimate` up to
    floating-point summation order.
    """
    batch.require_non_empty()
    weights = batch.weights
    if weights is None:
        raise EstimationError(
            "the re-weighted baseline estimator needs per-sample stationary "
            "weights; classify the fleet with classify_line_fleet"
        )
    if (weights <= 0).any():
        raise EstimationError("kernel produced non-positive stationary weight")
    inverse = 1.0 / weights
    denominators = inverse.sum(axis=1)
    if not denominators.all():
        raise EstimationError("degenerate walk: all stationary weights were zero")
    numerators = (batch.is_target * inverse).sum(axis=1)
    return batch.num_edges * numerators / denominators


__all__ = [
    "run_baseline_fleet",
    "classify_line_fleet",
    "reweighted_estimates",
]
