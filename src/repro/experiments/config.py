"""Experiment configuration shared by the tables, figures and the CLI.

The defaults mirror the paper's set-up: sample sizes from 0.5% to 5% of
``|V|`` in steps of 0.5%, NRMSE averaged over 200 independent
simulations.  200 repetitions over 10 budgets and 10 algorithms is a lot
of walking, so the benchmark harness and the CLI expose lighter presets;
``ExperimentConfig.paper_faithful()`` restores the full setting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.core.samplers.csr_backend import (
    validate_backend,
    validate_execution,
    validate_reuse,
)
from repro.exceptions import ConfigurationError
from repro.graph.store import validate_graph_store
from repro.utils.validation import check_fraction, check_positive_int

#: 0.5% .. 5.0% of |V|, the x-axis of every NRMSE table in the paper.
DEFAULT_SAMPLE_FRACTIONS: Tuple[float, ...] = tuple(
    round(0.005 * step, 4) for step in range(1, 11)
)

#: Environment variables that let CI / benches shrink the workload
#: without editing code.
ENV_REPETITIONS = "REPRO_REPETITIONS"
ENV_SCALE = "REPRO_DATASET_SCALE"
ENV_JOBS = "REPRO_JOBS"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one table/figure reproduction run.

    Attributes
    ----------
    dataset:
        Registry name of the dataset stand-in (``repro.datasets``).
    target_pair_index:
        Which of the dataset's selected target pairs to use (the paper
        evaluates up to four per dataset).
    sample_fractions:
        Budgets as fractions of ``|V|``.
    repetitions:
        Independent simulations per (algorithm, budget) cell.
    seed:
        Master seed; each repetition derives its own stream.
    scale:
        Dataset scale multiplier (1.0 = the registry default).
    algorithms:
        Optional subset of algorithm names; ``None`` means all ten.
    include_baselines:
        Whether the EX-* baselines are part of the run.
    burn_in:
        Explicit walk burn-in; ``None`` derives it from the graph's
        mixing time.
    backend:
        Walk backend: ``"python"`` (the dict-based reference engine)
        or ``"csr"`` (the vectorized numpy backend).  The EX-*
        baselines ignore the selector sequentially — they run the
        reference line-graph engine; under ``execution="fleet"`` /
        ``reuse="prefix"`` every algorithm runs vectorized fleets
        whatever the backend.
    execution:
        Trial execution: ``"sequential"`` (one repetition at a time
        through a fresh API wrapper) or ``"fleet"`` (all repetitions of
        a table cell as one vectorized walker fleet — NS/NE fleets for
        the proposed algorithms, implicit line-graph fleets for the
        EX-* baselines, so all ten rows vectorize).
    reuse:
        Sweep walk reuse: ``"none"`` (fresh walks per cell) or
        ``"prefix"`` (one max-budget fleet per registry algorithm,
        proposed and EX-* alike; smaller budget columns and — in
        frequency sweeps — other target pairs are classified off its
        trajectory prefixes, rejection probes included in the EX-*
        ledgers).
    representation:
        Dataset substrate: ``"dict"`` (reference networkx/dict
        synthesis) or ``"csr"`` (array-native synthesis, the only
        practical choice at paper scale).  ``"csr"`` needs
        ``execution="fleet"`` or ``reuse="prefix"`` — the sequential
        loop simulates the restricted API over the dict substrate —
        and then reproduces the full ten-algorithm tables.
    graph_store:
        Which buffer store backs the CSR graph and carries it to
        ``n_jobs`` workers: ``"ram"`` (default, process-private arrays;
        workers get a pickle each), ``"shm"`` (one shared-memory
        segment, workers reattach an O(1) handle — cheap multi-process
        tables at ≥10⁶ nodes), or ``"mmap"`` (the dataset itself is
        memory-mapped from an ``.npz`` sidecar — out-of-core, peak RSS
        well under the in-RAM footprint, and workers map the same
        file).  Non-``"ram"`` stores require ``representation="csr"``;
        results are bit-identical across all three stores.
    n_jobs:
        Worker processes for cell-level parallelism; per-cell seeds are
        pre-derived so any worker count reproduces the same tables.
    journal:
        Optional path to an append-only experiment journal (WAL): every
        completed cell is made durable as it finishes, so a crashed run
        leaves resume state behind (``.journal.jsonl`` is appended to
        the name if missing).
    resume:
        With :attr:`journal`, replay the finished cells of a previous
        run and execute only the missing ones (bit-identical — cell
        seeds are pre-derived).  Requires :attr:`journal`.
    pinned:
        Field names whose values were set explicitly (e.g. CLI flags)
        and must not be changed by :meth:`apply_environment` — an
        exported ``REPRO_JOBS`` should fill defaults, not silently beat
        an explicit ``--jobs``.
    """

    dataset: str
    target_pair_index: int = 0
    sample_fractions: Sequence[float] = DEFAULT_SAMPLE_FRACTIONS
    repetitions: int = 200
    seed: int = 2018
    scale: float = 1.0
    algorithms: Optional[Tuple[str, ...]] = None
    include_baselines: bool = True
    burn_in: Optional[int] = None
    backend: str = "python"
    execution: str = "sequential"
    reuse: str = "none"
    representation: str = "dict"
    graph_store: str = "ram"
    n_jobs: int = 1
    journal: Optional[str] = None
    resume: bool = False
    pinned: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_positive_int(self.repetitions, "repetitions")
        check_positive_int(self.n_jobs, "n_jobs")
        validate_backend(self.backend)
        validate_execution(self.execution)
        validate_reuse(self.reuse)
        validate_graph_store(self.graph_store)
        if self.graph_store != "ram" and self.representation != "csr":
            raise ConfigurationError(
                f"graph_store={self.graph_store!r} stores CSR buffers "
                "externally; the dict representation has none — combine it "
                "with representation='csr'"
            )
        if self.representation not in ("dict", "csr"):
            raise ConfigurationError(
                f"unknown representation {self.representation!r}; "
                "available: dict, csr"
            )
        if (
            self.representation == "csr"
            and self.execution != "fleet"
            and self.reuse != "prefix"
        ):
            raise ConfigurationError(
                "representation='csr' has no dict graph for the sequential "
                "restricted-API loop; combine it with execution='fleet' or "
                "reuse='prefix'"
            )
        if not self.sample_fractions:
            raise ConfigurationError("sample_fractions must not be empty")
        for fraction in self.sample_fractions:
            check_fraction(fraction, "sample_fractions entry")
        if self.target_pair_index < 0:
            raise ConfigurationError("target_pair_index must be non-negative")
        if self.resume and self.journal is None:
            raise ConfigurationError(
                "resume=True replays a journal; pass journal= (--journal) "
                "with the path the crashed run was writing"
            )

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def paper_faithful(cls, dataset: str, target_pair_index: int = 0) -> "ExperimentConfig":
        """The paper's full setting: 10 budgets × 200 repetitions."""
        return cls(dataset=dataset, target_pair_index=target_pair_index)

    @classmethod
    def quick(cls, dataset: str, target_pair_index: int = 0) -> "ExperimentConfig":
        """A CI-friendly setting: 3 budgets × 10 repetitions, 25% scale."""
        return cls(
            dataset=dataset,
            target_pair_index=target_pair_index,
            sample_fractions=(0.01, 0.03, 0.05),
            repetitions=10,
            scale=0.25,
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    def apply_environment(self) -> "ExperimentConfig":
        """Apply ``REPRO_REPETITIONS`` / ``REPRO_DATASET_SCALE`` /
        ``REPRO_JOBS`` overrides, skipping :attr:`pinned` fields."""
        updates = {}
        repetitions = os.environ.get(ENV_REPETITIONS)
        if repetitions and "repetitions" not in self.pinned:
            updates["repetitions"] = int(repetitions)
        scale = os.environ.get(ENV_SCALE)
        if scale and "scale" not in self.pinned:
            updates["scale"] = float(scale)
        jobs = os.environ.get(ENV_JOBS)
        if jobs and "n_jobs" not in self.pinned:
            updates["n_jobs"] = int(jobs)
        return self.with_overrides(**updates) if updates else self


__all__ = [
    "ExperimentConfig",
    "DEFAULT_SAMPLE_FRACTIONS",
    "ENV_REPETITIONS",
    "ENV_SCALE",
    "ENV_JOBS",
]
