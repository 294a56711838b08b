"""Experiment configuration shared by the tables, figures and the CLI.

The defaults mirror the paper's set-up: sample sizes from 0.5% to 5% of
``|V|`` in steps of 0.5%, NRMSE averaged over 200 independent
simulations.  200 repetitions over 10 budgets and 10 algorithms is a lot
of walking, so the benchmark harness and the CLI expose lighter presets;
``ExperimentConfig.paper_faithful()`` restores the full setting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.core.samplers.csr_backend import validate_execution, validate_reuse
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_fraction, check_positive_int

#: 0.5% .. 5.0% of |V|, the x-axis of every NRMSE table in the paper.
DEFAULT_SAMPLE_FRACTIONS: Tuple[float, ...] = tuple(
    round(0.005 * step, 4) for step in range(1, 11)
)

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
        The EX-* baselines are built exactly when they are among them.
    burn_in:
        Explicit walk burn-in; ``None`` derives it from the graph's
        mixing time.
    execution:
        Trial execution: ``"sequential"`` (one repetition at a time
        through a fresh API wrapper, on the dict reference engine) or ``"fleet"`` (all repetitions of
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
    n_jobs:
        Worker processes for the grid's jobs (prefix fleets and cells
        alike); job seeds are pre-derived so any worker count
        reproduces the same tables.
    journal:
        Optional path to an append-only experiment journal (WAL): every
        completed cell is made durable as it finishes, so a crashed run
        leaves resume state behind (``.journal.jsonl`` is appended to
        the name if missing).
    resume:
        With :attr:`journal`, replay the finished cells of a previous
        run and execute only the missing ones (bit-identical — cell
        seeds are pre-derived).  Requires :attr:`journal`.
    """

    dataset: str
    target_pair_index: int = 0
    sample_fractions: Sequence[float] = DEFAULT_SAMPLE_FRACTIONS
    repetitions: int = 200
    seed: int = 2018
    scale: float = 1.0
    algorithms: Optional[Tuple[str, ...]] = None
    burn_in: Optional[int] = None
    execution: str = "sequential"
    reuse: str = "none"
    representation: str = "dict"
    n_jobs: int = 1
    journal: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.repetitions, "repetitions")
        check_positive_int(self.n_jobs, "n_jobs")
        validate_execution(self.execution)
        validate_reuse(self.reuse)
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


__all__ = [
    "ExperimentConfig",
    "DEFAULT_SAMPLE_FRACTIONS",
]
