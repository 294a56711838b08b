"""Definitions and runners for every NRMSE table of the paper.

:data:`TABLE_DEFINITIONS` maps a paper table number to the dataset and
target-pair index it evaluates; :func:`run_paper_table` executes the
corresponding experiment and returns both the reproduced
:class:`~repro.experiments.runner.NRMSETable` and the paper's reference
values (who won and by how much), so EXPERIMENTS.md can juxtapose them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines import BASELINE_NAMES
from repro.datasets.registry import load_dataset
from repro.exceptions import ExperimentError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import NRMSETable, compare_algorithms


@dataclass(frozen=True)
class TableDefinition:
    """What one paper table evaluates."""

    table_number: int
    dataset: str
    target_pair_index: int
    paper_target_label: str
    paper_target_count: int
    paper_percentage: float
    paper_best_algorithm: str
    paper_best_nrmse: float


#: Paper tables 4–17: dataset, label pair, and the paper's 5%|V| winner.
TABLE_DEFINITIONS: Dict[int, TableDefinition] = {
    4: TableDefinition(4, "facebook", 0, "(1,2)", 37_400, 42.4, "NeighborSample-HT", 0.104),
    5: TableDefinition(5, "googleplus", 0, "(1,2)", 3_280_000, 26.89, "NeighborSample-HH", 0.029),
    6: TableDefinition(6, "pokec", 0, "(86,135)", 295, 0.001, "NeighborExploration-HH", 0.209),
    7: TableDefinition(7, "pokec", 1, "(2,51)", 1_163, 0.005, "NeighborExploration-HH", 0.124),
    8: TableDefinition(8, "pokec", 2, "(13,20)", 2_134, 0.01, "NeighborExploration-HT", 0.104),
    9: TableDefinition(9, "pokec", 3, "(24,122)", 5_784, 0.03, "NeighborExploration-HT", 0.093),
    10: TableDefinition(10, "orkut", 0, "(48,45)", 5_627, 0.001, "NeighborExploration-HH", 0.089),
    11: TableDefinition(11, "orkut", 1, "(11,0)", 49_879, 0.043, "NeighborExploration-RW", 0.124),
    12: TableDefinition(12, "orkut", 2, "(1,0)", 128_501, 0.11, "NeighborSample-HT", 0.063),
    13: TableDefinition(13, "orkut", 3, "(6,5)", 769_188, 0.657, "NeighborExploration-RW", 0.029),
    14: TableDefinition(14, "livejournal", 0, "(34,12)", 5_168, 0.001, "NeighborExploration-HT", 0.074),
    15: TableDefinition(15, "livejournal", 1, "(19,16)", 15_442, 0.04, "NeighborExploration-HH", 0.105),
    16: TableDefinition(16, "livejournal", 2, "(8,4)", 203_945, 0.48, "NeighborExploration-RW", 0.039),
    17: TableDefinition(17, "livejournal", 3, "(1,0)", 1_753_000, 4.1, "NeighborExploration-RW", 0.02),
}


@dataclass
class PaperTableResult:
    """A reproduced table next to its paper reference."""

    definition: TableDefinition
    table: NRMSETable
    config: ExperimentConfig

    def reproduced_best(self) -> Tuple[str, float]:
        """Best algorithm and NRMSE at the largest budget in this run."""
        return self.table.best_algorithm(-1)

    def paper_best(self) -> Tuple[str, float]:
        """The paper's best algorithm and NRMSE at 5%|V|."""
        return (self.definition.paper_best_algorithm, self.definition.paper_best_nrmse)

    def agreement(self) -> Dict[str, bool]:
        """Coarse shape checks against the paper (family-level agreement).

        ``family_match`` compares only the sampling-process family
        (NeighborSample vs NeighborExploration vs EX baseline) of the
        winners, which is the level at which a scaled synthetic stand-in
        can be expected to agree with the original crawl.
        ``proposed_wins`` checks the paper's headline claim that one of
        the proposed algorithms beats every EX-* baseline.
        """
        reproduced_name, _ = self.reproduced_best()
        paper_name, _ = self.paper_best()
        return {
            "family_match": _family(reproduced_name) == _family(paper_name),
            "proposed_wins": not reproduced_name.startswith("EX-"),
        }


def _family(algorithm_name: str) -> str:
    if algorithm_name.startswith("NeighborSample"):
        return "NeighborSample"
    if algorithm_name.startswith("NeighborExploration"):
        return "NeighborExploration"
    return "EX"


def run_paper_table(
    table_number: int,
    config: Optional[ExperimentConfig] = None,
) -> PaperTableResult:
    """Reproduce one of Tables 4–17.

    Parameters
    ----------
    table_number:
        4–17 (see :data:`TABLE_DEFINITIONS`).
    config:
        Overrides for repetitions, budgets, scale, algorithm subset and
        seed.  Defaults to a moderate setting
        (:meth:`ExperimentConfig.quick` with the definition's dataset);
        pass :meth:`ExperimentConfig.paper_faithful` for the full run.
    """
    if table_number not in TABLE_DEFINITIONS:
        raise ExperimentError(
            f"table {table_number} is not an NRMSE table; available: "
            f"{sorted(TABLE_DEFINITIONS)}"
        )
    definition = TABLE_DEFINITIONS[table_number]
    if config is None:
        config = ExperimentConfig.quick(definition.dataset, definition.target_pair_index)
    else:
        config = config.with_overrides(
            dataset=definition.dataset, target_pair_index=definition.target_pair_index
        )

    dataset = load_dataset(
        definition.dataset,
        seed=config.seed,
        scale=config.scale,
        representation=config.representation,
    )
    if config.target_pair_index >= len(dataset.target_pairs):
        raise ExperimentError(
            f"dataset {definition.dataset!r} produced only "
            f"{len(dataset.target_pairs)} target pairs; "
            f"index {config.target_pair_index} is out of range"
        )
    t1, t2 = dataset.target_pairs[config.target_pair_index]
    # All ten rows reproduce on either substrate: the baselines' oracle
    # parameter (line-graph maximum degree) is computed vectorized on
    # CSR graphs, and their walks run as line-graph fleets there
    # (representation="csr" implies execution="fleet" or reuse="prefix").
    # The baselines (and their line-graph maximum degree) are built only
    # when the run includes one.
    include_baselines = config.algorithms is None or any(
        name in BASELINE_NAMES for name in config.algorithms
    )
    suite = build_algorithm_suite(
        dataset.graph if include_baselines else None,
        include_baselines=include_baselines,
        algorithms=config.algorithms,
    )
    table = compare_algorithms(
        dataset.graph,
        t1,
        t2,
        sample_fractions=config.sample_fractions,
        repetitions=config.repetitions,
        algorithms=suite,
        burn_in=config.burn_in,
        seed=config.seed,
        dataset_name=dataset.spec.paper_name,
        execution=config.execution,
        n_jobs=config.n_jobs,
        reuse=config.reuse,
        journal=config.journal,
        resume=config.resume,
    )
    return PaperTableResult(definition=definition, table=table, config=config)


def list_tables() -> List[int]:
    """The NRMSE table numbers, in paper order."""
    return sorted(TABLE_DEFINITIONS)


__all__ = [
    "TableDefinition",
    "TABLE_DEFINITIONS",
    "PaperTableResult",
    "run_paper_table",
    "list_tables",
]
