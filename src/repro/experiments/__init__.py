"""Experiment harness: NRMSE measurement, sweeps, paper tables and figures."""

from repro.experiments.metrics import (
    nrmse,
    nrmse_from_estimates,
    bias,
    relative_bias,
    empirical_variance,
    bootstrap_confidence_interval,
)
from repro.experiments.cost import CostProfile, profile_api_costs, format_cost_table
from repro.experiments.export import (
    write_nrmse_table_csv,
    write_nrmse_table_json,
    write_frequency_series_csv,
)
from repro.experiments.algorithms import (
    PAPER_ALGORITHM_ORDER,
    ALL_ALGORITHM_ORDER,
    build_algorithm_suite,
)
from repro.experiments.config import ExperimentConfig, DEFAULT_SAMPLE_FRACTIONS
from repro.experiments.runner import TrialOutcome, NRMSETable, run_trials, compare_algorithms
from repro.experiments.sweeps import frequency_sweep, FrequencyPoint
from repro.experiments.reporting import (
    format_nrmse_table,
    format_summary_table,
    best_algorithms,
)
from repro.experiments.tables import TABLE_DEFINITIONS, run_paper_table, PaperTableResult
from repro.experiments.figures import FIGURE_DEFINITIONS, run_paper_figure, PaperFigureResult

__all__ = [
    "nrmse",
    "nrmse_from_estimates",
    "bias",
    "relative_bias",
    "empirical_variance",
    "bootstrap_confidence_interval",
    "CostProfile",
    "profile_api_costs",
    "format_cost_table",
    "write_nrmse_table_csv",
    "write_nrmse_table_json",
    "write_frequency_series_csv",
    "PAPER_ALGORITHM_ORDER",
    "ALL_ALGORITHM_ORDER",
    "build_algorithm_suite",
    "ExperimentConfig",
    "DEFAULT_SAMPLE_FRACTIONS",
    "TrialOutcome",
    "NRMSETable",
    "run_trials",
    "compare_algorithms",
    "frequency_sweep",
    "FrequencyPoint",
    "format_nrmse_table",
    "format_summary_table",
    "best_algorithms",
    "TABLE_DEFINITIONS",
    "run_paper_table",
    "PaperTableResult",
    "FIGURE_DEFINITIONS",
    "run_paper_figure",
    "PaperFigureResult",
]
