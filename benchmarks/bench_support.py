"""Shared helpers for the benchmark harness (see conftest.py for the knobs).

Default settings are scaled down so the full harness finishes on a
laptop; set the environment variables to approach the paper's setting::

    REPRO_REPETITIONS=200 REPRO_DATASET_SCALE=1.0 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: Where regenerated tables and figure series are written.
RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark-default experiment size (overridable via the environment).
DEFAULT_REPETITIONS = int(os.environ.get("REPRO_REPETITIONS", "5"))
DEFAULT_SCALE = float(os.environ.get("REPRO_DATASET_SCALE", "0.25"))
DEFAULT_FRACTIONS = (0.01, 0.03, 0.05)
DEFAULT_SEED = 2018


def write_result(name: str, content: str) -> Path:
    """Persist one regenerated artifact under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n", encoding="utf-8")
    return path


def write_json(name: str, payload: dict) -> Path:
    """Persist one machine-readable artifact under ``benchmarks/results/``.

    Used for the perf-trajectory files (e.g. ``BENCH_core.json``) that
    later PRs diff against, so keys should stay stable.
    """
    return write_result(name, json.dumps(payload, indent=2, sort_keys=True))


def merge_json(name: str, payload: dict) -> Path:
    """Update one JSON artifact's top-level keys, keeping all others.

    For files several benches write into (``BENCH_core.json``): each
    bench owns its keys, so running one bench refreshes its numbers
    without dropping the rest.
    """
    path = RESULTS_DIR / name
    merged = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    merged.update(payload)
    return write_json(name, merged)


def bench_settings() -> dict:
    """The shared (repetitions, scale, fractions, seed) mapping."""
    return {
        "repetitions": DEFAULT_REPETITIONS,
        "scale": DEFAULT_SCALE,
        "fractions": DEFAULT_FRACTIONS,
        "seed": DEFAULT_SEED,
    }


def table_config(settings):
    """Build the ExperimentConfig used by the table benchmarks."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        dataset="facebook",  # replaced per-table by run_paper_table
        sample_fractions=settings["fractions"],
        repetitions=settings["repetitions"],
        scale=settings["scale"],
        seed=settings["seed"],
    )


def run_and_record_table(table_number: int, settings) -> "PaperTableResult":
    """Reproduce one NRMSE table (4-17), write the artifact, return the result."""
    from repro.experiments.reporting import format_nrmse_table
    from repro.experiments.tables import run_paper_table

    result = run_paper_table(table_number, table_config(settings))
    definition = result.definition
    reproduced_name, reproduced_value = result.reproduced_best()
    agreement = result.agreement()

    lines = [
        format_nrmse_table(
            result.table,
            caption=(
                f"Reproduction of paper Table {table_number} "
                f"({definition.dataset}, paper label {definition.paper_target_label}, "
                f"reproduced pair {result.table.target_pair}, "
                f"F={result.table.true_count}, "
                f"{result.config.repetitions} repetitions, scale {result.config.scale})"
            ),
        ),
        "",
        f"paper best at 5%|V|          : {definition.paper_best_algorithm} "
        f"(NRMSE {definition.paper_best_nrmse})",
        f"reproduced best (largest col): {reproduced_name} (NRMSE {reproduced_value:.3f})",
        f"winner family matches paper  : {agreement['family_match']}",
        f"proposed beats EX baselines  : {agreement['proposed_wins']}",
    ]
    write_result(f"table{table_number:02d}_{definition.dataset}.txt", "\n".join(lines))
    return result
