"""Figure 2 — NRMSE vs relative count of target edges in LiveJournal (5%|V| calls).

Same setting as Figure 1, on the LiveJournal stand-in.
"""

from bench_support import table_config, write_result

from repro.experiments.figures import run_paper_figure
from repro.experiments.reporting import format_frequency_series


def _build_series(settings):
    config = table_config(settings).with_overrides(dataset="livejournal")
    return run_paper_figure(2, config)


def test_figure2_livejournal_frequency_sweep(benchmark, settings):
    result = benchmark.pedantic(_build_series, args=(settings,), rounds=1, iterations=1)
    series_text = format_frequency_series(
        result.points,
        caption="Figure 2 reproduction: NRMSE vs number of target edges in Livejournal "
        "(5%|V| API calls)",
    )
    trend = result.monotone_trend("NeighborExploration-HH")
    artifact = series_text + f"\n\nNRMSE-vs-frequency trend (NeighborExploration-HH): {trend:+.2f}"
    write_result("figure2_livejournal_sweep.txt", artifact)
    assert len(result.points) >= 3
    assert trend <= 0
