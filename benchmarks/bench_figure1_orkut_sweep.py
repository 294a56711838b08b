"""Figure 1 — NRMSE vs relative count of target edges in Orkut (5%|V| calls).

The paper plots, for the five proposed algorithms, the NRMSE at a fixed
5%|V| budget against F/|E| over many Orkut label pairs, and observes
that (1) the error shrinks as the relative count grows and (2)
NeighborExploration dominates at the rare end.  This bench regenerates
the data series on the Orkut stand-in.
"""

from bench_support import table_config, write_result

from repro.experiments.figures import run_paper_figure
from repro.experiments.reporting import format_frequency_series


def _build_series(settings):
    config = table_config(settings).with_overrides(dataset="orkut")
    return run_paper_figure(1, config)


def test_figure1_orkut_frequency_sweep(benchmark, settings):
    result = benchmark.pedantic(_build_series, args=(settings,), rounds=1, iterations=1)
    series_text = format_frequency_series(
        result.points,
        caption="Figure 1 reproduction: NRMSE vs number of target edges in Orkut "
        "(5%|V| API calls)",
    )
    trend = result.monotone_trend("NeighborExploration-HH")
    artifact = series_text + f"\n\nNRMSE-vs-frequency trend (NeighborExploration-HH): {trend:+.2f}"
    write_result("figure1_orkut_sweep.txt", artifact)
    assert len(result.points) >= 3
    # Paper finding (1): the error tends to decrease with the relative count.
    assert trend <= 0
