"""Unit tests for the paper-table definitions and runner."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import (
    TABLE_DEFINITIONS,
    list_tables,
    run_paper_table,
)


class TestDefinitions:
    def test_tables_4_to_17_defined(self):
        assert list_tables() == list(range(4, 18))

    def test_every_definition_names_a_registered_dataset(self):
        from repro.datasets.registry import dataset_names

        names = set(dataset_names())
        for definition in TABLE_DEFINITIONS.values():
            assert definition.dataset in names
            assert 0 <= definition.target_pair_index < 4

    def test_paper_reference_values_recorded(self):
        table4 = TABLE_DEFINITIONS[4]
        assert table4.paper_best_algorithm == "NeighborSample-HT"
        assert table4.paper_best_nrmse == pytest.approx(0.104)
        table17 = TABLE_DEFINITIONS[17]
        assert table17.paper_best_algorithm == "NeighborExploration-RW"

    def test_paper_percentages_span_orders_of_magnitude(self):
        percentages = [d.paper_percentage for d in TABLE_DEFINITIONS.values()]
        assert min(percentages) == pytest.approx(0.001)
        assert max(percentages) > 10


class TestRunPaperTable:
    @pytest.fixture(scope="class")
    def result(self):
        config = ExperimentConfig(
            dataset="facebook",
            sample_fractions=(0.02, 0.05),
            repetitions=3,
            scale=0.1,
            seed=11,
        )
        return run_paper_table(4, config)

    def test_table_structure(self, result):
        assert result.definition.table_number == 4
        assert result.table.dataset == "Facebook"
        assert len(result.table.sample_fractions) == 2
        assert len(result.table.cells) == 10

    def test_reproduced_and_paper_best(self, result):
        reproduced_name, reproduced_value = result.reproduced_best()
        paper_name, paper_value = result.paper_best()
        assert reproduced_value >= 0
        assert paper_name == "NeighborSample-HT"
        assert paper_value == pytest.approx(0.104)
        assert reproduced_name in result.table.cells

    def test_agreement_keys(self, result):
        agreement = result.agreement()
        assert set(agreement) == {"family_match", "proposed_wins"}

    def test_unknown_table_raises(self):
        with pytest.raises(ExperimentError):
            run_paper_table(3)

    def test_config_dataset_is_overridden_by_definition(self, result):
        # The config passed in named "facebook", and the definition for Table 4
        # also names facebook; what matters is that run_paper_table pins the
        # dataset and pair index to the definition's values.
        assert result.config.dataset == "facebook"
        assert result.config.target_pair_index == 0

    @pytest.mark.parametrize(
        "algorithms, baselines_built",
        [
            (None, True),
            (("NeighborSample-HH", "NeighborExploration-HH"), False),
            (("NeighborSample-HH", "EX-RW"), True),
        ],
        ids=["all-ten", "proposed-only", "one-baseline"],
    )
    def test_baselines_are_built_exactly_when_requested(
        self, monkeypatch, algorithms, baselines_built
    ):
        import repro.experiments.tables as tables

        calls = []

        def recording_suite(graph=None, include_baselines=True, algorithms=None):
            calls.append((graph is not None, include_baselines))
            raise ExperimentError("suite recorded")

        monkeypatch.setattr(tables, "build_algorithm_suite", recording_suite)
        config = ExperimentConfig(
            dataset="facebook", repetitions=2, scale=0.1, algorithms=algorithms
        )
        with pytest.raises(ExperimentError, match="suite recorded"):
            run_paper_table(4, config)
        assert calls == [(baselines_built, baselines_built)]
