"""End-to-end serving-layer contracts (the ISSUE's acceptance criteria).

The load-bearing property: an estimate served through the long-lived
service — published graph, answer cache, shared max-budget fleets — is
**bit-identical** to what the batch harness
(:func:`repro.experiments.runner.run_trials_prefix`, the engine behind
the CLI tables) produces for the same query at the same user seed.
"""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ExperimentError, GraphError
from repro.experiments.algorithms import build_algorithm_suite
from repro.experiments.runner import run_trials_prefix
from repro.service import EstimationService
from repro.service.planner import EstimateQuery
from repro.utils.rng import derive_seed

BURN_IN = 5  # matches the conftest fixtures
USER_SEED = 7


def build_serving_graph(rng: int = 7):
    # Mirrors the conftest builder; a fresh, unfrozen copy per call so
    # swap/standalone tests can publish without touching the fixture.
    from repro.datasets.labeling import assign_binary_labels
    from repro.datasets.synthetic import powerlaw_cluster_osn

    graph = powerlaw_cluster_osn(250, 5, 0.3, rng=rng)
    assign_binary_labels(graph, 0.5, labels=(1, 2), rng=rng + 1)
    return graph


def _query(**overrides) -> dict:
    fields = dict(
        algorithm="NeighborSample-HH", t1=1, t2=2, budget=20,
        seed=USER_SEED, repetitions=6, burn_in=BURN_IN,
    )
    fields.update(overrides)
    return fields


class TestBitIdentityWithBatchHarness:
    @pytest.mark.parametrize("algorithm", ["NeighborSample-HH", "EX-RW"])
    def test_served_answer_matches_run_trials_prefix(
        self, serving_graph, shm_service, algorithm
    ):
        # Service path: published shm graph, micro-batch engine.
        answer = shm_service.estimate(_query(algorithm=algorithm, budget=30))

        # Batch path: the harness walks at the derived group seed (what
        # compare_algorithms passes down for the same user seed).
        suite = build_algorithm_suite(serving_graph, include_baselines=True)
        [outcome] = run_trials_prefix(
            serving_graph, 1, 2, suite[algorithm], algorithm,
            [30], 6, BURN_IN,
            seed=derive_seed(USER_SEED, algorithm, "prefix"),
        )
        assert answer.estimates == outcome.estimates
        assert answer.api_calls == outcome.api_calls
        assert answer.true_count == outcome.true_count

    def test_prefix_answers_match_standalone_budgets(self, shm_service):
        # One coalesced batch at mixed budgets vs fresh single-budget
        # fleets: prefix-reuse exactness through the whole service stack.
        budgets = [10, 25, 40]
        batch = shm_service.estimate_many(
            [_query(budget=budget) for budget in budgets]
        )
        fleets_after_batch = shm_service.fleets_built
        assert fleets_after_batch == 1  # one walk answered all three

        with EstimationService(
            build_serving_graph(), graph_store="ram", cache_size=0,
            default_burn_in=BURN_IN, name="standalone",
        ) as standalone:
            for answer, budget in zip(batch, budgets):
                single = standalone.estimate(_query(budget=budget))
                assert answer.estimates == single.estimates
                assert answer.api_calls == single.api_calls


class TestAnswerCache:
    def test_repeat_query_hits_the_cache(self, shm_service):
        first = shm_service.estimate(_query())
        second = shm_service.estimate(_query())
        assert first.cached is False
        assert second.cached is True
        assert second.estimates == first.estimates
        assert shm_service.stats()["cache"]["hit_rate"] > 0
        assert shm_service.fleets_built == 1  # the repeat did not walk

    def test_cache_disabled_walks_every_time(self, serving_graph):
        with EstimationService(
            serving_graph, graph_store="ram", cache_size=0,
            default_burn_in=BURN_IN, name="uncached",
        ) as service:
            service.estimate(_query())
            second = service.estimate(_query())
            assert second.cached is False
            assert service.fleets_built == 2

    def test_swap_graph_invalidates_cached_answers(self, serving_graph):
        with EstimationService(
            serving_graph, graph_store="shm", default_burn_in=BURN_IN,
            name="swapped",
        ) as service:
            before = service.estimate(_query())
            assert service.graph_version == 1

            version = service.swap_graph(build_serving_graph(rng=99))
            assert version == 2
            after = service.estimate(_query())
            # fresh walk against the new publication, not a cache echo
            assert after.cached is False
            assert after.graph_version == 2
            assert before.graph_version == 1
            assert service.stats()["cache"]["invalidations"] == 1


class TestReadOnlyServing:
    def test_source_graph_is_frozen_at_publish(self, serving_graph, shm_service):
        with pytest.raises(GraphError, match="read-only"):
            serving_graph.add_edge(0, 1)
        assert "estimation service" in serving_graph.frozen

    def test_serving_buffers_are_sealed(self, shm_service):
        csr = shm_service.csr
        assert csr.sealed is not None
        with pytest.raises(ValueError, match="read-only"):
            csr.indices[0] = 0


class TestStores:
    def test_mmap_store_serves_identically_to_shm(self, shm_service):
        with EstimationService(
            build_serving_graph(), graph_store="mmap",
            default_burn_in=BURN_IN, name="mmap-served",
        ) as mapped:
            assert mapped.csr.store == "mmap"
            answer = mapped.estimate(_query(budget=30))
            reference = shm_service.estimate(_query(budget=30))
            assert answer.estimates == reference.estimates

    def test_array_native_graph_serves_without_conversion(self):
        # CSRGraph input (label_array already flat) skips the dict path.
        source = build_serving_graph()
        from repro.graph.csr import csr_view
        from repro.service.core import publishable_csr_view

        csr = publishable_csr_view(csr_view(source))
        assert isinstance(csr.label_array(), np.ndarray)
        with EstimationService(
            csr, graph_store="shm", default_burn_in=BURN_IN, name="array",
        ) as service:
            answer = service.estimate(_query(budget=15))
            assert len(answer.estimates) == 6


class TestValidation:
    def test_unknown_field_rejected(self, ram_service):
        with pytest.raises(ConfigurationError, match="unknown query fields"):
            ram_service.estimate(_query(bogus=1))

    def test_missing_labels_rejected(self, ram_service):
        with pytest.raises(ConfigurationError, match="t1 and t2"):
            ram_service.estimate({"budget": 10})

    def test_missing_budget_rejected(self, ram_service):
        with pytest.raises(ConfigurationError, match="budget"):
            ram_service.estimate({"t1": 1, "t2": 2})

    def test_non_positive_budget_rejected(self, ram_service):
        with pytest.raises(ConfigurationError):
            ram_service.estimate(_query(budget=0))

    def test_budget_is_capped_at_the_node_count(self, ram_service):
        num_nodes = ram_service.csr.num_nodes
        assert ram_service.normalize_query(_query(budget=num_nodes)).budget == num_nodes
        with pytest.raises(ConfigurationError, match="budget"):
            ram_service.normalize_query(_query(budget=num_nodes + 1))

    def test_negative_burn_in_rejected(self, ram_service):
        with pytest.raises(ConfigurationError, match="burn_in"):
            ram_service.estimate(_query(burn_in=-1))

    def test_unknown_algorithm_rejected(self, ram_service):
        with pytest.raises(ConfigurationError, match="servable"):
            ram_service.estimate(_query(algorithm="NoSuchAlgorithm"))

    def test_zero_target_pair_raises_experiment_error(self, ram_service):
        with pytest.raises(ExperimentError, match="no target edges"):
            ram_service.estimate(_query(t1="ghost", t2="ghost"))

    def test_defaults_filled_from_service(self, ram_service):
        answer = ram_service.estimate({"t1": 1, "t2": 2, "budget": 10})
        assert answer.repetitions == ram_service.default_repetitions
        assert answer.burn_in == ram_service.default_burn_in
        assert answer.algorithm == "NeighborSample-HH"

    def test_typed_queries_accepted(self, ram_service):
        query = EstimateQuery(
            "NeighborSample-HH", 1, 2, budget=12, seed=USER_SEED,
            repetitions=6, burn_in=BURN_IN,
        )
        answer = ram_service.estimate(query)
        assert answer.budget == 12


class TestAnswerPayload:
    def test_to_dict_is_json_ready(self, ram_service):
        import json

        answer = ram_service.estimate(_query())
        payload = json.loads(json.dumps(answer.to_dict()))
        assert payload["budget"] == 20
        assert payload["nrmse"] >= 0
        assert len(payload["api_calls"]) == 6

    def test_stats_snapshot_is_json_ready(self, ram_service):
        import json

        ram_service.estimate(_query())
        stats = json.loads(json.dumps(ram_service.stats()))
        assert stats["graph"]["num_nodes"] == 250
        assert stats["fleets"]["steps_per_second"] > 0
        assert stats["defaults"]["burn_in"] == BURN_IN
