"""ServiceConfig: ``repro-osn serve``'s flags fail at parse time, not at boot.

Every knob is validated in ``__post_init__`` so a bad combination is a
:class:`ConfigurationError` before the graph is synthesised and
published.  The graph store is one of the two buffer stores a served
graph can live in: ``shm`` (the default) or ``ram``.
"""

import pytest

from repro.exceptions import ConfigurationError
from repro.graph.store import GRAPH_STORES
from repro.service import ServiceConfig


class TestDefaults:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.dataset == "facebook"
        assert config.graph_store == "shm"
        assert config.burn_in is None
        assert config.deadline_ms is None
        assert config.snapshot_path is None

    def test_millisecond_knobs_convert_to_seconds(self):
        config = ServiceConfig(
            batch_window_ms=5.0, breaker_cooldown_ms=250.0, snapshot_interval_ms=1500.0
        )
        assert config.window_seconds == pytest.approx(0.005)
        assert config.breaker_cooldown_seconds == pytest.approx(0.25)
        assert config.snapshot_interval_seconds == pytest.approx(1.5)


class TestGraphStore:
    @pytest.mark.parametrize("store", ["ram", "shm"])
    def test_both_buffer_stores_serve(self, store):
        assert store in GRAPH_STORES
        assert ServiceConfig(graph_store=store).graph_store == store

    @pytest.mark.parametrize("store", ["mmap", "tape"])
    def test_any_other_store_is_refused(self, store):
        with pytest.raises(ConfigurationError, match="unknown graph store"):
            ServiceConfig(graph_store=store)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"dataset": "myspace"}, "unknown dataset"),
            ({"scale": 0.0}, "scale"),
            ({"port": -1}, "port"),
            ({"port": 65536}, "port"),
            ({"batch_window_ms": -1.0}, "batch_window_ms"),
            ({"cache_size": -1}, "cache_size"),
            ({"repetitions": 0}, "repetitions"),
            ({"burn_in": -1}, "burn_in"),
            ({"deadline_ms": 0.0}, "deadline_ms"),
            ({"max_in_flight": 0}, "max_in_flight"),
            ({"breaker_threshold": 0}, "breaker_threshold"),
            ({"breaker_cooldown_ms": -1.0}, "breaker_cooldown_ms"),
            ({"snapshot_interval_ms": 0.0}, "snapshot_interval_ms"),
            ({"faults": "nonsense"}, "fault"),
        ],
    )
    def test_bad_value_is_refused_eagerly(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            ServiceConfig(**overrides)

    def test_edge_values_are_accepted(self):
        config = ServiceConfig(
            port=0,
            batch_window_ms=0.0,
            cache_size=0,
            burn_in=0,
            breaker_cooldown_ms=0.0,
        )
        assert config.port == 0 and config.cache_size == 0 and config.burn_in == 0
        assert ServiceConfig(port=65535).port == 65535
