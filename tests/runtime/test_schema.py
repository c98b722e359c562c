"""Tests for the runtime configuration schema (repro.runtime.schema)."""

import pytest

from repro.common import ConfigError
from repro.runtime import Caliper, VirtualClock, validate_config
from repro.runtime.services.base import Service, ServiceRegistry


class TestValidateConfig:
    def test_known_keys_pass_through(self):
        cfg = {
            "services": ["event", "timer", "aggregate"],
            "config_check": True,
            "aggregate.config": "AGGREGATE count GROUP BY function",
            "timer.inclusive": True,
            "netflush.batch_size": 64,
        }
        assert validate_config(cfg) == cfg

    def test_unknown_top_level_key_raises(self):
        with pytest.raises(ConfigError, match="unknown config key 'serivces'"):
            validate_config({"serivces": ["event"]})

    def test_unknown_key_suggests_close_match(self):
        with pytest.raises(ConfigError, match="did you mean 'services'"):
            validate_config({"serivces": ["event"]})

    def test_unknown_service_option_raises(self):
        with pytest.raises(ConfigError, match="service 'timer' has no option 'offsets'"):
            validate_config({"timer.offsets": True})

    def test_unknown_service_option_suggests(self):
        with pytest.raises(ConfigError, match="did you mean 'timer.inclusive'"):
            validate_config({"timer.inclusiv": True})

    @pytest.mark.parametrize(
        "key",
        [
            "snapshot_fastpath",
            "aggregate.fold_plan",
            "aggregate.key_cache",
            "aggregate.key_strategy",
            "timer.trim_hooks",
        ],
    )
    def test_deleted_hot_path_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            validate_config({key: True})

    def test_old_spelling_gets_the_did_you_mean_error(self):
        with pytest.raises(ConfigError, match="did you mean 'netflush.batch_size'"):
            validate_config({"netflush.batch": 8})

    def test_custom_service_keys_allowed(self):
        class NullService(Service):
            name = "nullsvc"

        registry = ServiceRegistry()
        registry.register(NullService)
        out = validate_config(
            {"services": ["nullsvc"], "nullsvc.anything": "goes"}, registry
        )
        assert out["nullsvc.anything"] == "goes"

    def test_custom_service_prefix_rejected_without_registry(self):
        with pytest.raises(ConfigError):
            validate_config({"nullsvc.anything": "goes"})


class TestChannelIntegration:
    def test_channel_rejects_unknown_key(self):
        cali = Caliper(clock=VirtualClock())
        with pytest.raises(ConfigError, match="aggregate"):
            cali.create_channel("bad", {"services": ["aggregate"], "aggregate.cfg": "x"})

    def test_config_check_false_bypasses_validation(self):
        cali = Caliper(clock=VirtualClock())
        chan = cali.create_channel(
            "loose", {"config_check": False, "totally.unknown": 1, "services": []}
        )
        assert chan.config.get_int("totally.unknown") == 1
