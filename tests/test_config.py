import json
import os

import pytest

from uavfl import harness
from uavfl.config import ExperimentConfig, config_from_dict, load_config
from uavfl.errors import ConfigError

CALIBRATED = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "scenario1_calibrated.json")


class TestPresets:
    def test_scenario1(self):
        c = ExperimentConfig(scenario="scenario1")
        assert (c.n_uavs, c.cohort_size, c.subregion_count,
                c.per_subregion_quota, c.n_rounds_max) == (40, 10, 10, 1, 200)

    def test_scenario2(self):
        c = ExperimentConfig(scenario="scenario2")
        assert (c.n_uavs, c.cohort_size, c.subregion_count,
                c.per_subregion_quota) == (100, 20, 10, 2)

    def test_preset_overrides_explicit_fields(self):
        c = ExperimentConfig(scenario="scenario1", n_uavs=7)
        assert c.n_uavs == 40

    def test_custom_keeps_fields(self):
        c = ExperimentConfig(scenario="custom", n_uavs=4, cohort_size=2,
                             subregion_count=2, per_subregion_quota=1,
                             n_rounds_max=3)
        assert c.n_uavs == 4 and c.n_rounds_max == 3

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="scenario9")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="greedy")

    def test_quota_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="custom", cohort_size=3,
                             subregion_count=2, per_subregion_quota=1)


class TestFromDict:
    def test_nested_sections(self):
        c = config_from_dict({"model": {"learning_rate": 0.001},
                              "battery": {"min_j": 10.0, "max_j": 20.0}})
        assert c.model.learning_rate == 0.001
        assert c.battery.min_j == 10.0
        assert c.model.batch_size == 32  # untouched default

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"learning_rate": 0.1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": {"lr": 0.1}})

    def test_nested_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict({"model": 3})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])

    @pytest.mark.parametrize("section,values", [
        ("generator", {"redundancy": 2.0}),
        ("channel", {"beta0": 0}),
        ("ssim", {"k1": 0}),
        ("cost", {"cpu_hz": 0}),
        ("generator", {"redundancy": "x"}),  # wrong type, not out of range
        ("workers", "2"),  # a top-level value of the wrong type
        ("model", {"hidden_dim": "x"}),
        ("model", {"batch_size": 0}),
        ("model", {"hidden_dim": 2.5}),  # a float for an int field
        ("model", {"batch_size": 2.5}),
        ("generator", {"image_side": 8.5}),
        ("cost", {"epochs_per_round": 1.5}),
        ("ssim", {"max_pairs": 2.5}),
    ])
    def test_bad_section_value_fails_at_load(self, section, values):
        with pytest.raises(ConfigError, match=f"^{section}: "):
            config_from_dict({section: values})


# the smallest valid custom fleet: 2 sub-regions of quota 1
CUSTOM = {"scenario": "custom", "n_uavs": 2, "cohort_size": 2, "subregion_count": 2,
          "per_subregion_quota": 1, "n_rounds_max": 3}


class TestFleetAtLoad:
    """The experiment's own values are checked when the config loads, before
    any data is generated."""

    @pytest.mark.parametrize("key,value", [
        ("n_rounds_max", 0), ("per_subregion_quota", 0), ("subregion_count", 0),
        ("convergence_window", 0), ("convergence_window", -2),
        ("xi", -0.1), ("xi", 1.5),
        ("ssim_threshold", 0.0), ("ssim_threshold", 1.0), ("ssim_threshold", 1.5),
    ])
    def test_out_of_range_value_fails_at_load(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must"):
            config_from_dict({**CUSTOM, key: value})

    def test_empty_scenario(self):
        with pytest.raises(ConfigError, match="n_uavs 0 < cohort_size 2"):
            config_from_dict({**CUSTOM, "n_uavs": 0})

    def test_quota_unsatisfiable(self):
        # 3 UAVs over 4 sub-regions leave sub-region 4 empty
        with pytest.raises(ConfigError, match="fewer UAVs than its quota"):
            config_from_dict({**CUSTOM, "n_uavs": 3, "cohort_size": 4, "subregion_count": 4})
        with pytest.raises(ConfigError, match="fewer UAVs than its quota"):
            config_from_dict({**CUSTOM, "n_uavs": 3, "cohort_size": 4, "per_subregion_quota": 2})

    def test_cohort_quota_mismatch(self):
        with pytest.raises(ConfigError, match="cohort_size must equal"):
            config_from_dict({**CUSTOM, "n_uavs": 3, "cohort_size": 3})

    def test_valid_scenario_passes(self):
        for n_uavs in (2, 3, 7):
            assert config_from_dict({**CUSTOM, "n_uavs": n_uavs}).n_uavs == n_uavs
        edges = config_from_dict({**CUSTOM, "xi": 0.0, "ssim_threshold": 1e-9,
                                  "convergence_window": 1})
        assert edges.xi == 0.0 and config_from_dict({**CUSTOM, "xi": 1}).xi == 1

    def test_calibrated_fleet_too_small_fails_before_data(self, monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data generated for an invalid config")

        monkeypatch.setattr(harness, "generate_uav_dataset", no_data)
        with pytest.raises(ConfigError, match="n_uavs 5 < cohort_size 10"):
            harness.run_experiment(load_config(CALIBRATED, n_uavs=5))


class TestLoadAndHash:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "custom", "n_uavs": 4,
                                    "cohort_size": 2, "subregion_count": 2,
                                    "per_subregion_quota": 1, "master_seed": 9}))
        c = load_config(str(path))
        assert c.n_uavs == 4 and c.master_seed == 9

    def test_shipped_calibrated_config_parses(self):
        c = load_config(CALIBRATED)
        assert (c.n_uavs, c.cohort_size) == (40, 10)
        assert c.n_rounds_max <= 200

    def test_overrides_apply_before_validation(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"master_seed": 9, "workers": 2}))
        assert load_config(str(path), master_seed=3).master_seed == 3
        with pytest.raises(ConfigError):
            load_config(str(path), workers=0)

    def test_hash_is_stable_and_sensitive(self):
        a = ExperimentConfig(master_seed=1)
        b = ExperimentConfig(master_seed=1)
        c = ExperimentConfig(master_seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_model_spec_derives_input_dim(self):
        c = config_from_dict({"generator": {"image_side": 8}, "model": {"hidden_dim": 5}})
        spec = c.model_spec()
        assert (spec.input_dim, spec.hidden_dim, spec.batch_size) == (64, 5, 32)

    def test_hash_is_pinned(self):
        # digests of the serialised defaults and of the calibrated config; a
        # change here means metadata.json no longer matches earlier runs
        assert ExperimentConfig().config_hash() == \
            "8cab36c5a2e52b7b52cb032c08409d64b810e9808944e5da3519c42b69d128e4"
        assert load_config(CALIBRATED).config_hash() == \
            "c453e2eec1c7f0f66a63038d36e7adf7a612b662067bb0c8d6f70274ad1ce726"
