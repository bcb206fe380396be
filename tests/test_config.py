import json
import os

import pytest

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
    ])
    def test_bad_section_value_fails_at_load(self, section, values):
        with pytest.raises(ConfigError, match=f"^{section}: "):
            config_from_dict({section: values})


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
