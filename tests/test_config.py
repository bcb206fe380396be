import argparse
import dataclasses
import glob
import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from uavfl import harness
from uavfl.channel import capacity, channel_gain, link_geometry
from uavfl.cli import build_parser
from uavfl.config import ExperimentConfig, config_from_dict, load_config
from uavfl.errors import ConfigError
from uavfl.learning import ModelSpec
from uavfl.similarity import SsimParams

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")
CALIBRATED = os.path.join(CONFIGS, "scenario1_calibrated.json")
SCENARIO2 = os.path.join(CONFIGS, "scenario2.json")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


class TestPresets:
    """The paper's two fleets: scenario 1 is the defaults, scenario 2 a config file."""

    def test_scenario1(self):
        c = ExperimentConfig()
        assert (c.n_uavs, c.cohort_size, c.subregion_count,
                c.per_subregion_quota, c.n_rounds_max) == (40, 10, 10, 1, 200)

    def test_scenario2(self):
        c = load_config(SCENARIO2)
        assert (c.n_uavs, c.cohort_size, c.subregion_count,
                c.per_subregion_quota, c.n_rounds_max) == (100, 20, 10, 2, 200)
        # run_experiment re-validates through replace with every field set
        r = dataclasses.replace(c, strategy="random")
        assert (r.n_uavs, r.cohort_size, r.strategy) == (100, 20, "random")

    @pytest.mark.parametrize("key,value", [
        ("scenario", "scenario1"), ("scenario", "scenario2"), ("scenario", "custom"),
        ("stop_on_convergence", False), ("stop_on_convergence", True),
        ("output_dir", "out"),  # where a run writes is --out, not part of config_hash
        # formula constants, now similarity.C1/C2 and datagen.N_WAVES/FREQ_MAX
        ("ssim.k1", 0.01), ("ssim.k2", 0.03),
        ("generator.n_waves", 12), ("generator.freq_max", 6.0),
    ])
    def test_removed_mode_key_fails_at_load(self, tmp_path, key, value):
        section, _, name = key.rpartition(".")
        if section:
            data, match = {section: {name: value}}, f"^{section}: unknown keys \\['{name}'\\]$"
        else:
            data, match = {key: value}, f"^unknown config keys \\['{key}'\\]$"
        with pytest.raises(ConfigError, match=match):
            config_from_dict(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=match):
            load_config(str(path))

    def test_custom_fills_missing_fleet_fields_from_scenario1(self):
        c = ExperimentConfig(n_rounds_max=3)
        assert (c.n_uavs, c.cohort_size, c.subregion_count, c.per_subregion_quota,
                c.n_rounds_max) == (40, 10, 10, 1, 3)
        c = config_from_dict({"n_rounds_max": 3})
        assert (c.n_uavs, c.cohort_size, c.n_rounds_max) == (40, 10, 3)
        with pytest.raises(ConfigError, match="^n_uavs: expected int, got float"):
            ExperimentConfig(n_uavs=40.0)
        with pytest.raises(ConfigError, match="^n_rounds_max: expected int, got float"):
            ExperimentConfig(n_rounds_max=200.0)  # equal to the default, still not an int

    def test_custom_keeps_fields(self):
        c = ExperimentConfig(n_uavs=4, cohort_size=2, subregion_count=2,
                             per_subregion_quota=1, n_rounds_max=3)
        assert c.n_uavs == 4 and c.n_rounds_max == 3

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="greedy")

    def test_quota_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(cohort_size=3, subregion_count=2, per_subregion_quota=1)


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

    @pytest.mark.parametrize("section,name,value", [
        (None, "workers", 0), ("battery", "min_j", 1e9), ("geometry", "region_m", -50.0)])
    def test_loaded_config_cannot_change(self, section, name, value):
        # an assignment after load would skip every check the value must pass
        c = config_from_dict({})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c if section is None else getattr(c, section), name, value)
        assert c == ExperimentConfig()

    @pytest.mark.parametrize("section,values", [
        ("generator", {"redundancy": 2.0}),
        ("channel", {"beta0": 0}),
        ("ssim", {"max_pairs": 0}),
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
        ("geometry", {"region_m": 0.0}),
        ("geometry", {"uav_altitude_m": -1.0}),
        ("geometry", {"bs_altitude_m": -0.5}),
        ("battery", {"min_j": 20.0, "max_j": 10.0}),
        ("battery", {"min_j": -1.0}),
        ("battery", {"min_j": 0.0, "max_j": 0.0}),
        ("model", {"adam_eps": 0.0}),
        ("model", {"adam_eps": -1e-8}),
        ("generator", {"offset_span": -1}),
        ("cost", {"tx_power_w": 0}),  # no uplink rate; before, this failed mid-build
        ("cost", {"tx_power_w": -0.5}),
        ("model", {"learning_rate": float("nan")}),  # before, NaN failed after round 1
        ("model", {"learning_rate": float("inf")}),
        ("geometry", {"uav_altitude_m": float("nan")}),
        ("channel", {"a3": float("-inf")}),
        ("channel", {"a3": 1e12}),  # before, math.exp overflowed with a bare OverflowError
        ("cost", {"cpu_hz": 1e300}),  # before, cpu_hz**3 overflowed after data generation
        ("generator", {"walk_weight": 1.5}),
        ("generator", {"block_min": 0}),
        ("ssim", {"max_pairs": -1}),
        ("ssim", {"max_pairs": True}),  # a JSON bool is no int
        ("ssim", {"max_pairs": None}),  # nor is null
        # each of these used to load and then fail late, or with a traceback
        ("channel", {"a3": 1.7e308}),  # exp(inf) is inf, where exp(1e12) raised
        ("channel", {"a2": -1e30}),  # before, OverflowError in channel_gain
        ("channel", {"bandwidth_hz": 5e-324}),  # before, ZeroDivisionError in capacity
        ("channel", {"beta0": 1e-300}),  # before, a zero link rate failed after all data
        ("battery", {"max_j": 1.7e308}),  # the fleet's total charge overflowed
        # reach rounds to 0 and the altitudes are equal: the corner is the BS
        ("geometry", {"region_m": 5e-324, "uav_altitude_m": 30.0, "bs_altitude_m": 30.0}),
    ])
    def test_bad_section_value_fails_at_load(self, section, values):
        with pytest.raises(ConfigError, match=f"^{section}: "):
            config_from_dict({section: values})


# the smallest valid custom fleet: 2 sub-regions of quota 1
CUSTOM = {"n_uavs": 2, "cohort_size": 2, "subregion_count": 2,
          "per_subregion_quota": 1, "n_rounds_max": 3}


class TestFleetAtLoad:
    """The experiment's own values are checked when the config loads, before
    any data is generated."""

    @pytest.mark.parametrize("key,value", [
        ("n_rounds_max", 0), ("per_subregion_quota", 0), ("subregion_count", 0),
        ("convergence_window", 0), ("convergence_window", -2),
        ("xi", -0.1), ("xi", 1.5),
        ("ssim_threshold", 0.0), ("ssim_threshold", 1.0), ("ssim_threshold", 1.5),
        ("convergence_tol", 0.0), ("convergence_tol", -1.0),
        ("master_seed", -1),
    ])
    def test_out_of_range_value_fails_at_load(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must"):
            config_from_dict({**CUSTOM, key: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_fails_at_load(self, value):
        with pytest.raises(ConfigError, match="^xi: must be finite"):
            config_from_dict({**CUSTOM, "xi": value})
        with pytest.raises(ConfigError, match="^model: learning_rate: must be finite"):
            config_from_dict({**CUSTOM, "model": {"learning_rate": value}})

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


def powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


class TestLinkBudgetAtLoad:
    """The load-time corners bound the link rate of every placement."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(beta0=powers_of_ten(-300, 0), a1=powers_of_ten(-3, 5),
           a2=st.floats(-50.0, 50.0), a3=st.floats(-1.0, 20.0), a4=powers_of_ten(-3, 3),
           bandwidth=powers_of_ten(-300, 12), region=powers_of_ten(-300, 300),
           uav_altitude=st.one_of(st.just(30.0), powers_of_ten(-300, 300)),
           fractions=st.lists(st.tuples(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
                                        st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0)),
                              min_size=1, max_size=20))
    def test_every_placement_of_a_loading_config_has_a_finite_positive_rate(
            self, beta0, a1, a2, a3, a4, bandwidth, region, uav_altitude, fractions):
        try:
            c = config_from_dict({"channel": {"beta0": beta0, "a1": a1, "a2": a2, "a3": a3,
                                              "a4": a4, "bandwidth_hz": bandwidth},
                                  "geometry": {"region_m": region,
                                               "uav_altitude_m": uav_altitude}})
        except ConfigError:
            return
        geo = c.geometry
        if geo.uav_altitude_m == geo.bs_altitude_m:
            fractions = [(0.0, 0.0)]  # links get arbitrarily short: only the farthest is bounded
        centre = geo.region_m / 2.0
        for fx, fy in fractions:
            # as build_scenario places a UAV: uniform on [0, region_m), the BS at the centre
            h = channel_gain(link_geometry(fx * geo.region_m - centre, fy * geo.region_m - centre,
                                           geo.uav_altitude_m - geo.bs_altitude_m), c.channel)
            for power in (c.cost.tx_power_w, c.channel.bs_tx_power_w):
                rate = capacity(h, power, c.channel)
                assert math.isfinite(rate) and rate > 0


class TestLoadAndHash:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_uavs": 4, "cohort_size": 2, "subregion_count": 2,
                                    "per_subregion_quota": 1, "master_seed": 9}))
        c = load_config(str(path))
        assert c.n_uavs == 4 and c.master_seed == 9

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_fails_at_load(self, tmp_path, constant):
        # Python's json accepts these constants; the config loader does not
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"learning_rate": %s}}' % constant)
        with pytest.raises(ConfigError, match=f"holds {constant}; every number must be finite"):
            load_config(str(path))

    def test_shipped_calibrated_config_parses(self):
        c = load_config(CALIBRATED)
        assert (c.n_uavs, c.cohort_size) == (40, 10)
        assert c.n_rounds_max <= 200
        shipped = sorted(glob.glob(os.path.join(CONFIGS, "*.json")))
        assert CALIBRATED in shipped and SCENARIO2 in shipped
        for path in shipped:
            assert load_config(path).n_rounds_max <= 200, path

    @pytest.mark.parametrize("text,message", [
        ('{"workers": true}', "^workers: expected int, got bool$"),
        ('{"xi": false}', "^xi: expected float, got bool$"),
        ('{"model": {"hidden_dim": true}}', "^model: hidden_dim: expected int, got bool$"),
    ], ids=["workers", "xi", "hidden_dim"])
    def test_json_bool_for_a_number_fails_at_load(self, tmp_path, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))

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

    def test_random_hash_leaves_out_what_only_deeps_reads(self):
        random = ExperimentConfig(strategy="random")
        for changes in ({"ssim_threshold": 0.3}, {"xi": 0.2},
                        {"ssim": SsimParams(max_pairs=7)}):
            assert dataclasses.replace(random, **changes).config_hash() == random.config_hash()
            assert dataclasses.replace(random, **changes).to_dict() != random.to_dict()
            deeps = ExperimentConfig()
            assert dataclasses.replace(deeps, **changes).config_hash() != deeps.config_hash()
        assert random.config_hash() != ExperimentConfig().config_hash()
        assert dataclasses.replace(random, master_seed=1).config_hash() != random.config_hash()

    def test_model_section_is_the_modelspec(self):
        c = config_from_dict({"model": {"hidden_dim": 5}})
        assert c.model == ModelSpec(hidden_dim=5)
        assert (c.model.batch_size, c.model.param_count(64)) == (32, 64 * 5 + 2 * 5 + 1)

    def test_hash_is_pinned(self):
        # digests of the serialised defaults and of the calibrated config; a
        # change here means metadata.json no longer matches earlier runs
        assert ExperimentConfig().config_hash() == \
            "440e0923fa05b30d1151285badc15b3dc121271d7436e77b5d9f78866f420c38"
        assert load_config(CALIBRATED).config_hash() == \
            "f5a552647606495d8b76b6266b4c7bcd50224d69fd9ac904c3e9b76be8d9d2d8"


def test_readme_names_every_config_key():
    """README's Configuration section names each top-level field and section
    in backticks, so it cannot keep a removed key or miss a new one."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    missing = [f.name for f in dataclasses.fields(ExperimentConfig)
               if f"`{f.name}`" not in section]
    assert missing == []


def test_readme_names_every_cli_flag():
    """README names each option of each subcommand in backticks, so it cannot
    keep a removed flag or miss a new one."""
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    flags = {flag for sub in subparsers.choices.values() for action in sub._actions
             for flag in action.option_strings if flag.startswith("--") and flag != "--help"}
    assert {"--config", "--strategy", "--out"} <= flags  # both subcommands were walked
    assert [flag for flag in sorted(flags) if f"`{flag}`" not in readme] == []
