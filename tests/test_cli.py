import json
import os
import subprocess
import sys

import pytest

from test_harness import TINY, table_rows, tiny_config
from uavfl import harness
from uavfl.cli import _load, build_parser, main
from uavfl.config import ExperimentConfig

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_no_config_file_takes_the_defaults(self):
        args = build_parser().parse_args(["run", "--seed", "3", "--workers", "2"])
        assert _load(args) == ExperimentConfig(master_seed=3, workers=2)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_subcommands_share_four_flags(self, command):
        args = build_parser().parse_args([command])
        assert (args.config, args.seed, args.out, args.workers) == (None, None, "out", None)
        args = build_parser().parse_args([command, "--config", "c.json", "--seed", "4",
                                          "--out", "o", "--workers", "2"])
        assert (args.config, args.seed, args.out, args.workers) == ("c.json", 4, "o", 2)

    def test_module_help(self):
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "uavfl", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "run" in proc.stdout and "compare" in proc.stdout

    @pytest.mark.parametrize("command", ["gen-data", "dedup-report"])
    def test_removed_subcommand_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command])
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRun:
    @pytest.mark.parametrize("strategy", ["deeps", "random"])
    def test_run_writes_what_one_experiment_emits(self, tiny_config_file, tmp_path, capsys,
                                                  strategy):
        want = tmp_path / "want"
        want.mkdir()
        config = tiny_config(strategy=strategy)
        summary = harness.run_experiment(config)
        harness.emit_csv(summary.records, str(want / f"rounds_{summary.label}.csv"))
        harness.emit_run_json(summary, str(want / f"run_{summary.label}.json"))
        harness.emit_summary_csv([summary], str(want / "summary.csv"))
        harness.emit_metadata(config, str(want / "metadata.json"))

        out = tmp_path / "out"
        assert main(["run", "--config", tiny_config_file, "--strategy", strategy,
                     "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(os.listdir(want))
        for name in os.listdir(want):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_run_writes_artifacts(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", "--config", tiny_config_file, "--out", out])
        assert code == 0
        assert table_rows(capsys) == [["deeps(0.5)", "3"]]
        for name in ("rounds_deeps_th0.5.csv", "summary.csv", "metadata.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_out_is_not_part_of_the_config_hash(self, tiny_config_file, tmp_path, capsys):
        hashes = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["run", "--config", tiny_config_file, "--out", str(out)]) == 0
            with open(out / "metadata.json", encoding="utf-8") as fh:
                hashes.append(json.load(fh)["config_hash"])
        assert hashes[0] == hashes[1]

    def test_random_run_hash_ignores_the_ssim_threshold(self, tiny_config_file, tmp_path,
                                                         capsys):
        runs = []
        for out, extra in ((tmp_path / "a", []), (tmp_path / "b", ["--ssim-th", "0.3"])):
            assert main(["run", "--config", tiny_config_file, "--strategy", "random",
                         "--out", str(out), *extra]) == 0
            with open(out / "metadata.json", encoding="utf-8") as fh:
                meta = json.load(fh)
            runs.append((meta["config_hash"], meta["config"]["ssim_threshold"],
                         (out / "rounds_random.csv").read_bytes()))
        (hash_a, th_a, csv_a), (hash_b, th_b, csv_b) = runs
        assert csv_a == csv_b and hash_a == hash_b
        assert (th_a, th_b) == (0.5, 0.3)  # the config block keeps every field

    def test_cli_overrides(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", "--config", tiny_config_file, "--strategy", "random",
                     "--seed", "9", "--out", out])
        assert code == 0
        assert table_rows(capsys) == [["random", "3"]]
        meta = json.load(open(os.path.join(out, "metadata.json")))
        assert meta["master_seed"] == 9

    @pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--workers", "-3"),
                                            ("--ssim-th", "1.5"), ("--seed", "-1")])
    def test_bad_override_is_one_line_error(self, tiny_config_file, tmp_path, capsys,
                                            flag, value):
        out = str(tmp_path / "out")
        code = main(["run", "--config", tiny_config_file, "--out", out, flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "metadata.json"))

    def test_unknown_strategy_is_one_line_error(self, tiny_config_file, tmp_path, capsys):
        # the config, not the parser, owns the strategy names
        out = tmp_path / "out"
        code = main(["run", "--config", tiny_config_file, "--strategy", "foo", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "uavfl: error: unknown strategy 'foo'\n"
        assert not os.path.exists(out)

    def test_random_without_a_round_one_cohort_is_one_line_error(self, tmp_path, capsys):
        # three of TINY's four UAVs start below their round-1 cost: one cannot
        # make a cohort of two
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "battery": {"min_j": 0.0, "max_j": 0.03}}))
        out = str(tmp_path / "out")
        code = main(["run", "--config", str(path), "--strategy", "random", "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "uavfl: error: 1 alive UAVs < cohort size 2\n"
        assert not os.path.exists(os.path.join(out, "metadata.json"))

    def test_empty_test_pool_is_one_line_error(self, tmp_path, capsys):
        # 40-45 samples at 1% round every UAV's test split to 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "generator": {**TINY["generator"], "samples_max": 45,
                                                          "test_fraction": 0.01}}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: generator.test_fraction 0.01 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("learning_rate,workers",
                             [(1.7e308, 1), (1e300, 1), (1.7e308, 2), (1e300, 2)],
                             ids=["1.7e+308", "1e+300", "1.7e+308-pool", "1e+300-pool"])
    def test_overflowing_model_is_one_line_error(self, tmp_path, learning_rate, workers):
        # the first overflows aggregate's mean, the second the evaluation's
        # activations; training runs inside aggregate, at workers 2 on pool
        # threads whose errors come back through Future.result(); a fresh
        # process, because pytest records warnings instead of printing them
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "strategy": "deeps", "workers": workers,
                                    "model": {"learning_rate": learning_rate}}))
        env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "uavfl", "run", "--config", str(path),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("uavfl: error: ") and proc.stderr.count("\n") == 1

    def test_empty_test_pool_fails_before_any_data_is_made(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "generate_uav_dataset",
                            lambda *args: calls.append(args))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "generator": {**TINY["generator"], "samples_max": 45,
                                                          "test_fraction": 0.01}}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert calls == []

    @pytest.mark.parametrize("values", [{"workers": "2"}, {"model": {"hidden_dim": "x"}},
                                        {"generator": {"image_side": 8.5}}],
                             ids=["workers", "model", "float-for-int"])
    def test_wrong_typed_config_value_is_one_line_error(self, tmp_path, capsys, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, **values}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: ") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("values", [
        {"n_uavs": 3, "cohort_size": 4, "subregion_count": 4},
        {"xi": 1.5}, {"ssim_threshold": 1.5}, {"n_rounds_max": 0},
        {"convergence_window": 0}, {"convergence_window": -2},
        {"battery": {"min_j": 20.0, "max_j": 10.0}}, {"convergence_tol": 0.0},
        {"scenario": "scenario1"}, {"stop_on_convergence": True}, {"output_dir": "out"},
        {"master_seed": -1}, {"model": {"adam_eps": 0.0}},
        {"generator": {**TINY["generator"], "offset_span": -1}},
        {"ssim": {**TINY["ssim"], "k1": 0.01}},
    ], ids=["fleet", "xi", "ssim_threshold", "n_rounds_max", "window-0", "window-neg",
            "battery", "convergence_tol", "scenario-key", "stop_on_convergence-key",
            "output_dir-key", "master_seed", "adam_eps", "offset_span", "ssim.k1-key"])
    def test_unusable_experiment_is_one_line_error(self, tmp_path, capsys, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, **values}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: ") and err.count("\n") == 1
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("text,flags", [
        ('"model": {"learning_rate": NaN}', []),
        ('"model": {"learning_rate": Infinity}', []),
        ('"cost": {"tx_power_w": 0}', []),
        ('"master_seed": 1', ["--ssim-th", "nan"]),
        ('"channel": {"a3": 1e12}', []),
        ('"cost": {"cpu_hz": 1e300}', []),
        ('"cost": {"chip_coeff": 1e300}', []),
        ('"battery": {"max_j": 1.7e308}', []),
        ('"geometry": {"region_m": 5e-324, "uav_altitude_m": 30.0, "bs_altitude_m": 30.0}', []),
        ('"channel": {"a3": 1.7e308}', []),
        ('"channel": {"a2": -1e30}', []),
        ('"channel": {"bandwidth_hz": 5e-324}', []),
        ('"channel": {"beta0": 1e-300}', []),
    ], ids=["nan-constant", "infinity-constant", "tx_power_w-0", "nan-override",
            "a3-overflow", "cpu_hz-overflow", "cpu_power-overflow", "fleet_charge-overflow",
            "corner-at-bs", "a3-inf-exponent", "a2-overflow", "noise-underflow", "dead-link"])
    def test_non_finite_or_silent_config_is_one_line_error(self, tmp_path, capsys, text,
                                                            flags):
        # each of these used to load and fail only after data was generated
        path = tmp_path / "cfg.json"
        path.write_text('{%s}' % text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: ") and err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "malformed"])
    def test_unreadable_config_is_one_line_error(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        if content is not None:
            path.write_text(content)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: ") and err.count("\n") == 1
        assert str(path) in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_empty_config_path_is_unreadable(self, tmp_path, capsys, monkeypatch, command):
        # an empty path names no file; it must not fall back to the defaults
        for name in ("build_scenario", "run_experiment"):
            monkeypatch.setattr(harness, name, no_work)
        out = tmp_path / "out"
        code = main([command, "--config", "", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: cannot read config ") and err.count("\n") == 1
        assert not os.path.exists(out)


def no_work(*args, **kwargs):
    raise AssertionError("work started before the command's inputs were checked")


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
def test_unusable_out_fails_before_any_work(tiny_config_file, tmp_path, capsys,
                                            monkeypatch, command, out):
    (tmp_path / "file").write_text("")
    for name in ("build_scenario", "run_experiment"):
        monkeypatch.setattr(harness, name, no_work)
    code = main([command, "--config", tiny_config_file, "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("uavfl: error: cannot create output directory ")
    assert err.count("\n") == 1


class TestCompare:
    def test_compare_writes_three_runs(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "cmp")
        code = main(["compare", "--config", tiny_config_file, "--out", out])
        assert code == 0
        assert "lambda_t" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "rounds_random.csv"))

