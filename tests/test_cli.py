import hashlib
import json
import os

import numpy as np
import pytest

from test_harness import TINY
from uavfl import cli, harness
from uavfl.cli import build_parser, main
from uavfl.datagen import MANIFEST_HEADER, write_pgm


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


class TestRun:
    def test_run_writes_artifacts(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", "--config", tiny_config_file, "--out", out])
        assert code == 0
        assert "strategy=deeps_th0.5" in capsys.readouterr().out
        for name in ("rounds_deeps_th0.5.csv", "summary.csv", "metadata.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_cli_overrides(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", "--config", tiny_config_file, "--strategy", "random",
                     "--seed", "9", "--out", out])
        assert code == 0
        assert "strategy=random" in capsys.readouterr().out
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
        {"scenario": "scenario1"}, {"master_seed": -1}, {"model": {"adam_eps": 0.0}},
        {"generator": {**TINY["generator"], "offset_span": -1}},
    ], ids=["fleet", "xi", "ssim_threshold", "n_rounds_max", "window-0", "window-neg",
            "battery", "convergence_tol", "preset-conflict", "master_seed", "adam_eps",
            "offset_span"])
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
    ], ids=["nan-constant", "infinity-constant", "tx_power_w-0", "nan-override",
            "a3-overflow", "cpu_hz-overflow"])
    def test_non_finite_or_silent_config_is_one_line_error(self, tmp_path, capsys, text,
                                                            flags):
        # each of these used to load and fail only after data was generated
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "custom", %s}' % text)
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


def no_work(*args, **kwargs):
    raise AssertionError("work started before the command's inputs were checked")


@pytest.mark.parametrize("command", ["run", "compare", "gen-data"])
@pytest.mark.parametrize("out", ["file", "file/sub"], ids=["existing-file", "under-a-file"])
def test_unusable_out_fails_before_any_work(tiny_config_file, tmp_path, capsys,
                                            monkeypatch, command, out):
    (tmp_path / "file").write_text("")
    for module, name in ((cli, "run_experiment"), (harness, "build_scenario"),
                         (harness, "run_experiment"), (cli, "generate_uav_dataset")):
        monkeypatch.setattr(module, name, no_work)
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


class TestGenDataAndDedupReport:
    def test_gen_then_dedup_report(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "data")
        code = main(["gen-data", "--config", tiny_config_file, "--out", out])
        assert code == 0
        manifest = os.path.join(out, "manifest.csv")
        assert os.path.exists(manifest)
        n_rows = len(open(manifest).read().splitlines()) - 1
        assert n_rows > 0
        assert "wrote" in capsys.readouterr().out

        code = main(["dedup-report", "--manifest", manifest, "--ssim-th", "0.5"])
        assert code == 0
        report = capsys.readouterr().out
        assert "total:" in report
        assert f"total: {n_rows} ->" in report

    def test_gen_data_is_pinned(self, tiny_config_file, tmp_path):
        # sha256 of TINY's manifest and of every PGM (relative path, then
        # bytes, in path order)
        out = tmp_path / "data"
        assert main(["gen-data", "--config", tiny_config_file, "--out", str(out)]) == 0
        manifest = (out / "manifest.csv").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == (
            "54a47f1135318d862967a2aa0f2b2bd9a04cc3d2019a2e10c0008762d0f36962")
        pgms = sorted(str(p.relative_to(out)) for p in out.rglob("*.pgm"))
        assert len(pgms) == 160
        digest = hashlib.sha256()
        for rel in pgms:
            digest.update(rel.encode() + b"\n")
            digest.update((out / rel).read_bytes())
        assert digest.hexdigest() == (
            "37b3c3a83ea2a3e7bf17f85ed939ce1cef7bb552285039e62aee47c865f5a85c")

    def test_dedup_report_reads_ssim_section(self, tiny_config_file, tmp_path, capsys):
        out = str(tmp_path / "data")
        assert main(["gen-data", "--config", tiny_config_file, "--out", out]) == 0
        manifest = os.path.join(out, "manifest.csv")
        capsys.readouterr()

        def report(*extra):
            assert main(["dedup-report", "--manifest", manifest, *extra]) == 0
            return capsys.readouterr().out

        default = report()
        assert report("--config", tiny_config_file) == default  # TINY keeps k1, k2
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"ssim": {"k1": 0.1, "k2": 0.1}}))
        assert report("--config", str(wide)) != default

    def test_dedup_report_reads_the_config_threshold(self, tiny_config_file, tmp_path,
                                                     capsys):
        out = str(tmp_path / "data")
        assert main(["gen-data", "--config", tiny_config_file, "--out", out]) == 0
        manifest = os.path.join(out, "manifest.csv")
        config = tmp_path / "th.json"
        config.write_text(json.dumps({**TINY, "ssim_threshold": 0.1}))
        capsys.readouterr()

        def report(*extra):
            assert main(["dedup-report", "--manifest", manifest, "--config", str(config),
                         *extra]) == 0
            return capsys.readouterr().out

        assert "at threshold 0.1\n" in report()
        assert "at threshold 0.3\n" in report("--ssim-th", "0.3")  # the flag wins

    @pytest.mark.parametrize("th", ["1.5", "0"])
    def test_bad_threshold_fails_before_the_manifest_is_read(self, tmp_path, capsys,
                                                            monkeypatch, th):
        monkeypatch.setattr(cli, "load_manifest", no_work)
        code = main(["dedup-report", "--manifest", str(tmp_path / "manifest.csv"),
                     "--ssim-th", th])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("uavfl: error: ssim_threshold must lie in (0, 1)")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("cells,shape", [("x,1,1", (4, 4)), ("1,1,1", (4, 5))],
                             ids=["non-integer-label", "mixed-shapes"])
    def test_bad_manifest_is_one_line_error(self, tmp_path, capsys, cells, shape):
        write_pgm(str(tmp_path / "a.pgm"), np.zeros((4, 4), dtype=np.uint8))
        write_pgm(str(tmp_path / "b.pgm"), np.zeros(shape, dtype=np.uint8))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"{','.join(MANIFEST_HEADER)}\na.pgm,0,1,1\nb.pgm,{cells}\n")
        code = main(["dedup-report", "--manifest", str(manifest)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("uavfl: error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
