import json
import os

import pytest

from test_harness import TINY
from uavfl.cli import build_parser, main


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
                                            ("--ssim-th", "1.5")])
    def test_bad_override_is_one_line_error(self, tiny_config_file, tmp_path, capsys,
                                            flag, value):
        out = str(tmp_path / "out")
        code = main(["run", "--config", tiny_config_file, "--out", out, flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uavfl: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "metadata.json"))


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
