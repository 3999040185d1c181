import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypermono
from hypermono import cli

QUINTIC = "1/5,2/5,3/5,4/5:0,0,0,0"


def _run_twice(tmp_path, argv, suffixes):
    outputs = []
    for run in ("a", "b"):
        prefix = tmp_path / run
        assert cli.main(argv + ["--out", str(prefix)]) == 0
        outputs.append({s: (tmp_path / f"{run}{s}").read_bytes() for s in suffixes})
    return outputs


class TestDeterminism:
    def test_certify_rerun_identical(self, tmp_path, capsys):
        first, second = _run_twice(
            tmp_path, ["certify", "--params", QUINTIC, "--L", "6"], (".csv", ".json")
        )
        assert first == second
        summary = json.loads(first[".json"])
        assert summary["ball_size"] == first[".csv"].count(b"\n") - 1
        assert summary["eps_hat"] > 0

    def test_limitset_rerun_identical(self, tmp_path, capsys):
        first, second = _run_twice(
            tmp_path,
            ["limitset", "--params", QUINTIC, "--L", "6", "--no-timestamp"],
            (".csv", ".svg"),
        )
        assert first == second
        assert first[".csv"].startswith(b"x0,x1,x2,x3,gap,kind\n")


class TestExitCodes:
    @pytest.mark.parametrize("params", ["1/5,2/5", "1/5,2/5,3/5:0,0", "a,b:c,d"])
    def test_invalid_params(self, params, capsys):
        assert cli.main(["certify", "--params", params, "--L", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_depth_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--params", QUINTIC, "--depth", "3"])
        assert exc.value.code == 2


class TestLyapunov:
    ARGV = ["lyapunov", "--rep", "sym3", "--T", "200", "--ntraj", "4"]

    def test_rerun_identical(self, tmp_path, capsys):
        outputs = []
        for run in ("a", "b"):
            path = tmp_path / f"{run}.json"
            assert cli.main(self.ARGV + ["--seed", "5", "--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        summary = json.loads(outputs[0])
        assert summary["n_discarded"] == 0 and len(summary["exponents"]) == 4

    def test_seed_is_mandatory(self, capsys):
        assert cli.main(self.ARGV) == 2
        assert "error:" in capsys.readouterr().err

    def test_rhs_degrees_evaluates_comparison(self, tmp_path, capsys):
        path = tmp_path / "lyap.json"
        argv = self.ARGV + ["--seed", "5", "--rhs-degrees", "3,1", "--out", str(path)]
        assert cli.main(argv) == 0
        comparison = json.loads(path.read_bytes())["comparison"]
        assert comparison["evaluated"] is True


def test_cli_import_leaves_out_scipy():
    # numpy and pyyaml are the only runtime dependencies
    env = dict(os.environ, PYTHONPATH=str(Path(hypermono.__file__).parents[1]))
    code = "import hypermono.cli, sys; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
