import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hypermono
from hypermono import _linalg, cli, dynamics

QUINTIC = "1/5,2/5,3/5,4/5:0,0,0,0"
OCTIC = "1/8,3/8,5/8,7/8:0,0,0,0"


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
        # sha256 recorded from the per-row CSV writer: rerun equality passes a uniform change.
        # Re-recorded when the quintic's ball matrices became its exact integer products.
        assert {s: hashlib.sha256(b).hexdigest() for s, b in first.items()} == {
            ".csv": "d8fe27dbd33150a82c623c4ac746a97490c2d59c39f300eb6b08e0f59b856a26",
            ".json": "51ec1114c2a7b2914f3d85483f6cea712e4b2bb74e5446b04caa141d042ea9d0",
        }

    def test_octic_certify_bytes_pinned(self, tmp_path, capsys):
        # sha256 recorded from the word-tuple writer, before ball words became pointers.
        # h_inf has order 8, so exponents run -3..4 (inf^4.0^1), and the octic's
        # generators are not integral: its ball is keyed on floats.
        prefix = tmp_path / "out"
        assert cli.main(["certify", "--params", OCTIC, "--L", "6", "--out", str(prefix)]) == 0
        digest = {s: hashlib.sha256((tmp_path / f"out{s}").read_bytes()).hexdigest()
                  for s in (".csv", ".json")}
        assert digest == {
            ".csv": "2021158485e26f4964d0a15389f7de0b8fa4018f1c9735758941fc698e916bad",
            ".json": "b344086491ea90c5359806d3443c4a9f6a171faba54ae73e606e9797a839d161",
        }

    def test_multi_chunk_certify_bytes_pinned(self, tmp_path, capsys):
        # 29,527 words: the certificate's SVDs run in several chunks on several
        # threads, and the 29,528 CSV lines are written in four blocks.  sha256
        # recorded while one SVD call and one write covered the whole ball.
        prefix = tmp_path / "out"
        assert cli.main(["certify", "--params", QUINTIC, "--L", "9", "--out", str(prefix)]) == 0
        digest = {s: hashlib.sha256((tmp_path / f"out{s}").read_bytes()).hexdigest()
                  for s in (".csv", ".json")}
        assert digest == {
            ".csv": "eaf0add029d506ddcf7cb3e244ac990ec1a1bc0da00dfbc4000d65f4a40612c4",
            ".json": "0ffd551de8280d71d3587a88cd4cbce7a4906919c27e170dfa87524a90f800ea",
        }

    def test_limitset_rerun_identical(self, tmp_path, capsys):
        first, second = _run_twice(
            tmp_path,
            ["limitset", "--params", QUINTIC, "--L", "6", "--no-timestamp"],
            (".csv", ".svg"),
        )
        assert first == second
        assert first[".csv"].startswith(b"x0,x1,x2,x3,gap,kind\n")

    # sha256 of (csv, svg), recorded from the per-sample writer before limit
    # samples became arrays: a rerun-equality check passes a uniform change.  The
    # octic's cusp rows depend in their last bits on how im(h1 - id) is computed.
    # The quintic CSVs were re-recorded when its ball matrices became its exact
    # integer products; their SVGs did not move.  The octic at L=8 (10,440 words)
    # was recorded while the SVDs ran in one call over the whole ball; they now
    # run in several chunks on several threads.
    @pytest.mark.parametrize("params, L, extra, csv_sha, svg_sha", [
        (QUINTIC, 6, [], "663e0a580182bdd7f01dd82275b28870f5ee38dc8ac4852f8de444c0a8674ee1",
         "0d88933937a4ad007a9b1396b07631409bec7de53b38577f7fec53d9f30c2a74"),
        (QUINTIC, 6, ["--proj", "0.3,-1.7,2.2,0.9;0.333,0.25,-5,0.001"],
         "663e0a580182bdd7f01dd82275b28870f5ee38dc8ac4852f8de444c0a8674ee1",
         "15bff50eeac215cd991a66d75f2c51474871434b1487419f37d6759c686a0ded"),
        (QUINTIC, 6, ["--kinds", "cusp"],
         "3054d2be59f3b5493c71db9dbf760b27085db3019a6abde1c6cd55fbe508f241",
         "b3b186038ad9d19ac84d16f0b55cfb500c13807dd65ab769998051ed05af2631"),
        (OCTIC, 6, ["--kinds", "cusp"],
         "14038a5156e2d4f0769fe9b79b32e9bac2b999e609c204dcb809afd4d942f5bb",
         "3ea46c452756850e7c0203291649c81b1ee7977b74d94220139fea41a869919f"),
        (OCTIC, 8, [],
         "fab5abe265935dcb2868e9d63fd04375d40bde5fcde1674e9843622b0e556bd1",
         "043babdf2125a9270c645c2e4d4400a507f11adc70adfa92583f6b97f2b9f55f"),
    ], ids=["default", "proj", "cusp", "octic-cusp", "octic-multi-chunk"])
    def test_limitset_bytes_pinned(self, tmp_path, capsys, params, L, extra, csv_sha, svg_sha):
        prefix = tmp_path / "out"
        argv = ["limitset", "--params", params, "--L", str(L), "--no-timestamp", *extra]
        assert cli.main(argv + ["--out", str(prefix)]) == 0
        digest = {s: hashlib.sha256((tmp_path / f"out{s}").read_bytes()).hexdigest()
                  for s in (".csv", ".svg")}
        assert digest == {".csv": csv_sha, ".svg": svg_sha}


class TestExitCodes:
    @pytest.mark.parametrize("params", [
        "1/5,2/5", "1/5,2/5,3/5:0,0", "a,b:c,d",
        # a zero denominator and non-finite decimals used to exit 3, and nan exited 2 by accident
        "1/0,2/5,3/5,4/5:0,0,0,0", "inf,2/5,3/5,4/5:0,0,0,0", "1e400,2/5,3/5,4/5:0,0,0,0",
        "nan,2/5,3/5,4/5:0,0,0,0",
    ])
    def test_invalid_params(self, params, capsys):
        assert cli.main(["certify", "--params", params, "--L", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["nan", "svd"])
    def test_failed_chunk_leaves_no_partial_csv(self, tmp_path, capsys, monkeypatch, fault):
        # quintic L=9 has four SVD chunks; the third fails after the rows of the
        # first two are written, and the CSV of an earlier run is left as it was
        third, balls = 2 * _linalg.SVD_CHUNK, []
        enumerate_ball, svd = dynamics.enumerate_ball, np.linalg.svd

        def faulty_ball(*args, **kwargs):
            balls.append(enumerate_ball(*args, **kwargs))
            if fault == "nan":
                balls[0].mats[third + 7, 0, 0] = np.nan
            return balls[0]

        def failing_svd(a, *args, **kwargs):
            if fault == "svd" and balls and np.may_share_memory(a, balls[0].mats[third]):
                raise np.linalg.LinAlgError("SVD failed in the third chunk")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(dynamics, "enumerate_ball", faulty_ball)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        blocks, write_lines = [], cli._write_lines

        def counted_write(fh, lines):
            blocks.append(fh.name)
            write_lines(fh, lines)

        monkeypatch.setattr(cli, "_write_lines", counted_write)
        (tmp_path / "out.csv").write_text("earlier run\n")
        before = threading.active_count()
        argv = ["certify", "--params", QUINTIC, "--L", "9", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert blocks == [str(tmp_path / "out.csv.part")] * 2
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert (tmp_path / "out.csv").read_text() == "earlier run\n"
        assert threading.active_count() == before

    def test_depth_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "--params", QUINTIC, "--depth", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["certify", "--params", QUINTIC, "--T", "5"],
        ["classify", "--params", QUINTIC, "--sig", "2,3,7"],
        ["monodromy", "--params", QUINTIC, "--gap-min", "0"],
        ["lyapunov", "--rep", "sym3", "--seed", "1", "--L", "3"],
        # the parameters fix the orbifold, which a --sig would replace
        ["certify", "--params", QUINTIC, "--sig", "2,3,7"],
        ["limitset", "--params", QUINTIC, "--sig", "2,3,7"],
    ])
    def test_option_a_command_does_not_read_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    # an empty kind set used to print an empty CSV and exit 0
    @pytest.mark.parametrize("kinds", ["attractng", ",", ""], ids=["typo", "comma", "empty"])
    def test_unknown_kind_refused(self, kinds, capsys):
        assert cli.main(["limitset", "--params", QUINTIC, "--L", "2", "--kinds", kinds]) == 2
        assert "--kinds takes attracting and cusp" in capsys.readouterr().err

    def test_non_self_dual_monodromy_refused(self, capsys):
        # the group is not real: its forms used to be read off the real parts of h0 and hinf
        assert cli.main(["monodromy", "--params", "3/10,5/8,7/10,7/8:0,1/12,1/8,1/8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err and "self-dual" in captured.err

    @pytest.mark.parametrize("option", ["--config", "--out"])
    def test_directory_path_refused(self, option, tmp_path, capsys):
        # opening a directory used to exit 1 with an IsADirectoryError traceback; an
        # options file (once --config) is an @FILE, which argparse reads and refuses itself
        argv = ["monodromy", "--params", QUINTIC]
        if option == "--config":
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["@" + str(tmp_path)])
            assert exc.value.code == 2
        else:
            assert cli.main(argv + [option, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("fault", ["csv-directory", "svg-directory", "svg-write"])
    def test_limitset_leaves_no_partial_output(self, fault, tmp_path, capsys, monkeypatch):
        # with o.svg a directory, a fresh o.csv used to be left behind; an earlier
        # file of the pair stays as it was, and no .part is left
        earlier = "o.svg" if fault == "csv-directory" else "o.csv"
        if fault == "svg-write":
            def failing_svg(*args, **kwargs):
                yield "<svg>"
                raise OSError("disk full")

            monkeypatch.setattr(cli, "_svg_scatter", failing_svg)
        else:
            (tmp_path / f"o.{fault[:3]}").mkdir()
        (tmp_path / earlier).write_text("earlier run\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = ["limitset", "--params", QUINTIC, "--L", "3", "--no-timestamp",
                "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / earlier).read_text() == "earlier run\n"

    def test_euclidean_signature_refused(self, capsys):
        # the float chi of (2, 3, 6) is -1.1e-16, whose sign says hyperbolic
        argv = ["lyapunov", "--rep", "fuchsian", "--sig", "2,3,6", "--T", "10", "--ntraj", "2",
                "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not hyperbolic" in captured.err

    @pytest.mark.parametrize("sig", ["2,3", "2,3,7,9"])
    def test_signature_needs_three_orders(self, sig, capsys):
        argv = ["lyapunov", "--rep", "sym3", "--sig", sig, "--T", "10", "--ntraj", "2",
                "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "'e0,e1,einf'" in captured.err

    @pytest.mark.parametrize("rep", ["sym3", "fuchsian"])
    def test_orbifold_order_needs_params(self, rep, capsys):
        # without --params the signature comes from --sig, and the convention has nothing to read
        argv = ["lyapunov", "--rep", rep, "--orbifold-order", "projective", "--seed", "1",
                "--T", "10", "--ntraj", "2"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--params" in captured.err

    # --T inf never returned, and the others printed NaN or Infinity and exited 0
    @pytest.mark.parametrize("argv", [
        ["lyapunov", "--rep", "sym3", "--T", "inf", "--ntraj", "2", "--seed", "1"],
        ["lyapunov", "--rep", "sym3", "--T", "nan", "--ntraj", "2", "--seed", "1"],
        ["lyapunov", "--rep", "sym3", "--T", "10", "--ntraj", "2", "--seed", "1",
         "--rhs-degrees", "nan"],
        ["lyapunov", "--rep", "sym3", "--T", "10", "--ntraj", "2", "--seed", "1",
         "--rhs-degrees", "1,inf"],
        ["limitset", "--params", QUINTIC, "--L", "2", "--gap-min", "nan"],
        # a non-finite projection wrote cx="nan" cy="nan" into every SVG circle
        ["limitset", "--params", QUINTIC, "--L", "2", "--proj", "nan,0,0,0;0,1,0,0"],
        ["limitset", "--params", QUINTIC, "--L", "2", "--proj", "1,0,0,0;0,-inf,0,0"],
    ], ids=["T-inf", "T-nan", "rhs-nan", "rhs-inf", "gap-min-nan", "proj-nan", "proj-inf"])
    def test_non_finite_option_refused(self, argv, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_signature_and_params_conflict(self, capsys):
        # the exponents fix the orbifold, which a --sig would replace
        argv = ["lyapunov", "--rep", "params", "--params", QUINTIC, "--sig", "2,3,7", "--T", "10",
                "--ntraj", "2", "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--sig" in captured.err


class TestPinnedStdout:
    # sha256 of stdout, recorded before the reflection data left MonodromyRep and
    # the step code became the only record of a geodesic crossing
    @pytest.mark.parametrize("argv, sha", [
        (["monodromy", "--params", QUINTIC],
         "31ed325220a607b2e847fc45f38dd170b8bd0800f4501ac1243d289b4fd29390"),
        # a symmetric J: the J_signature branch
        (["monodromy", "--params", "9/20,1/2,1/2,1/2,11/20:0,0,0,1/3,2/3"],
         "05dd76375e9c54793a95647eedbbb89806be3670ff61249da8d6d8138579a27a"),
        # re-recorded when geodesics began to cross the triangle's three mirrors
        (["lyapunov", "--rep", "params", "--params", QUINTIC, "--T", "50", "--ntraj", "2",
          "--seed", "1"], "1776ff16942dbeaad0dd77c45a7f2cf012ba13be30828308350e952bdafdf848"),
        # a faster sampler must keep the mirror codes of the 2x2 path bit for bit
        (["lyapunov", "--rep", "sym3", "--sig", "2,3,inf", "--T", "200", "--ntraj", "4",
          "--seed", "5"], "f4cef297811157b93cf001d09be276d63ede7496405a69a1e217fbd3afd3d06d"),
        # the reflections are the Levelt matrices' rows reversed, bit for bit (R_C @ h is
        # not: it flips zeros to -0.0); the octic prints nine -0.0 entries, and the
        # second family has irrational coefficients
        (["monodromy", "--params", OCTIC],
         "18bbe9d787c926d80fbe8cf22a278bd74f4a141115bd610e5f2f30de2dc10fb8"),
        (["monodromy", "--params", "1/7,1/2,1/2,6/7:0,0,0,0"],
         "7c9a91cee0ba51ea539ddb0b5e3f5bcd2ed8bc0017f28dcc5c36ac853543c2bd"),
    ], ids=["monodromy-quintic", "monodromy-rank5", "lyapunov-params", "lyapunov-sym3",
            "monodromy-octic", "monodromy-sevenths"])
    def test_stdout_pinned(self, argv, sha, capsys):
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


class TestClassify:
    @pytest.mark.parametrize("order, einf", [("gl", 8), ("projective", 4)])
    def test_orbifold_order(self, order, einf, capsys):
        # the exponents at infinity are 1/8 + j/4: order 8 in GL, 4 up to scalars
        assert cli.main(["classify", "--params", OCTIC, "--orbifold-order", order]) == 0
        assert json.loads(capsys.readouterr().out)["orbifold_signature"] == ["inf", "inf", einf]

    def test_long_decimals_stay_decimals(self, tmp_path, capsys):
        # a 14-digit decimal is within 1e-9 of a fraction with q <= 10**6, but not a rounding of one
        path = tmp_path / "classify.json"
        argv = ["classify", "--params", "0.14159265358979,1/2,1/2,0.85840734641021:0,0,0,0",
                "--out", str(path)]
        assert cli.main(argv) == 0
        report = json.loads(path.read_bytes())
        assert report["alpha"] == ["0.14159265358979", "1/2", "1/2", "0.85840734641021"]
        assert report["orbifold_signature"].startswith("unavailable: irrational exponent")

    def test_non_maximal_pattern_shape_is_decided(self, capsys):
        # (1/4,1/4,1/2,3/4,3/4) has the (N, k_N) shape with k_N = 1, N = 2: not maximal, not invalid
        assert cli.main(["classify", "--params", "0,0,0,0,0:1/4,1/4,1/2,3/4,3/4"]) == 0
        assert json.loads(capsys.readouterr().out)["assumption_b"] is False


def _options_file(tmp_path, *lines):
    """An @FILE argument: the quintic's --params, then lines, one argument per line."""
    path = tmp_path / "run.args"
    path.write_text("".join(f"{line}\n" for line in (f"--params={QUINTIC}", *lines)))
    return "@" + str(path)


class TestConfig:
    # an options file replaced the YAML --config: argparse reads an @FILE's lines in its place
    def test_config_goes_through_argparse_types(self, tmp_path, capsys):
        # the file's arguments get each option's type, as on the command line
        cli.main(["certify", _options_file(tmp_path, "--L=3"), "--out", str(tmp_path / "a")])
        cli.main(["certify", "--params", QUINTIC, "--L", "3", "--out", str(tmp_path / "b")])
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    def test_unknown_config_key_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", _options_file(tmp_path, "--Lmax=3")])
        assert exc.value.code == 2
        assert "hypermono: error: unrecognized arguments: --Lmax=3" in capsys.readouterr().err

    def test_missing_options_file_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["certify", "@" + str(tmp_path / "missing.args")])
        assert exc.value.code == 2
        assert "hypermono: error:" in capsys.readouterr().err

    def test_command_line_overrides_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["certify", _options_file(tmp_path, "--L", "5"), "--L", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads((tmp_path / "run.json").read_bytes())["L"] == 2

    def test_options_file_overrides_earlier_flag(self, tmp_path, capsys):
        # the file's lines stand where the file does: the later --L wins either way
        out = tmp_path / "run"
        argv = ["certify", "--L", "2", _options_file(tmp_path, "--L=5"), "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads((tmp_path / "run.json").read_bytes())["L"] == 5


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

    def test_params_set_the_signature_under_every_rep(self, tmp_path, capsys):
        path = tmp_path / "lyap.json"
        argv = ["lyapunov", "--rep", "fuchsian", "--params", QUINTIC, "--T", "50", "--ntraj", "2",
                "--seed", "5", "--out", str(path)]
        assert cli.main(argv) == 0
        assert json.loads(path.read_bytes())["signature"] == ["inf", "inf", 5]

    def test_params_are_parsed_under_every_rep(self, capsys):
        assert cli.main(self.ARGV + ["--seed", "1", "--params", "junk"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_params_run_at_rank_five(self, tmp_path, capsys):
        # an SO(2,3) family satisfying assumption B: the Levelt reflections need no
        # invariant form, so its spectrum is symmetric about a zero middle exponent
        path = tmp_path / "lyap.json"
        argv = ["lyapunov", "--params", "9/20,1/2,1/2,1/2,11/20:0,0,0,1/3,2/3", "--T", "2000",
                "--ntraj", "10", "--seed", "5", "--out", str(path)]
        assert cli.main(argv) == 0
        lam = json.loads(path.read_bytes())["exponents"]
        assert len(lam) == 5
        assert abs(sum(lam)) < 1e-10
        assert max(abs(a + b) for a, b in zip(lam, reversed(lam))) <= 0.02

    def test_sym3_sum_formula(self, tmp_path, capsys):
        # Sym^3 of (2,3,inf): deg E^{3,0} = 3 deg L, deg E^{2,1} = deg L, 2 deg L = |chi| = 1/6,
        # so 2 * (1/4 + 1/12) / (1/6) = 4 = lambda_1 + lambda_2 of (3, 1, -1, -3)
        path = tmp_path / "lyap.json"
        argv = self.ARGV + ["--seed", "5", "--rhs-degrees", "0.25,0.08333333333333333",
                            "--out", str(path)]
        assert cli.main(argv) == 0
        comparison = json.loads(path.read_bytes())["comparison"]
        assert abs(comparison["rhs"] - 4.0) < 1e-12
        assert abs(comparison["lambda_sum"] - comparison["rhs"]) < 0.05


def test_docstring_option_table_is_commands():
    # the table at the top of cli.py, one "command  --opt --opt" or "command  (none)" per line
    lines = cli.__doc__.split("(the table ``COMMANDS``):\n\n", 1)[1].split("\n\n", 1)[0]
    table = {}
    for line in lines.splitlines():
        name, *opts = line.split()
        table[name] = tuple(opts) if opts != ["(none)"] else ()
    assert table == {name: opts for name, (_, opts) in cli.COMMANDS.items()}


def test_cli_import_leaves_out_scipy():
    # numpy is the only runtime dependency (tests/test_imports.py checks the declared
    # set); scipy is for tests alone, and the CLI imports neither yaml nor a thread pool
    env = dict(os.environ, PYTHONPATH=str(Path(hypermono.__file__).parents[1]))
    code = ("import hypermono.cli, sys; print(*(m in sys.modules for m in "
            "('scipy', 'yaml', 'concurrent.futures')))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False False"


def test_one_chunk_certify_starts_no_thread():
    # quintic L=6 is one SVD chunk: no worker thread, and no thread pool imported
    env = dict(os.environ, PYTHONPATH=str(Path(hypermono.__file__).parents[1]))
    code = f"""
import contextlib, io, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))
from hypermono import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["certify", "--params", "{QUINTIC}", "--L", "6"])
print(code, "concurrent.futures" in sys.modules, len(started))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 False 0"
