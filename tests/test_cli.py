import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hypermono
from hypermono import _linalg, cli, dynamics

QUINTIC = "1/5,2/5,3/5,4/5:0,0,0,0"
OCTIC = "1/8,3/8,5/8,7/8:0,0,0,0"
# a lyapunov run that succeeds, the Sym^3 oracle's
LYAP_RUNS = ["lyapunov", "--rep", "sym3", "--T", "200", "--ntraj", "4", "--seed", "5"]
# affinity masks of 1, 2 and 3 CPUs: the ball's SVD chunks run on no thread, on 2
# workers and on up to 3
CPU_MASKS = [{0}, {0, 1}, {0, 1, 2}]


def _unreached(*args, **kwargs):
    raise AssertionError("lyapunov_mc was reached")


class _Flowed(Exception):
    """A geodesic was flowed."""


def _flowed(*args, **kwargs):
    raise _Flowed


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
        # Re-recorded when the quintic's ball matrices became its exact integer products,
        # and again when its gaps became the closed form of symplectic_gaps (last bits).
        assert {s: hashlib.sha256(b).hexdigest() for s, b in first.items()} == {
            ".csv": "9859574d028e2695e3741f3705d41483ba48ad2fc6e9991bab66cd018a760211",
            ".json": "79e5b9301edd977c0603b5f20ede9b45bb78a717f84e98a09414cb99be21f7d5",
        }

    def test_octic_certify_bytes_pinned(self, tmp_path, capsys):
        # h_inf has order 8, so exponents run -3..4 (inf^4.0^1), and the octic's
        # generators are not integral: its mats are float products.  Re-recorded when
        # the ball became every reduced word: rho sends some words to the same matrix
        # (h_inf^4 = -I, ROADMAP item 2), which the ball used to merge.  It went from
        # 1,320 to 1,424 words, eps_hat from 0.6078 to 0.6355 and c_hat from 4.783 to 5.236.
        prefix = tmp_path / "out"
        assert cli.main(["certify", "--params", OCTIC, "--L", "6", "--out", str(prefix)]) == 0
        digest = {s: hashlib.sha256((tmp_path / f"out{s}").read_bytes()).hexdigest()
                  for s in (".csv", ".json")}
        assert digest == {
            ".csv": "504c9c87fbe7799a0fe26afc64b91377f68851a44b2ca642bd6384db8beb7c3f",
            ".json": "ac7981a7e551c3970c787a66b4e3a60be7341295acb942e9f2a61b0280dceb69",
        }

    def test_multi_chunk_certify_bytes_pinned(self, tmp_path, capsys):
        # 29,527 words: the closed-form gaps are taken in four chunks, and the 29,528
        # CSV lines are written in four blocks.  sha256 recorded when the gaps became
        # the closed form of symplectic_gaps
        prefix = tmp_path / "out"
        assert cli.main(["certify", "--params", QUINTIC, "--L", "9", "--out", str(prefix)]) == 0
        digest = {s: hashlib.sha256(Path(f"{prefix}{s}").read_bytes()).hexdigest()
                  for s in (".csv", ".json")}
        assert digest == {
            ".csv": "bac6261517f2adf6131d749326f79f93f05169ee531220960e3e1e5aaecaf830",
            ".json": "cef0d546f2731f277efbd792df8688fa62f4aa66eb5b933781fd503fe6a314ed",
        }

    @pytest.mark.parametrize("L, csv, json_sha", [
        (0, "dist,gap,word\n0.0,0.0,e\n",
         "4f864fd528af2f3705bf5eaab3f9c491288a66ba8fa8ed8bd72bf4bce540d11a"),
        (1, "dist,gap,word\n0.0,0.0,e\n"
            "1.6926769374738715,1.8052983803626144,0^1\n"
            "1.6926769374738715,1.8052983803626144,0^-1\n"
            "2.709622832989049,0.720124884293505,inf^1\n"
            "2.709622832989049,0.720124884293505,inf^-1\n",
         "7cc0cd154b5fef2c9b41ff9e4fa9cc7fcb1ff409a48a5eceb8d82a6541b24b76"),
    ], ids=["L0", "L1"])
    def test_smallest_certify_bytes_pinned(self, tmp_path, capsys, L, csv, json_sha):
        # at L=0 the identity is the whole last level, so no word is kept as a rest;
        # at L=1 only the identity is
        prefix = tmp_path / "out"
        argv = ["certify", "--params", QUINTIC, "--L", str(L), "--out", str(prefix)]
        assert cli.main(argv) == 0
        assert Path(f"{prefix}.csv").read_text() == csv
        assert hashlib.sha256(Path(f"{prefix}.json").read_bytes()).hexdigest() == json_sha

    def test_octic_multi_chunk_certify_bytes_pinned(self, tmp_path, capsys, monkeypatch):
        # 37,504 words on a float frame: the certificate's SVDs run in five chunks on
        # up to three worker threads, and the 37,505 CSV lines are written in five
        # blocks.  The bytes do not depend on the number of CPUs; sha256 recorded
        # before the quintic's gaps left the SVD, which did not move them
        for cpus in CPU_MASKS:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            prefix = tmp_path / f"cpus{len(cpus)}"
            argv = ["certify", "--params", OCTIC, "--L", "9", "--out", str(prefix)]
            assert cli.main(argv) == 0
            digest = {s: hashlib.sha256(Path(f"{prefix}{s}").read_bytes()).hexdigest()
                      for s in (".csv", ".json")}
            assert digest == {
                ".csv": "a1f42f9953d82809f18425def1457fc86aa1ea0432ee71dc39fe29b90e085c59",
                ".json": "0d08bba146e5e41b231a34f86e08b5f3fd673e02e544cc20487c0648dfaf87ea",
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
    # run in several chunks on several threads.  The mixed-kind pins (default,
    # proj, octic-multi-chunk) were re-recorded when the cusp rows moved ahead of
    # the attracting rows, the order in which they are computed; the SVG draws its
    # circles in that order.  The single-kind pins did not move, and
    # octic-attracting was recorded before the move.
    @pytest.mark.parametrize("params, L, extra, csv_sha, svg_sha", [
        (QUINTIC, 6, [], "bed118dd5c7768c3bba55b2317046b5bafcb7638caf2e7a8b39c48bc15754f24",
         "82a0ddaa8f7f1f6d01320b10a5a7514e32ec6edb096fabd27c351ce3892fd278"),
        (QUINTIC, 6, ["--proj", "0.3,-1.7,2.2,0.9;0.333,0.25,-5,0.001"],
         "bed118dd5c7768c3bba55b2317046b5bafcb7638caf2e7a8b39c48bc15754f24",
         "55a005c031dd5a342a0d004ccc487100c6094b888e77e8a09336cfbb1d718583"),
        (QUINTIC, 6, ["--kinds", "cusp"],
         "3054d2be59f3b5493c71db9dbf760b27085db3019a6abde1c6cd55fbe508f241",
         "b3b186038ad9d19ac84d16f0b55cfb500c13807dd65ab769998051ed05af2631"),
        (OCTIC, 6, ["--kinds", "cusp"],
         "14038a5156e2d4f0769fe9b79b32e9bac2b999e609c204dcb809afd4d942f5bb",
         "3ea46c452756850e7c0203291649c81b1ee7977b74d94220139fea41a869919f"),
        (OCTIC, 8, [],
         "331e23fd7b25d97819585e33f5ed4896d4f7511d22e4b55ea255662103c4f4ae",
         "3a5677059b69a47055390484859e8258cc3ff9516c8ae07941e45c211fd71e96"),
        (OCTIC, 8, ["--kinds", "attracting"],
         "b7d33685247c1de9b96dd74f0127ee395df5fb7b8382be657f3c14d530f8ee64",
         "4eeccae304c14c48c0994193e30fb72674aeb8f1519416035595f14a096ed52a"),
    ], ids=["default", "proj", "cusp", "octic-cusp", "octic-multi-chunk", "octic-attracting"])
    def test_limitset_bytes_pinned(self, tmp_path, capsys, monkeypatch, params, L, extra,
                                   csv_sha, svg_sha):
        # the bytes do not depend on the number of CPUs (octic-multi-chunk's SVDs are
        # two chunks)
        argv = ["limitset", "--params", params, "--L", str(L), "--no-timestamp", *extra]
        for cpus in CPU_MASKS:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
            prefix = tmp_path / f"cpus{len(cpus)}"
            assert cli.main(argv + ["--out", str(prefix)]) == 0
            digest = {s: hashlib.sha256(Path(f"{prefix}{s}").read_bytes()).hexdigest()
                      for s in (".csv", ".svg")}
            assert digest == {".csv": csv_sha, ".svg": svg_sha}

    @pytest.mark.parametrize("params, L", [(QUINTIC, 6), (OCTIC, 8)], ids=["quintic", "octic"])
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_mixed_kinds_are_cusp_then_attracting(self, tmp_path, capsys, params, L, out):
        # each kind is deduplicated on its own, so the rows of both kinds are the
        # cusp rows, then the attracting rows (the octic's from more than one SVD chunk)
        bodies = {}
        for kinds in ("attracting,cusp", "cusp", "attracting"):
            argv = ["limitset", "--params", params, "--L", str(L), "--kinds", kinds]
            if out:
                argv += ["--no-timestamp", "--out", str(tmp_path / kinds)]
            assert cli.main(argv) == 0
            text = (tmp_path / f"{kinds}.csv").read_text() if out else capsys.readouterr().out
            header, bodies[kinds] = text.split("\n", 1)
            assert header == "x0,x1,x2,x3,gap,kind"
        assert bodies["cusp"] and bodies["attracting"]
        assert bodies["attracting,cusp"] == bodies["cusp"] + bodies["attracting"]


class TestMemory:
    def test_certify_holds_each_word_once(self, tmp_path, capsys):
        # the ball's arrays are held once, and the word column keeps a string only for
        # the words shorter than L, which can be rests; the last level's strings are
        # made a chunk at a time.  84,897 words: about 290 traced bytes a word, where a
        # joined ball and every word's string read 370
        prefix = tmp_path / "out"
        argv = ["certify", "--params", QUINTIC, "--L", "10", "--out", str(prefix)]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        words = json.loads(Path(f"{prefix}.json").read_text())["ball_size"]
        assert words == 84897
        assert peak <= 320 * words


class TestExitCodes:
    def test_arc_length_past_the_memory_limit_refused(self, capsys, monkeypatch):
        # the run kept every crossing and ran until it was killed; now it is refused before
        # a geodesic is flowed
        monkeypatch.setattr(dynamics, "geodesic_sample", _flowed)
        argv = ["lyapunov", "--rep", "sym3", "--T", "8.9e307", "--ntraj", "4", "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: T=8.9e+307: an arc length 2T past {dynamics.LYAP_MAX_ARC} would keep "
                "more than 1 GiB of crossings at a typical rate") in captured.err
        # the limit itself passes the check and is flowed
        argv[4] = str(dynamics.LYAP_MAX_ARC / 2)
        with pytest.raises(_Flowed):
            cli.main(argv)

    @pytest.mark.parametrize("argv", [
        ["certify", "--L", "2"],
        ["limitset", "--L", "2"],
        ["lyapunov", "--rep", "params", "--T", "50", "--ntraj", "2", "--seed", "1"],
    ], ids=["certify", "limitset", "lyapunov"])
    def test_real_exponent_refused_by_geometric_commands(self, argv, capsys):
        # classify accepts a real exponent; a command that needs the orbifold does not
        real = "0.14159265358979,1/2,1/2,0.85840734641021:0,0,0,0"
        assert cli.main(argv + ["--params", real]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("error: irrational exponent 0.14159265358979: no finite-cover orbifold model"
                in captured.err)

    @pytest.mark.parametrize("params", [
        "1/5,2/5", "1/5,2/5,3/5:0,0", "a,b:c,d",
        # a zero denominator and non-finite decimals used to exit 3, and nan exited 2 by accident
        "1/0,2/5,3/5,4/5:0,0,0,0", "inf,2/5,3/5,4/5:0,0,0,0", "1e400,2/5,3/5,4/5:0,0,0,0",
        "nan,2/5,3/5,4/5:0,0,0,0",
        # these exited 2 with "invalid literal for int()" and "too many values to unpack"
        "1/x,2/5,3/5,4/5:0,0,0,0", "1/5/2,2/5,3/5,4/5:0,0,0,0",
    ])
    def test_invalid_params(self, params, capsys):
        assert cli.main(["certify", "--params", params, "--L", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent", ["1/x", "1/5/2", "a"])
    def test_malformed_exponent_is_named(self, exponent, capsys):
        argv = ["certify", "--params", f"{exponent},2/5,3/5,4/5:0,0,0,0", "--L", "2"]
        assert cli.main(argv) == 2
        assert f"error: exponent {exponent!r} is neither 'p/q' nor a decimal" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command, fault, params, chunks", [
        ("certify", "nan", QUINTIC, 4), ("certify", "svd", OCTIC, 5),
        ("limitset", "svd", QUINTIC, 4),
    ], ids=["nan", "svd", "limitset-svd"])
    def test_failed_chunk_leaves_no_partial_csv(self, tmp_path, capsys, monkeypatch, command,
                                                fault, params, chunks):
        # at L=9 the quintic has four chunks and the octic five; the third fails after
        # the rows of the first two are written (for limitset, after its cusp rows, a
        # block for each chunk), and the files of an earlier run are left as they
        # were.  The quintic's certify gaps are the closed form, which refuses the NaN
        # as the octic's SVD would; the octic's SVD chunks run on worker threads
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
        earlier = ["out.csv"] + ["out.svg"] * (command == "limitset")
        for name in earlier:
            (tmp_path / name).write_text("earlier run\n")
        before = threading.active_count()
        argv = [command, "--params", params, "--L", "9", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert blocks == [str(tmp_path / "out.csv.part")] * (2 + chunks * (command == "limitset"))
        assert sorted(p.name for p in tmp_path.iterdir()) == earlier
        assert all((tmp_path / name).read_text() == "earlier run\n" for name in earlier)
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

    @pytest.mark.parametrize("fault, L", [
        ("csv-directory", "3"), ("svg-directory", "3"), ("svg-write", "3"), ("csv-write", "9"),
    ], ids=["csv-directory", "svg-directory", "svg-write", "csv-write-four-chunks"])
    def test_limitset_leaves_no_partial_output(self, fault, L, tmp_path, capsys, monkeypatch):
        # with o.svg a directory, a fresh o.csv used to be left behind; an earlier
        # file of the pair stays as it was, and no .part is left.  At L=9 (four SVD
        # chunks, on three CPUs) the first cusp block fails while the stream's workers
        # live, and every one of them ends
        earlier = "o.svg" if fault.startswith("csv") else "o.csv"
        threads, alive = threading.active_count(), []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        if fault == "svg-write":
            def failing_svg(*args, **kwargs):
                yield ["<svg>"]
                raise OSError("disk full")

            monkeypatch.setattr(cli, "_svg_scatter", failing_svg)
        elif fault == "csv-write":
            def failing_write(fh, lines):
                alive.append(threading.active_count())
                raise OSError("disk full")

            monkeypatch.setattr(cli, "_write_lines", failing_write)
        else:
            (tmp_path / f"o.{fault[:3]}").mkdir()
        (tmp_path / earlier).write_text("earlier run\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = ["limitset", "--params", QUINTIC, "--L", L, "--no-timestamp",
                "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / earlier).read_text() == "earlier run\n"
        assert alive == ([threads + 3] if fault == "csv-write" else [])
        assert threading.active_count() == threads

    def test_certify_leaves_no_partial_output(self, tmp_path, capsys, monkeypatch):
        # with o.json a directory, a fresh o.csv used to be left behind.  The quintic
        # takes its gaps in closed form, so no worker at L=3 (one chunk) or L=9 (four);
        # the octic at L=9 runs five SVD chunks on three CPUs, and the refusal leaves the
        # stream's block while its three workers live, and all end
        (tmp_path / "o.json").mkdir()
        threads, alive, certificate = threading.active_count(), [], dynamics.anosov_certificate
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def counting_certificate(*args):
            alive.append(threading.active_count())
            return certificate(*args)

        monkeypatch.setattr(dynamics, "anosov_certificate", counting_certificate)
        for params, L in ((QUINTIC, "3"), (QUINTIC, "9"), (OCTIC, "9")):
            argv = ["certify", "--params", params, "--L", L, "--out", str(tmp_path / "o")]
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "error:" in captured.err
            assert [p.name for p in tmp_path.iterdir()] == ["o.json"]
            assert threading.active_count() == threads
        assert alive == [threads, threads, threads + 3]

    def test_euclidean_signature_refused(self, capsys):
        # the float chi of (2, 3, 6) is -1.1e-16, whose sign says hyperbolic
        argv = ["lyapunov", "--rep", "fuchsian", "--sig", "2,3,6", "--T", "10", "--ntraj", "2",
                "--seed", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not hyperbolic" in captured.err

    # a malformed order exited 2 with "invalid literal for int() with base 10"
    @pytest.mark.parametrize("sig", ["2,3", "2,3,7,9", "2,x,inf", "2,3.5,inf"])
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

    # --T inf never returned, and the others printed NaN or Infinity and exited 0; the
    # letter exited 2 with "could not convert string to float: 'x'", after the whole run.
    # The degrees are read at a config that runs, and must be refused before the
    # geodesic is flowed: lyapunov_mc is not reached.
    @pytest.mark.parametrize("argv, reason", [
        (["lyapunov", "--rep", "sym3", "--T", "inf", "--ntraj", "2", "--seed", "1"],
         "T must be positive"),
        (["lyapunov", "--rep", "sym3", "--T", "nan", "--ntraj", "2", "--seed", "1"],
         "T must be positive"),
        # 2T overflowed to inf, and the refusal named geodesic_sample's total_time
        (["lyapunov", "--rep", "sym3", "--T", "1e308", "--ntraj", "2", "--seed", "1"],
         "T must be positive, with a finite arc length 2T"),
        (LYAP_RUNS + ["--rhs-degrees", "nan"], "--rhs-degrees"),
        (LYAP_RUNS + ["--rhs-degrees", "1,inf"], "--rhs-degrees"),
        (LYAP_RUNS + ["--rhs-degrees", "1e400"], "--rhs-degrees"),
        (LYAP_RUNS + ["--rhs-degrees", "1,x"], "--rhs-degrees expects finite numbers"),
        (["limitset", "--params", QUINTIC, "--L", "2", "--gap-min", "nan"], "--gap-min"),
        # a non-finite projection wrote cx="nan" cy="nan" into every SVG circle
        (["limitset", "--params", QUINTIC, "--L", "2", "--proj", "nan,0,0,0;0,1,0,0"],
         "projection must be"),
        (["limitset", "--params", QUINTIC, "--L", "2", "--proj", "1,0,0,0;0,-inf,0,0"],
         "projection must be"),
    ], ids=["T-inf", "T-nan", "T-arc-overflow", "rhs-nan", "rhs-inf", "rhs-1e400", "rhs-letter",
            "gap-min-nan", "proj-nan", "proj-inf"])
    def test_non_finite_option_refused(self, argv, reason, capsys, monkeypatch):
        if "--rhs-degrees" in argv:
            monkeypatch.setattr(dynamics, "lyapunov_mc", _unreached)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {reason}" in captured.err

    # a ragged row exited 2 with numpy's "inhomogeneous shape", and a letter with
    # "could not convert string to float"
    @pytest.mark.parametrize("proj", ["nan,0,0,0;0,1,0,0", "1,0,0,0;0,1,0", "a,b,c,d;1,0,0,0"],
                             ids=["nan", "ragged", "letters"])
    def test_malformed_projection_is_named(self, proj, capsys):
        assert cli.main(["limitset", "--params", QUINTIC, "--L", "2", "--proj", proj]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: projection must be a finite 2x4 matrix" in captured.err

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
        # both lyapunov pins re-recorded when the sampler began to unfold cusp excursions
        # in closed form: the codes part from the loop's at the first jump, where the
        # crossing times differ in the last bits; and again when the transport began to
        # take each run of LYAP_RUN or more equal pair steps in one super step on Python
        # ints, which moved their exponents by at most 2.4e-12.  The geodesic's codes are
        # those of geodesic_sample from SeedSequence(seed), not of spawned seeds
        (["lyapunov", "--rep", "params", "--params", QUINTIC, "--T", "50", "--ntraj", "2",
          "--seed", "1"], "00fee744afe77708b6c953163686c5302e60ae30991ab37ca92fac9aa68443a8"),
        # a faster sampler must keep the mirror codes of the 2x2 path bit for bit
        (["lyapunov", "--rep", "sym3", "--sig", "2,3,inf", "--T", "200", "--ntraj", "4",
          "--seed", "5"], "de89459ad29e911c8f502d7c8fa58ed0f272c0d4a0dbd12d93e90c1128afe9a9"),
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

    def test_exponents_closer_than_a_float_ulp_are_decided_exactly(self, capsys):
        # alpha's 1/3 + 1e-20 and 2/3 - 1e-20 round to the floats of beta's 1/3 and 2/3
        params = ("100000000000000000003/300000000000000000000,1/2,1/2,"
                  "199999999999999999997/300000000000000000000:0,0,1/3,2/3")
        assert cli.main(["classify", "--params", params]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["hodge_numbers"] == [1, 1, 1, 1]
        assert report["assumption_a"] is True

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
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGV)
        assert exc.value.code == 2
        assert "required: --seed" in capsys.readouterr().err

    def test_negative_seed_is_refused(self, capsys):
        # numpy's own refusal, "expected non-negative integer", names no option
        assert cli.main(self.ARGV + ["--seed", "-1"]) == 2
        assert "error: T must be positive, with a finite arc length 2T, and seed non-negative" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["--T", "50", "--ntraj", str(10**18)], "allows at most "),
        (["--T", "0.5", "--ntraj", "2"], "too few for the warm-up"),
        # one batch gives no batch-means error
        (["--T", "200", "--ntraj", "1"], "n_traj=1: a batch-means error needs two batches"),
        # these named the floor "n_traj positive", which --ntraj 1 also fails
        (["--T", "200", "--ntraj", "0"], "n_traj=0: a batch-means error needs two batches"),
        (["--T", "200", "--ntraj", "-3"], "n_traj=-3: a batch-means error needs two batches"),
    ], ids=["ntraj-past-cut-points", "T-within-warm-up", "one-batch", "ntraj-0", "ntraj-negative"])
    def test_geodesic_too_short_refused(self, argv, message, capsys):
        assert cli.main(["lyapunov", "--rep", "sym3", "--seed", "1"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error: " in captured.err and message in captured.err

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


@pytest.mark.parametrize("kinds, ball_svds", [("cusp", False), ("attracting,cusp", True)])
def test_cusp_kind_runs_no_ball_svd(kinds, ball_svds, capsys, monkeypatch):
    # without attracting samples no gap is needed, and no SVD of a stack of ball matrices runs
    svd, stacks = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        stacks.append(np.ndim(a) == 3)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert cli.main(["limitset", "--params", QUINTIC, "--L", "6", "--kinds", kinds]) == 0
    assert any(stacks) == ball_svds
    assert "kind" in capsys.readouterr().out


@pytest.mark.parametrize("params, ball_svds", [(QUINTIC, False), (OCTIC, True)])
def test_certify_runs_a_ball_svd_only_on_a_float_frame(params, ball_svds, capsys, monkeypatch):
    # the quintic's ball is exact and symplectic in the J4 frame, so its gaps are the
    # closed form; the octic's frame is a float one, so its gaps are the SVDs
    svd, stacks = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        stacks.append(np.ndim(a) == 3)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert cli.main(["certify", "--params", params, "--L", "6"]) == 0
    assert any(stacks) == ball_svds
    assert "eps_hat" in capsys.readouterr().out


def test_one_chunk_certify_starts_no_thread():
    # quintic L=6 is one chunk, and L=9 four: the quintic's gaps are the closed form
    # of symplectic_gaps, so neither starts a worker thread or imports a thread pool
    env = dict(os.environ, PYTHONPATH=str(Path(hypermono.__file__).parents[1]))
    code = f"""
import contextlib, io, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda t: (started.append(t), start(t))
from hypermono import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["certify", "--params", "{QUINTIC}", "--L", L]) for L in ("6", "9")]
print(*codes, "concurrent.futures" in sys.modules, len(started))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 0 False 0"
