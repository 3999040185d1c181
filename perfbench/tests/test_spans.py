import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hypermono import cli, dynamics
from spans import Tracer


def traced_cli(tmp_path, argv):
    tracer = Tracer()
    with tracer.patched(), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        with tracer.span("job", job="j"):
            assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    return tracer


def names_of(tracer, idx):
    return None if idx is None else tracer.spans[idx].name


def assert_nested(tracer):
    for s in tracer.spans:
        if s.parent is not None:
            p = tracer.spans[s.parent]
            assert p.start <= s.start <= s.end <= p.end
            assert s.job == p.job == "j"


def assert_self_times_sum_to_job(tracer):
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(tracer.self_times()) == pytest.approx(root.duration, rel=1e-9, abs=1e-9)
    assert all(t >= 0 for t in tracer.self_times())


def test_lyapunov_spans_nest(tmp_path):
    tracer = traced_cli(tmp_path, ["lyapunov", "--rep", "sym3", "--T", "40", "--ntraj", "3",
                                   "--seed", "1"])
    geo = [s for s in tracer.spans if s.name == "fuchsian.geodesic_sample"]
    assert len(geo) == 3
    assert all(names_of(tracer, s.parent) == "dynamics.lyapunov_mc" for s in geo)
    assert sum(s.counts["events"] for s in geo) > 0
    assert_nested(tracer)
    assert_self_times_sum_to_job(tracer)


def test_certify_spans_nest(tmp_path):
    tracer = traced_cli(tmp_path, ["certify", "--params", "1/5,2/5,3/5,4/5:0,0,0,0", "--L", "4"])
    ball = [s for s in tracer.spans if s.name == "dynamics.enumerate_ball"]
    assert len(ball) == 1
    assert names_of(tracer, ball[0].parent) == "job"
    assert ball[0].counts["words"] == ball[0].counts["reduced_words"] == 149
    assert {s.name for s in tracer.spans} >= {"monodromy.build_rep", "monodromy.standardized",
                                              "fuchsian.build_domain",
                                              "dynamics.anosov_certificate"}
    assert_nested(tracer)
    assert_self_times_sum_to_job(tracer)


def test_wrapper_overhead_is_recorded(tmp_path):
    tracer = traced_cli(tmp_path, ["certify", "--params", "1/5,2/5,3/5,4/5:0,0,0,0", "--L", "4"])
    wrapped = [s for s in tracer.spans if s.name != "job"]
    assert wrapped and all(s.overhead > 0 for s in wrapped)
    job = next(s for s in tracer.spans if s.name == "job")
    assert sum(s.overhead for s in wrapped) < 0.05 * job.duration


def test_patch_is_undone():
    original = dynamics.enumerate_ball
    with Tracer().patched():
        assert dynamics.enumerate_ball is not original
    assert dynamics.enumerate_ball is original
