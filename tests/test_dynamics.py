import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from conftest import SIGNATURES, ball_for, ball_words
from hypermono import cli
from hypermono import _linalg
from hypermono import dynamics as dyn
from hypermono import fuchsian as fox
from hypermono import monodromy as mono
from hypermono import params as par
from hypermono.fuchsian import IDENT, INF, mat_inv, mat_mul, mat_normalize
from hypermono._linalg import SIGN_TOL, numerical_rank, projective_normalize
from oracles import _word_str, alpha1_gap, frobenius_distance

OCTIC = par.HypergeomParams(("1/8", "3/8", "5/8", "7/8"), ("0",) * 4)
RANK5 = par.HypergeomParams(("9/20", "1/2", "1/2", "1/2", "11/20"), ("0", "0", "0", "1/3", "2/3"))


def _canonical_exponent(k, order):
    if order == INF:
        return k
    e = int(order)
    k = k % e
    if k > e / 2:
        k -= e
    return k


def per_word_ball(gen_mats, orders, L, fuchs_gens=None):
    """The per-word reference loop: left multiplication, rounded float keys."""
    alphabet = list(gen_mats)
    mats = {s: np.asarray(gen_mats[s], dtype=float) for s in alphabet}
    invs = {s: np.linalg.inv(mats[s]) for s in alphabet}
    n = next(iter(mats.values())).shape[0]
    f_mats = None
    if fuchs_gens is not None:
        f_mats = {s: tuple(map(float, fuchs_gens[s])) for s in alphabet}
        f_invs = {s: mat_inv(f_mats[s]) for s in alphabet}

    def mkey(m):
        return tuple(np.round(m.ravel() / dyn.MAT_DEDUP_RES).astype(np.int64))

    words, out_mats, lengths = [()], [np.eye(n)], [0]
    out_fuchs = [IDENT] if f_mats is not None else None
    seen = {mkey(out_mats[0])}
    frontier = [((), out_mats[0], IDENT)]
    for ell in range(1, L + 1):
        nxt = []
        for word, mat, fm in frontier:
            for s in alphabet:
                for sgn in (1, -1):
                    if word and word[0][0] == s:
                        net = word[0][1] + sgn
                        if _canonical_exponent(net, orders.get(s, INF)) != net or net == 0:
                            continue
                        if abs(net) <= abs(word[0][1]):
                            continue
                        new_word = ((s, net),) + word[1:]
                    else:
                        if _canonical_exponent(sgn, orders.get(s, INF)) != sgn:
                            continue
                        new_word = ((s, sgn),) + word
                    new_mat = (mats[s] if sgn > 0 else invs[s]) @ mat
                    new_fm = fm
                    if f_mats is not None:
                        new_fm = mat_normalize(mat_mul(f_mats[s] if sgn > 0 else f_invs[s], fm))
                    key = mkey(new_mat)
                    if key in seen:
                        continue
                    seen.add(key)
                    nxt.append((new_word, new_mat, new_fm))
                    words.append(new_word)
                    out_mats.append(new_mat)
                    lengths.append(ell)
                    if out_fuchs is not None:
                        out_fuchs.append(new_fm)
        frontier = nxt
    return words, np.array(out_mats), np.array(lengths), out_fuchs


def _word_length(word):
    """The length of a reduced word: sum |k| over its syllables (s, k)."""
    return sum(abs(k) for _, k in word)


def _frac_matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def _frac_rref(rows):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _frac_rank(rows):
    return len(_frac_rref(rows)[1])


def _frac_inv(m):
    n = len(m)
    red, _ = _frac_rref([list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)])
    return tuple(tuple(row[n:]) for row in red)


def reference_classify(gen_mats, orders, v, L=6):
    """The per-word reference search: right multiplication in Fractions, a
    frontier that keeps duplicate matrices."""
    gens = {
        s: tuple(tuple(Fraction(int(round(x))) for x in row) for row in np.asarray(m).tolist())
        for s, m in gen_mats.items()
    }
    n = len(next(iter(gens.values())))
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    inv = {s: _frac_inv(m) for s, m in gens.items()}
    target = [Fraction(x) for x in v]

    def is_witness(u):
        d = tuple(tuple(u[i][j] - ident[i][j] for j in range(n)) for i in range(n))
        power = d
        for _ in range(n - 1):
            power = _frac_matmul(power, d)
        if any(any(row) for row in power):
            return False
        cols = [c for c in ([d[i][j] for i in range(n)] for j in range(n)) if any(c)]
        if not cols:
            return False
        if any(sum(d[i][j] * target[j] for j in range(n)) for i in range(n)):
            return False
        return _frac_rank(cols + [target]) == _frac_rank(cols)

    frontier = [((), ident)]
    seen = {ident}
    for _ in range(L):
        nxt = []
        for word, mat in frontier:
            for s in gens:
                for sgn in (1, -1):
                    if word and word[-1][0] == s:
                        net = word[-1][1] + sgn
                        if _canonical_exponent(net, orders.get(s, INF)) != net or net == 0:
                            continue
                        if abs(net) <= abs(word[-1][1]):
                            continue
                        new_word = word[:-1] + ((s, net),)
                    else:
                        if _canonical_exponent(sgn, orders.get(s, INF)) != sgn:
                            continue
                        new_word = word + ((s, sgn),)
                    new_mat = _frac_matmul(mat, gens[s] if sgn > 0 else inv[s])
                    nxt.append((new_word, new_mat))
                    if new_mat in seen:
                        continue
                    seen.add(new_mat)
                    if is_witness(new_mat):
                        return new_word, new_mat
        frontier = nxt
    return None


def _inputs(p, with_fuchs):
    std, _ = mono.build_rep(p).standardized()
    sig = fox.orbifold_signature(p)
    gens = {"0": std.h0, "inf": std.hinf}
    orders = {"0": sig.e0, "inf": sig.einf}
    fuchs = None
    if with_fuchs:
        dom = fox.build_domain(sig)
        fuchs = {"0": dom.gens["0"], "inf": dom.gens["inf"]}
    return gens, orders, fuchs


# the L=8 balls the per-word loop is run on, and the --params of their certify runs
BALLS8 = {"quintic": (par.MIRROR_QUINTIC, "1/5,2/5,3/5,4/5:0,0,0,0"),
          "octic": (OCTIC, "1/8,3/8,5/8,7/8:0,0,0,0")}


@pytest.fixture(scope="module")
def balls8():
    """name -> (ball, per-word loop) at L=8: the quintic with Fuchsian matrices, the octic without."""
    out = {}
    for name, (p, _) in BALLS8.items():
        gens, orders, fuchs = _inputs(p, name == "quintic")
        # the quintic's generators are integral: its mats are the exact integer products
        ref_gens = {s: np.rint(g) for s, g in gens.items()} if name == "quintic" else gens
        out[name] = (dyn.enumerate_ball(gens, orders, 8, fuchs_gens=fuchs),
                     per_word_ball(ref_gens, orders, 8, fuchs_gens=fuchs))
    return out


class TestEnumerateBall:
    @pytest.mark.parametrize("family, size", [("quintic", 10269), ("octic", 10440)],
                             ids=["quintic", "octic"])
    def test_matches_per_word_loop(self, balls8, family, size):
        ball, (words, mats, lengths, out_fuchs) = balls8[family]
        assert len(ball) == size
        got = ball_words(ball)
        assert got == words
        assert [_word_length(w) for w in got] == lengths.tolist()
        assert ball.mats.tobytes() == mats.tobytes()
        if family == "quintic":
            assert ball.fuchs.shape == (size, 4)
            assert ball.fuchs.tobytes() == np.array(out_fuchs).tobytes()
        else:
            assert ball.fuchs is None

    def test_length_zero(self):
        gens, orders, fuchs = _inputs(par.MIRROR_QUINTIC, True)
        ball = dyn.enumerate_ball(gens, orders, 0, fuchs_gens=fuchs)
        assert ball_words(ball) == [()]
        assert np.array_equal(ball.mats, np.eye(4)[None])
        assert ball.fuchs.tolist() == [list(IDENT)]

    def test_conftest_ball(self, mq_ball8):
        assert len(mq_ball8) == 10269
        assert max(map(_word_length, ball_words(mq_ball8))) == 8

    def test_exact_keys_past_int64(self):
        # Products of entries 2**32 wrap to the same int64 matrix for ab and ba
        # (1 + 2**64 = 1 mod 2**64); level 2 must use Python-int keys.  An entry
        # 2**70 is past int64 in the step table itself, which must stay Python
        # ints: cast once to int64, it wraps the ball to 4 words.
        for big in (2**32, 2**70):
            gens = {"a": np.array([[1.0, big], [0.0, 1.0]]),
                    "b": np.array([[1.0, 0.0], [big, 1.0]])}
            ball = dyn.enumerate_ball(gens, {"a": INF, "b": INF}, 2)
            assert len(ball) == 1 + 4 + 12
            words = ball_words(ball)
            assert (("a", 1), ("b", 1)) in words and (("b", 1), ("a", 1)) in words
            exact = {"a": [[1, big], [0, 1]], "b": [[1, 0], [big, 1]]}
            exact_inv = {"a": [[1, -big], [0, 1]], "b": [[1, 0], [-big, 1]]}
            for word, m in zip(words, ball.mats):
                prod = np.eye(2, dtype=int).astype(object)
                for s, k in reversed(word):
                    g = np.array(exact[s] if k > 0 else exact_inv[s], dtype=object)
                    for _ in range(abs(k)):
                        prod = g @ prod
                assert np.array_equal(m, prod.astype(float))

    @pytest.mark.parametrize("family", list(BALLS8))
    def test_words_are_pointers_into_the_ball(self, balls8, family, tmp_path, capsys):
        # each word is its first syllable and an earlier word; certify prints them unfolded
        ball, (words, *_) = balls8[family]
        rest = ball.rest.tolist()
        assert rest[0] == -1
        for i in range(1, len(words)):
            assert rest[i] < i and words[i][1:] == words[rest[i]]
        argv = ["certify", "--params", BALLS8[family][1], "--L", "8", "--out", str(tmp_path / "b")]
        assert cli.main(argv) == 0
        rows = (tmp_path / "b.csv").read_text().splitlines()
        assert rows[0] == "dist,gap,word"
        assert [row.rsplit(",", 1)[1] for row in rows[1:]] == list(map(_word_str, words))

    def test_key_set_keeps_first_copies(self):
        # repeats within one admit and across two
        for batches, admitted in (
            ([[[1, 0], [0, 1], [1, 0], [2, 2]], [[0, 1], [3, 0]]], [[0, 1, 3], [1]]),
            ([[[1, 0], [2, 2]], [[0, 1], [2, 2], [0, 1]]], [[0, 1], [0]]),
        ):
            keys = dyn._KeySet()
            got = [keys.admit(np.array(b, dtype=np.int64)).tolist() for b in batches]
            assert got == admitted

    def test_key_set_switch_to_python_ints(self):
        # a row admitted as int64 is not new when it comes back among Python ints
        keys = dyn._KeySet()
        assert keys.admit(np.array([[1, -2], [3, 4]], dtype=np.int64)).tolist() == [0, 1]
        batch = np.array([[2**70, 0], [3, 4], [1, -2], [5, 6], [2**70, 0]], dtype=object)
        assert keys.admit(batch).tolist() == [0, 3]
        assert keys.admit(np.array([[5, 6], [7, 8]], dtype=np.int64)).tolist() == [1]

    def test_float_keys_refuse_overflow(self):
        g = np.diag([1e6 + 0.5, 1.0 / (1e6 + 0.5)])
        h = np.array([[1.0, 0.5], [0.0, 1.0]])
        dyn.enumerate_ball({"g": g, "h": h}, {"g": INF, "h": INF}, 1)
        with pytest.raises(ArithmeticError, match="level 2"):
            dyn.enumerate_ball({"g": g, "h": h}, {"g": INF, "h": INF}, 2)


def _quintic_cusp_targets(count):
    """The cusp lines g.ker(h0 - id) of the first ``count`` ball words g."""
    gens, orders, _ = _inputs(par.MIRROR_QUINTIC, False)
    N = np.rint(gens["0"]).astype(np.int64) - np.eye(4, dtype=np.int64)
    N3 = N @ N @ N
    line = N3[:, np.flatnonzero(N3.any(axis=0))[0]]
    ball = dyn.enumerate_ball(gens, orders, 3)
    return gens, orders, [(np.rint(g).astype(np.int64) @ line).tolist() for g in ball.mats[:count]]


def _same(witness, reference):
    if reference is None:
        return witness is None
    return witness is not None and (witness.word, witness.unipotent) == reference


class TestRationalLimitClassify:
    def test_rejects_near_integral_generator(self):
        # 42.0004 passed the old np.allclose test (rtol 1e-5) and was rounded to 42.
        gens = {"a": np.array([[42.0004, 1.0], [-1.0, 0.0]]), "b": np.eye(2)}
        with pytest.raises(ValueError, match="integral generators and inverses"):
            dyn.rational_limit_classify(gens, {}, v=(1, 0), L=1)

    def test_rejects_non_integral_inverse(self):
        gens = {"a": np.array([[2.0, 0.0], [0.0, 1.0]]), "b": np.array([[1.0, 1.0], [0.0, 1.0]])}
        with pytest.raises(ValueError, match="integral generators and inverses"):
            dyn.rational_limit_classify(gens, {}, v=(1, 0), L=2)

    def test_irrational_target_refused(self):
        # a float must be a small-denominator rational up to rounding, as for exponents
        gens = {"a": np.array([[1.0, 1.0], [0.0, 1.0]]), "b": np.array([[0.0, -1.0], [1.0, 0.0]])}
        with pytest.raises(ValueError, match="not rational"):
            dyn.rational_limit_classify(gens, {"b": 4}, v=(math.pi, 1), L=1)

    @pytest.mark.parametrize("x", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_target_refused(self, x):
        # inf raised OverflowError, and nan Fraction's ValueError, from as_exact
        gens, orders, _ = _inputs(par.MIRROR_QUINTIC, False)
        with pytest.raises(ValueError, match="target coordinate .* is not rational"):
            dyn.rational_limit_classify(gens, orders, v=(x, 1, 0, 0), L=2)

    def test_unipotent_generator_is_witness(self):
        gens = {"a": np.array([[1.0, 1.0], [0.0, 1.0]]), "b": np.array([[0.0, -1.0], [1.0, 0.0]])}
        w = dyn.rational_limit_classify(gens, {"b": 4}, v=(1, 0), L=1)
        assert w.word == (("a", 1),)

    def test_quintic_cusp_lines_match_reference(self):
        gens, orders, targets = _quintic_cusp_targets(12)
        words = set()
        for v in targets:
            w = dyn.rational_limit_classify(gens, orders, v=v, L=5)
            assert _same(w, reference_classify(gens, orders, v=v, L=5))
            words.add(w.word)
            u = np.array(w.unipotent, dtype=object)
            assert np.array_equal(u @ np.array(v, dtype=object), np.array(v, dtype=object))
        assert len(words) >= 3  # conjugates of h0 at several word lengths, not h0 alone

    def test_quintic_no_witness(self):
        gens, orders, _ = _inputs(par.MIRROR_QUINTIC, False)
        assert dyn.rational_limit_classify(gens, orders, v=(1, 2, 3, 5), L=7) is None
        assert reference_classify(gens, orders, v=(1, 2, 3, 5), L=4) is None

    def test_rational_vector_scales(self):
        gens, orders, targets = _quintic_cusp_targets(6)
        v = targets[5]
        w = dyn.rational_limit_classify(gens, orders, v=v, L=5)
        assert w is not None
        for scaled in ([Fraction(x, 6) for x in v], [-3 * x for x in v], [x / 4 for x in v]):
            assert dyn.rational_limit_classify(gens, orders, v=scaled, L=5) == w

    def test_int64_bound_crossed(self):
        # Products of entries 2**31 leave int64 at level 2; v = b e1 has
        # max|v| = 2**31, so the prefilter needs Python ints from level 1.
        big = 2**31
        gens = {"a": np.array([[1.0, big], [0.0, 1.0]]), "b": np.array([[1.0, 0.0], [big, 1.0]])}
        orders = {"a": INF, "b": INF}
        w = dyn.rational_limit_classify(gens, orders, v=(1, big), L=3)
        assert w.word == (("b", 1), ("a", 1), ("b", -1))
        assert _same(w, reference_classify(gens, orders, v=(1, big), L=3))
        assert w.unipotent == ((1 - big**2, big), (-big**3, 1 + big**2))
        # no unipotent of this group fixes (1, 1): every element is id mod 2**31
        assert dyn.rational_limit_classify(gens, orders, v=(1, 1), L=3) is None
        assert reference_classify(gens, orders, v=(1, 1), L=3) is None


def per_vector_normalize(v):
    """The single-vector normalization: np.linalg.norm, then the sign of the first |x| > SIGN_TOL."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    for x in v:
        if abs(x) > SIGN_TOL:
            return -v if x < 0 else v
    return v


def cusp_line(h1):
    """im(h1 - id) of a transvection h1: the top left-singular vector of h1 - id."""
    return per_vector_normalize(np.linalg.svd(h1 - np.eye(len(h1)))[0][:, 0])


def per_sample_limit_curve(ball, gap_min, h1=None):
    """The per-sample reference loop: (point, ball index, gap, kind) tuples, deduplicated
    through a set."""
    out, seen = [], set()

    def push(vec, i, gap, kind):
        v = per_vector_normalize(vec)
        key = (kind, tuple(np.round(v / dyn.LIMIT_DEDUP_RES).astype(np.int64)))
        if key in seen:
            return
        seen.add(key)
        out.append((v, i, float(gap), kind))

    u, s, _ = np.linalg.svd(ball.mats)
    gaps = np.log(s[:, 0]) - np.log(s[:, 1])
    for i in range(len(ball)):
        if gaps[i] >= gap_min:
            push(u[i][:, 0], i, gaps[i], "attracting")
    if h1 is not None:
        pts = ball.mats @ cusp_line(h1)
        for i in range(len(ball)):
            push(pts[i], i, 0.0, "cusp")
    return out


def mats_ball(mats):
    """A ball of the given matrices, for ``limit_curve_samples``, which reads no word."""
    blank = np.full(len(mats), -1)
    return dyn.WordBall([], blank, np.zeros(len(mats), dtype=int), blank, mats, None)


LIMIT_FAMILIES = {
    "quintic": par.MIRROR_QUINTIC,
    "octic": OCTIC,
    "half": par.HypergeomParams(("1/2",) * 4, ("0",) * 4),
}


@pytest.fixture(scope="module")
def limit_balls():
    return {name: ball_for(p, 7)[:2] for name, p in LIMIT_FAMILIES.items()}


class TestLimitCurveSamples:
    def test_sample_words_are_ball_words(self, mq):
        # a cusp sample is the translate g.l of the cusp line l, so its word is g's
        ball, std, _ = ball_for(mq, 5)
        samples = dyn.limit_curve_samples(ball, 1.0, h1=std.h1)
        assert set(samples.kinds.tolist()) == {"attracting", "cusp"}
        assert 0 <= samples.index.min() and samples.index.max() < len(ball)
        line = cusp_line(std.h1)
        for point, i, kind in zip(samples.points, samples.index, samples.kinds):
            if kind == "cusp":
                translate = ball.mats[i] @ line
                assert abs(abs(point @ translate) / np.linalg.norm(translate) - 1.0) < 1e-9

    @pytest.mark.parametrize("family", list(LIMIT_FAMILIES))
    @pytest.mark.parametrize("gap_min", [1.0, 2.0, 1e3])
    @pytest.mark.parametrize("cusp", [False, True])
    def test_matches_per_sample_loop(self, limit_balls, family, gap_min, cusp):
        ball, std = limit_balls[family]
        got = dyn.limit_curve_samples(ball, gap_min, h1=std.h1 if cusp else None)
        want = per_sample_limit_curve(ball, gap_min, h1=std.h1 if cusp else None)
        assert len(got) == len(want) and got.points.shape == (len(want), 4)
        assert got.points.tobytes() == np.array([w[0] for w in want]).tobytes()
        assert got.gaps.tobytes() == np.array([w[2] for w in want], dtype=float).tobytes()
        assert got.kinds.tolist() == [w[3] for w in want]
        assert got.index.tolist() == [w[1] for w in want]
        attracting = got.kinds == "attracting"
        if gap_min == 1e3:  # above every gap of the ball
            assert not attracting.any()
        else:
            assert attracting.sum() > 100
        assert (not attracting.all()) == cusp

    def test_dedup_is_per_kind_first_copy(self, limit_balls):
        # two copies of one matrix whose attracting point is the cusp line l, which
        # it fixes: each kind keeps its first copy, and the kinds do not share keys
        _, std = limit_balls["quintic"]
        line = cusp_line(std.h1)
        q, _ = np.linalg.qr(np.column_stack([line, np.eye(4)[:, :3]]))
        m = q @ np.diag([20.0, 2.0, 0.5, 0.05]) @ q.T
        ball = mats_ball(np.stack([m, m]))
        got = dyn.limit_curve_samples(ball, 1.0, h1=std.h1)
        assert got.kinds.tolist() == ["attracting", "cusp"] and got.index.tolist() == [0, 0]
        assert got.points.tobytes() == np.array([w[0] for w in per_sample_limit_curve(
            ball, 1.0, h1=std.h1)]).tobytes()
        assert np.abs(got.points[0] - got.points[1]).max() < dyn.LIMIT_DEDUP_RES

    def test_strided_stack_normalizes_row_by_row(self, limit_balls):
        # the stacked norm of the strided view u[:, :, 0] differs from the
        # per-row norm in the last bit on some rows, unless the helper copies
        # the stack to C order first
        ball, _ = limit_balls["octic"]
        u = np.linalg.svd(ball.mats)[0]
        stacked = projective_normalize(u[:, :, 0])
        for i, row in enumerate(stacked):
            one = projective_normalize(u[i, :, 0])
            assert row.tobytes() == one.tobytes() == per_vector_normalize(u[i, :, 0]).tobytes()


@pytest.fixture
def svd_calls(request, monkeypatch):
    """Chunks of 5 matrices on the CPUs of the affinity mask ``request.param``, by
    default 3 CPUs (the consumer and 2 workers), threads switched every microsecond.
    Yields the list of (``threading.active_count()``, address of the first matrix) of
    each ``np.linalg.svd`` call."""
    cpus = getattr(request, "param", {0, 1, 2})
    monkeypatch.setattr(_linalg, "SVD_CHUNK", 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    svd, calls = np.linalg.svd, []

    def recording_svd(a, *args, **kwargs):
        calls.append((threading.active_count(), a.__array_interface__["data"][0]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield calls
    finally:
        sys.setswitchinterval(interval)


def ball_gaps(ball):
    """The ball's gaps, collected from the chunks of ``singular_gaps`` as ``certify`` does."""
    return np.concatenate([g for g, _ in _linalg.singular_gaps(ball.mats, top=False)])


class TestSingularGaps:
    @pytest.mark.parametrize("n_mats", [1, 5, 6, 23, None], ids=lambda n: f"N={n or 'ball'}")
    @pytest.mark.parametrize("top", [False, True])
    def test_chunks_match_one_stacked_svd(self, limit_balls, svd_calls, n_mats, top):
        mats = limit_balls["octic"][0].mats[:n_mats]
        if top:
            u, s, _ = np.linalg.svd(mats)
        else:
            s = np.linalg.svd(mats, compute_uv=False)
        svd_calls.clear()  # the reference call
        before = threading.active_count()
        chunks = list(_linalg.singular_gaps(mats, top))
        starts = list(range(0, len(mats), 5))
        # the chunks come in stack order, and each is computed once
        assert [len(g) for g, _ in chunks] == [len(mats[i:i + 5]) for i in starts]
        base = mats.__array_interface__["data"][0]
        assert sorted((a - base) // mats.strides[0] for _, a in svd_calls) == starts
        gaps = np.concatenate([g for g, _ in chunks])
        assert gaps.tobytes() == (np.log(s[:, 0]) - np.log(s[:, 1])).tobytes()
        if top:
            assert np.concatenate([t for _, t in chunks]).tobytes() == u[:, :, 0].tobytes()
        else:
            assert all(t is None for _, t in chunks)
        # one chunk starts no thread; more start at most 2, and all of them end
        peak = max(count for count, _ in svd_calls)
        assert peak == before if len(mats) <= 5 else before < peak <= before + 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("svd_calls", [{0}], indirect=True, ids=["one-cpu"])
    @pytest.mark.parametrize("top", [False, True])
    def test_one_cpu_starts_no_thread(self, limit_balls, svd_calls, monkeypatch, top):
        # an affinity mask of one CPU (taskset -c 0): the consumer computes every chunk
        mats = limit_balls["octic"][0].mats[:23]
        reference = np.linalg.svd(mats, compute_uv=top)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
        chunks = list(_linalg.singular_gaps(mats, top))
        assert started == [] and len(svd_calls) == 1 + 5
        s = reference[1] if top else reference
        gaps = np.concatenate([g for g, _ in chunks])
        assert gaps.tobytes() == (np.log(s[:, 0]) - np.log(s[:, 1])).tobytes()
        if top:
            tops = np.concatenate([t for _, t in chunks])
            assert tops.tobytes() == reference[0][:, :, 0].tobytes()

    def test_chunks_are_computed_ahead(self, limit_balls, svd_calls):
        # the workers start at the call, before the first chunk is asked for
        mats = limit_balls["octic"][0].mats[:23]
        before = set(threading.enumerate())
        stream = _linalg.singular_gaps(mats, False)
        for worker in set(threading.enumerate()) - before:
            worker.join(timeout=10)
            assert not worker.is_alive()
        assert len(svd_calls) == 5  # the workers took every chunk, and left the consumer none
        assert sum(len(g) for g, _ in stream) == 23
        assert len(svd_calls) == 5 and set(threading.enumerate()) == before

    @pytest.mark.parametrize("top", [False, True])
    def test_close_after_first_chunk_ends_every_thread(self, limit_balls, svd_calls, top):
        mats = limit_balls["octic"][0].mats
        before = threading.active_count()
        stream = _linalg.singular_gaps(mats, top)
        gaps, _ = next(stream)
        assert len(gaps) == 5
        calls = len(svd_calls)
        stream.close()
        assert threading.active_count() == before
        # no chunk is claimed once the stream is closed: each worker ends after its current one
        assert len(svd_calls) <= calls + 2

    @pytest.mark.parametrize("bad", [[17], [5, 10, 15, 20]], ids=["last-chunk", "all-but-first"])
    @pytest.mark.parametrize("top", [False, True])
    def test_failed_chunk_raises_and_ends_every_thread(self, limit_balls, svd_calls, bad, top):
        mats = limit_balls["octic"][0].mats[:23].copy()
        mats[bad, 0, 0] = np.nan
        before = threading.active_count()
        stream = _linalg.singular_gaps(mats, top)
        assert len(next(stream)[0]) == 5  # the chunks before the first bad one come out
        with pytest.raises(np.linalg.LinAlgError):
            list(stream)
        assert threading.active_count() == before


# the 14 Doran-Morgan families alpha = (a1, a2, 1 - a2, 1 - a1), beta = 0^4
DORAN_MORGAN = ["1/5,2/5", "1/2,1/2", "1/4,1/2", "1/8,3/8", "1/12,5/12", "1/3,1/2", "1/6,1/2",
                "1/10,3/10", "1/3,1/3", "1/6,1/3", "1/4,1/4", "1/6,1/6", "1/4,1/3", "1/6,1/4"]

# a unipotent with two Jordan blocks of size 2: e_i -> e_i + f_i, so h1 - id has rank 2
TWO_BLOCK = np.eye(4)
TWO_BLOCK[2, 0] = TWO_BLOCK[3, 1] = 1.0


def library_cusp_line(h1):
    """The cusp line of ``limit_curve_samples``: its one cusp sample of the identity word."""
    ball = mats_ball(np.eye(len(h1))[None])
    samples = dyn.limit_curve_samples(ball, 1.0, h1=h1)
    assert samples.kinds.tolist() == ["cusp"]
    return samples.points[0]


class TestCuspLine:
    @pytest.mark.parametrize("a", DORAN_MORGAN)
    def test_line_is_fixed_and_spans_the_image(self, a):
        a1, a2 = map(Fraction, a.split(","))
        p = par.HypergeomParams(tuple(map(str, (a1, a2, 1 - a2, 1 - a1))), ("0",) * 4)
        std, _ = mono.build_rep(p).standardized()
        line = library_cusp_line(std.h1)
        # the identity word's sample is the line, up to the sign of a zero entry
        assert np.array_equal(line, cusp_line(std.h1))
        assert np.linalg.norm(std.h1 @ line - line) <= 1e-12
        assert numerical_rank(np.column_stack([std.h1 - np.eye(4), line])) == 1

    @pytest.mark.parametrize("h1", [np.eye(4), TWO_BLOCK], ids=["identity", "two-block"])
    def test_non_transvection_refused(self, h1):
        # at rank 0 or 2 there is no one cusp line, and no cusp sample is made up
        with pytest.raises(ValueError, match="h1 - id has rank [02], not 1"):
            library_cusp_line(h1)


class TestAnosovCertificate:
    def test_pruned_hull_equals_full_hull(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            m = int(rng.integers(1, 400))
            xs = rng.integers(0, 12, size=m).astype(float)  # many equal-x ties
            ys = rng.integers(-6, 6, size=m).astype(float)
            if trial % 3 == 0:  # a collinear run, some of it on the hull
                t = rng.integers(0, 12, size=m // 2).astype(float)
                xs[: m // 2], ys[: m // 2] = t, 0.5 * t - 8
            if trial % 3 == 1:
                xs, ys = rng.normal(size=m), rng.normal(size=m)
            if trial % 6 == 5:  # x within the 1e-12 equal-x tolerance, not equal
                xs = xs + rng.integers(-1, 2, size=m) * 1e-13
            keep = dyn._hull_candidates(xs, ys)
            assert dyn._lower_hull(xs[keep].tolist(), ys[keep].tolist()) == dyn._lower_hull(
                xs.tolist(), ys.tolist()
            )

    def test_near_tie_keeps_lower_point(self):
        # (1e-13, -3) counts as x = 0 and is lower than (0, 0), so it replaces it.
        xs, ys = np.array([0.0, 1e-13, 1.0, 3.0]), np.array([0.0, -3.0, -2.0, -3.0])
        assert dyn._lower_hull(xs.tolist(), ys.tolist()) == [(1e-13, -3.0), (3.0, -3.0)]
        keep = dyn._hull_candidates(xs, ys)
        assert dyn._lower_hull(xs[keep].tolist(), ys[keep].tolist()) == [(1e-13, -3.0), (3.0, -3.0)]

    def test_distances_match_scalar(self, mq):
        ball, _, _ = ball_for(mq, 6, with_fuchs=True)
        want = [frobenius_distance(tuple(f)) for f in ball.fuchs.tolist()]
        assert dyn.frobenius_distances(ball).tolist() == want

    def test_gaps_match_cartan_projection(self, mq):
        ball, _, _ = ball_for(mq, 6, with_fuchs=True)
        want = [alpha1_gap(g) for g in ball.mats]
        assert np.allclose(ball_gaps(ball), want, rtol=1e-12, atol=1e-12)

    def test_sym3_gap_equals_distance(self):
        # For Sym^3 of a Fuchsian group, mu_1 - mu_2 = 2 log sigma_1 = dist(i, g i).
        sig = fox.OrbifoldSignature(2, 3, INF)
        dom = fox.build_domain(sig)
        fuchs = {"0": dom.gens["0"], "inf": dom.gens["inf"]}
        gens = {s: dyn.sym_cube(np.array(g).reshape(2, 2)) for s, g in fuchs.items()}
        ball = dyn.enumerate_ball(gens, {"0": sig.e0, "inf": sig.einf}, 8, fuchs_gens=fuchs)
        dists, gaps = dyn.frobenius_distances(ball), ball_gaps(ball)
        cert = dyn.anosov_certificate(dists, gaps)
        assert abs(cert.eps_hat - 1.0) < 1e-9
        assert abs(cert.c_hat) < 1e-9
        assert np.allclose(gaps, dists, atol=1e-9)

    def test_requires_fuchsian_matrices(self, mq_ball8):
        with pytest.raises(ValueError, match="Fuchsian"):
            dyn.frobenius_distances(mq_ball8)


def per_event_lyapunov(rep_mats, sig, T, n_traj, seed):
    """The per-event reference loop: one trajectory at a time, one 2-D QR per pair of crossings."""
    mats = [np.asarray(m, dtype=float) for m in rep_mats]
    n = mats[0].shape[0]
    t_each = T / n_traj
    rows, discarded = [], 0
    for sq in np.random.SeedSequence(seed).spawn(n_traj):
        codes = list(fox.geodesic_sample(sig, sq, 2.0 * t_each).events)
        frame, logs, bad = np.eye(n), np.zeros(n), False
        for k in range(0, len(codes), 2):
            # code i folds the geodesic back by r_i, so the frame gains rho(r_i);
            # codes i, j make one step rho(r_j) rho(r_i), and an odd last code one rho(r_i)
            pair = codes[k:k + 2]
            step = mats[pair[1]] @ mats[pair[0]] if len(pair) == 2 else mats[pair[0]]
            q, r = np.linalg.qr(step @ frame)
            d = np.sign(np.diag(r))
            d[d == 0] = 1.0
            frame = q * d
            diag = np.abs(np.diag(r))
            if not np.all(np.isfinite(diag)) or np.any(diag == 0):
                bad = True
                break
            logs += np.log(diag)
        if bad:
            discarded += 1
            continue
        rows.append(logs / t_each)
    if not rows:
        raise RuntimeError("all trajectories were discarded")
    per = np.array(rows)
    err = per.std(axis=0, ddof=1) / np.sqrt(len(rows)) if len(rows) > 1 else np.zeros(n)
    return dyn.LyapunovResult(
        exponents=per.mean(axis=0),
        stderr=err,
        per_trajectory=per,
        n_discarded=discarded,
    )


@pytest.fixture(scope="module")
def lyap_reps(modular_dom, modular_sig, mq, mq_sig):
    r_a, r_b, r_c = (np.array(r).reshape(2, 2) for r in modular_dom.reflections)
    tiny = 1e-310 * np.eye(2)
    return {
        "sym3": ([dyn.sym_cube(r) for r in (r_a, r_b, r_c)], modular_sig),
        "fuchsian": ((r_a, r_b, r_c), modular_sig),
        "quintic": (mono.reflection_matrices(*mono.levelt_matrices(mq)), mq_sig),
        "rank5": (mono.reflection_matrices(*mono.levelt_matrices(RANK5)),
                  fox.orbifold_signature(RANK5)),
        # the pair steps of mirrors a and c underflow to the zero matrix: trajectories
        # that cross a and c one after the other in a pair are discarded
        "partial_discard": ((tiny, r_b, tiny), modular_sig),
    }


class TestLyapunovMC:
    @pytest.mark.parametrize(
        "rep, T, n_traj, seed, discarded",
        [
            ("sym3", 400, 8, 3, 0),
            ("fuchsian", 300, 5, 11, 0),
            ("quintic", 200, 4, 2, 0),
            ("fuchsian", 50, 1, 4, 0),
            ("partial_discard", 4, 8, 0, 5),
        ],
    )
    def test_matches_per_event_loop(self, lyap_reps, rep, T, n_traj, seed, discarded):
        rep_mats, sig = lyap_reps[rep]
        got = dyn.lyapunov_mc(rep_mats, sig, T, n_traj, seed)
        want = per_event_lyapunov(rep_mats, sig, T, n_traj, seed)
        assert got.n_discarded == want.n_discarded == discarded
        assert got.per_trajectory.tobytes() == want.per_trajectory.tobytes()
        assert got.exponents.tobytes() == want.exponents.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()

    def test_all_discarded_raises(self, modular_sig):
        # every trajectory here makes a pair step, and every pair step underflows to 0
        rep_mats = (1e-310 * np.eye(2),) * 3
        for run in (dyn.lyapunov_mc, per_event_lyapunov):
            with pytest.raises(RuntimeError, match="all trajectories were discarded"):
                run(rep_mats, modular_sig, 4, 3, 0)

    @pytest.mark.parametrize("rep", ["sym3", "fuchsian", "quintic", "rank5"])
    def test_rows_sum_to_zero(self, lyap_reps, rep):
        # every reflection has determinant -1, so the log growths of a frame cancel
        rep_mats, sig = lyap_reps[rep]
        per = dyn.lyapunov_mc(rep_mats, sig, 400, 8, 3).per_trajectory
        assert np.abs(per.sum(axis=1)).max() < 1e-10

    def test_sym3_spectrum_is_3_1_m1_m3(self, lyap_reps):
        # Sym^3(QR) = Sym^3(Q) Sym^3(R) with Sym^3(Q) orthogonal in sym_cube's
        # basis, so on the same geodesics each row is (3, 1, -1, -3) lambda_1.
        sym3 = dyn.lyapunov_mc(*lyap_reps["sym3"], 400, 8, 3).per_trajectory
        fuchs = dyn.lyapunov_mc(*lyap_reps["fuchsian"], 400, 8, 3).per_trajectory
        assert np.abs(sym3 - np.outer(fuchs[:, 0], [3, 1, -1, -3])).max() < 1e-5

    @pytest.mark.parametrize("e", SIGNATURES, ids=lambda e: "-".join(map(str, e)))
    def test_fuchsian_top_exponent_is_one(self, e):
        # finite-time estimates sit about 1e-3 below 1, one to two stderrs
        # (ROADMAP item 12), so the check uses a fixed 0.01, not the stderr
        sig = fox.OrbifoldSignature(*e)
        dom = fox.build_domain(sig)
        gens = [np.array(r).reshape(2, 2) for r in dom.reflections]
        result = dyn.lyapunov_mc(gens, sig, 2000, 20, 7)
        assert abs(result.exponents[0] - 1.0) < 0.01


class TestSumFormulaReport:
    RESULT = dyn.LyapunovResult(
        exponents=np.array([3.0, 1.0, -1.0, -3.0]),
        stderr=np.zeros(4),
        per_trajectory=np.array([[3.0, 1.0, -1.0, -3.0]]),
        n_discarded=0,
    )

    def test_without_degrees(self):
        report = dyn.sum_formula_report(self.RESULT, -0.5, None)
        assert report == {
            "lambda_sum": 4.0,
            "chi": -0.5,
            "evaluated": False,
            "note": "not evaluated (no degree data supplied)",
        }

    def test_with_degrees(self):
        # right-hand side 2 * sum(degrees) / |chi|; chi < 0 on a hyperbolic signature
        report = dyn.sum_formula_report(self.RESULT, -0.5, rhs_degrees=[0.75, 0.25])
        assert report["evaluated"] is True and report["lambda_sum"] == 4.0
        assert report["rhs"] == 4.0
        assert report["abs_discrepancy"] == 0.0 and report["rel_discrepancy"] == 0.0
        report = dyn.sum_formula_report(self.RESULT, -0.5, rhs_degrees=[0.5, 0.25])
        assert report["rhs"] == 3.0
        assert report["abs_discrepancy"] == 1.0
        assert report["rel_discrepancy"] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_zero_chi_rejected(self):
        with pytest.raises(ValueError, match="chi must be nonzero"):
            dyn.sum_formula_report(self.RESULT, 0.0, None)
