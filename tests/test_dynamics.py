import dataclasses
import gc
import inspect
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import MIRROR_QUINTIC, SIGNATURES, ball_for, ball_words
from hypermono import cli
from hypermono import _linalg
from hypermono import dynamics as dyn
from hypermono import fuchsian as fox
from hypermono import monodromy as mono
from hypermono import params as par
from hypermono.fuchsian import IDENT, INF, mat_inv, mat_mul, mat_normalize
from hypermono._linalg import SIGN_TOL, numerical_rank, projective_normalize
from oracles import _word_str, alpha1_gap, frobenius_distance, reduced_word_count

OCTIC = par.HypergeomParams(("1/8", "3/8", "5/8", "7/8"), ("0",) * 4)
RANK5 = par.HypergeomParams(("9/20", "1/2", "1/2", "1/2", "11/20"), ("0", "0", "0", "1/3", "2/3"))

# the 14 Doran-Morgan families alpha = (a1, a2, 1 - a2, 1 - a1), beta = 0^4
DORAN_MORGAN = ["1/5,2/5", "1/2,1/2", "1/4,1/2", "1/8,3/8", "1/12,5/12", "1/3,1/2", "1/6,1/2",
                "1/10,3/10", "1/3,1/3", "1/6,1/3", "1/4,1/4", "1/6,1/6", "1/4,1/3", "1/6,1/4"]


def doran_morgan(a):
    """The Doran-Morgan family of ``DORAN_MORGAN`` entry ``a``."""
    a1, a2 = map(Fraction, a.split(","))
    return par.HypergeomParams(tuple(map(str, (a1, a2, 1 - a2, 1 - a1))), ("0",) * 4)


def _canonical_exponent(k, order):
    if order == INF:
        return k
    e = int(order)
    k = k % e
    if k > e / 2:
        k -= e
    return k


def per_word_ball(gen_mats, orders, L, fuchs_gens=None):
    """The per-word reference loop: left multiplication, every reduced word kept."""
    alphabet = list(gen_mats)
    mats = {s: np.asarray(gen_mats[s], dtype=float) for s in alphabet}
    invs = {s: np.linalg.inv(mats[s]) for s in alphabet}
    n = next(iter(mats.values())).shape[0]
    f_mats = None
    if fuchs_gens is not None:
        f_mats = {s: tuple(map(float, fuchs_gens[s])) for s in alphabet}
        f_invs = {s: mat_inv(f_mats[s]) for s in alphabet}

    words, out_mats, lengths = [()], [np.eye(n)], [0]
    out_fuchs = [IDENT] if f_mats is not None else None
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
BALLS8 = {"quintic": (MIRROR_QUINTIC, "1/5,2/5,3/5,4/5:0,0,0,0"),
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
    @pytest.mark.parametrize("family, size", [("quintic", 10269), ("octic", 12608)],
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
        gens, orders, fuchs = _inputs(MIRROR_QUINTIC, True)
        ball = dyn.enumerate_ball(gens, orders, 0, fuchs_gens=fuchs)
        assert ball_words(ball) == [()]
        assert np.array_equal(ball.mats, np.eye(4)[None])
        assert ball.fuchs.tolist() == [list(IDENT)]

    def test_conftest_ball(self, mq_ball8):
        assert len(mq_ball8) == 10269
        assert max(map(_word_length, ball_words(mq_ball8))) == 8

    def test_exact_products_refused_past_2_53(self):
        # Entries 2**24: level 2's products reach 1 + 2**48 and are exact floats, but
        # level 3 could pass 2**53 (n * max|g| * max|X| = 2**73) and is refused.  An
        # entry 2**70 is past 2**53 in the step table itself: level 1 is refused.
        big = 2**24
        gens = {"a": np.array([[1.0, big], [0.0, 1.0]]), "b": np.array([[1.0, 0.0], [big, 1.0]])}
        orders = {"a": INF, "b": INF}
        ball = dyn.enumerate_ball(gens, orders, 2)
        assert len(ball) == 1 + 4 + 12
        exact = {("a", 1): [[1, big], [0, 1]], ("a", -1): [[1, -big], [0, 1]],
                 ("b", 1): [[1, 0], [big, 1]], ("b", -1): [[1, 0], [-big, 1]]}
        for word, m in zip(ball_words(ball), ball.mats):
            prod = np.eye(2, dtype=int).astype(object)
            for s, k in reversed(word):
                for _ in range(abs(k)):
                    prod = np.array(exact[s, 1 if k > 0 else -1], dtype=object) @ prod
            assert m.tolist() == prod.tolist()
        with pytest.raises(ArithmeticError, match="level 3"):
            dyn.enumerate_ball(gens, orders, 3)
        huge = {s: np.where(g == big, 2.0**70, g) for s, g in gens.items()}
        assert len(dyn.enumerate_ball(huge, orders, 0)) == 1
        with pytest.raises(ArithmeticError, match="level 1"):
            dyn.enumerate_ball(huge, orders, 1)

    def test_level_1_refused_before_the_ball_is_allocated(self):
        # level 1's check reads only the identity and the step table, so it comes before
        # the ball's arrays are allocated: at L=40 (about 2.4e19 words, past what any
        # array holds) the entry 2**70 is still refused at level 1, at once
        gens = {"a": np.array([[1.0, 2.0**70], [0.0, 1.0]]),
                "b": np.array([[1.0, 0.0], [2.0**70, 1.0]])}
        tracemalloc.start()
        try:
            with pytest.raises(ArithmeticError, match="level 1"):
                dyn.enumerate_ball(gens, {"a": INF, "b": INF}, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ball_is_held_once(self):
        # the levels' matrices and Fuchsian rows are written in place into the ball's
        # arrays: the traced peak stays within 1.5x the bytes returned, where joining
        # the levels held both copies at once (2.00x)
        gens, orders, fuchs = _inputs(MIRROR_QUINTIC, True)
        tracemalloc.start()
        try:
            ball = dyn.enumerate_ball(gens, orders, 9, fuchs_gens=fuchs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ball) == 29527
        held = sum(a.nbytes for a in (ball.letter, ball.exponent, ball.rest, ball.mats,
                                      ball.fuchs))
        assert peak <= 1.5 * held

    @pytest.mark.parametrize("family", list(BALLS8))
    def test_engine_yields_levels_only(self, balls8, family):
        # one (letter, exponent, rest, X) tuple per length 0..L, arrays of one length,
        # and nothing else: the levels, concatenated, are the ball
        gens, orders, _ = _inputs(BALLS8[family][0], False)
        alphabet = list(gens)
        levels = list(dyn._ball_levels(*dyn._step_table(gens, alphabet), orders, 8, alphabet))
        assert len(levels) == 9
        for level in levels:
            assert isinstance(level, tuple) and len(level) == 4
            letter, exponent, rest, X = level
            assert len(exponent) == len(rest) == len(X) == len(letter)
        # the ball, built in place, holds the levels bit for bit; the Fuchsian rows are
        # checked against the per-word loop in test_matches_per_word_loop
        ball = balls8[family][0]
        for k, name in enumerate(("letter", "exponent", "rest", "mats")):
            joined, got = np.concatenate([level[k] for level in levels]), getattr(ball, name)
            assert joined.dtype == got.dtype and joined.tobytes() == got.tobytes()
        # the words that are some word's rest, the only values unfold keeps, end where
        # the stream's last level starts
        assert int(ball.rest.max()) + 1 == len(ball) - len(levels[-1][0])

    def test_step_table_decides_integrality(self):
        # each generator, then its np.linalg.inv; an integral table comes back rounded
        for p, integral in ((MIRROR_QUINTIC, True), (OCTIC, False)):
            gens, _, _ = _inputs(p, False)
            table, exact = dyn._step_table(gens, ["inf", "0"])
            assert exact is integral
            stack = np.stack([x for s in ("inf", "0") for x in (gens[s], np.linalg.inv(gens[s]))])
            assert table.tobytes() == (np.round(stack) if integral else stack).tobytes()

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

    @pytest.mark.parametrize("convention", ["gl", "projective"])
    @pytest.mark.parametrize("a", DORAN_MORGAN)
    def test_ball_is_the_free_products_normal_form(self, a, convention):
        # e1 = inf, so the triangle group is the free product <gamma0> * <gamma_inf>,
        # and the ball holds each of its reduced words once
        p = doran_morgan(a)
        sig = fox.orbifold_signature(p, convention)
        assert sig.e1 == INF
        std, _ = mono.build_rep(p).standardized()
        ball = dyn.enumerate_ball({"0": std.h0, "inf": std.hinf}, {"0": sig.e0, "inf": sig.einf}, 8)
        assert len(ball) == reduced_word_count([sig.e0, sig.einf], 8)
        assert len(set(ball_words(ball))) == len(ball)

    @pytest.mark.parametrize("convention, count", [("gl", 9), ("projective", 0)])
    def test_octic_words_with_scalar_image(self, convention, count):
        # under gl, h_inf has order 8 although h_inf^4 = -I: rho sends reduced words of
        # Z * Z/8 to +-I (ROADMAP item 2); projective takes order 4, and none remain.
        # Decided exactly on the integral Levelt frame.
        hinf, h0 = mono.levelt_matrices(OCTIC)
        sig = fox.orbifold_signature(OCTIC, convention)
        ball = dyn.enumerate_ball({"0": h0, "inf": hinf}, {"0": sig.e0, "inf": sig.einf}, 8)
        eye = np.eye(4)
        scalar = np.all(ball.mats == eye, axis=(1, 2)) | np.all(ball.mats == -eye, axis=(1, 2))
        hits = np.flatnonzero(scalar[1:]) + 1
        assert len(hits) == count
        if count:
            assert ball_words(ball)[hits[0]] == (("inf", 4),)


def _quintic_cusp_targets(count):
    """The cusp lines g.ker(h0 - id) of the first ``count`` ball words g."""
    gens, orders, _ = _inputs(MIRROR_QUINTIC, False)
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

    def test_non_integral_table_refused_before_any_level(self, monkeypatch):
        # the refusal reads _step_table's flag: the engine is not started, even at L=0
        def unreached(*args, **kwargs):
            raise AssertionError("the word-ball engine was started")

        monkeypatch.setattr(dyn, "_ball_levels", unreached)
        gens = {"a": np.array([[2.0, 0.0], [0.0, 1.0]]), "b": np.array([[1.0, 1.0], [0.0, 1.0]])}
        with pytest.raises(ValueError, match="integral generators and inverses"):
            dyn.rational_limit_classify(gens, {}, v=(1, 0), L=0)

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
        gens, orders, _ = _inputs(MIRROR_QUINTIC, False)
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
        gens, orders, _ = _inputs(MIRROR_QUINTIC, False)
        assert dyn.rational_limit_classify(gens, orders, v=(1, 2, 3, 5), L=7) is None
        assert reference_classify(gens, orders, v=(1, 2, 3, 5), L=4) is None

    def test_rational_vector_scales(self):
        gens, orders, targets = _quintic_cusp_targets(6)
        v = targets[5]
        w = dyn.rational_limit_classify(gens, orders, v=v, L=5)
        assert w is not None
        for scaled in ([Fraction(x, 6) for x in v], [-3 * x for x in v], [x / 4 for x in v]):
            assert dyn.rational_limit_classify(gens, orders, v=scaled, L=5) == w

    def test_exact_bound_refused(self):
        # Entries 2**31: with v = b e1, max|v| = 2**31, the prefilter's (u - id) v
        # could pass 2**53 at level 1; with v = (1, 1) the engine's level 2 could.
        big = 2**31
        gens = {"a": np.array([[1.0, big], [0.0, 1.0]]), "b": np.array([[1.0, 0.0], [big, 1.0]])}
        orders = {"a": INF, "b": INF}
        with pytest.raises(ArithmeticError, match=r"level 1: \(u - id\) v"):
            dyn.rational_limit_classify(gens, orders, v=(1, big), L=3)
        assert dyn.rational_limit_classify(gens, orders, v=(1, 1), L=1) is None
        with pytest.raises(ArithmeticError, match="level 2: exact products"):
            dyn.rational_limit_classify(gens, orders, v=(1, 1), L=3)


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

    if h1 is not None:
        pts = ball.mats @ cusp_line(h1)
        for i in range(len(ball)):
            push(pts[i], i, 0.0, "cusp")
    u, s, _ = np.linalg.svd(ball.mats)
    gaps = np.log(s[:, 0]) - np.log(s[:, 1])
    for i in range(len(ball)):
        if gaps[i] >= gap_min:
            push(u[i][:, 0], i, gaps[i], "attracting")
    return out


def streamed_limit_curve(ball, gap_min, h1):
    """``limit_curve_samples``, checked against the blocks its sink got: one cusp block per
    chunk of ball rows, then one attracting block per SVD chunk, each of one kind and of
    the rows of one chunk, which concatenated in that order are the returned samples
    byte for byte."""
    blocks = []
    got = dyn.limit_curve_samples(ball, gap_min, h1, blocks.append)
    chunks = list(range(-(-len(ball) // _linalg.SVD_CHUNK)))
    kinds = [kind for kind, given in (("cusp", h1), ("attracting", gap_min)) if given is not None
             for _ in chunks]
    assert len(blocks) == len(kinds)
    for kind, chunk, block in zip(kinds, chunks * 2, blocks):
        assert set(block.kinds.tolist()) <= {kind}
        assert set((block.index // _linalg.SVD_CHUNK).tolist()) <= {chunk}
    for field in ("points", "gaps", "kinds", "index"):
        joined = np.concatenate([getattr(b, field) for b in blocks])
        assert joined.dtype == getattr(got, field).dtype
        assert joined.tobytes() == getattr(got, field).tobytes()
    return got


def mats_ball(mats):
    """A ball of the given matrices, for ``limit_curve_samples``, which reads no word."""
    blank = np.full(len(mats), -1)
    return dyn.WordBall([], blank, np.zeros(len(mats), dtype=int), blank, mats, None, False)


LIMIT_FAMILIES = {
    "quintic": MIRROR_QUINTIC,
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
        samples = streamed_limit_curve(ball, 1.0, std.h1)
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
    def test_matches_per_sample_loop(self, limit_balls, monkeypatch, family, gap_min, cusp):
        ball, std = limit_balls[family]
        want = per_sample_limit_curve(ball, gap_min, h1=std.h1 if cusp else None)
        # chunks of 64 matrices put first copies and their repeats in different chunks
        for chunk in (_linalg.SVD_CHUNK, 64):
            monkeypatch.setattr(_linalg, "SVD_CHUNK", chunk)
            got = streamed_limit_curve(ball, gap_min, std.h1 if cusp else None)
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

    def test_dedup_is_per_kind_first_copy(self, limit_balls, monkeypatch):
        # two copies of one matrix whose attracting point is the cusp line l, which
        # it fixes: each kind keeps its first copy, and the kinds do not share keys
        _, std = limit_balls["quintic"]
        line = cusp_line(std.h1)
        q, _ = np.linalg.qr(np.column_stack([line, np.eye(4)[:, :3]]))
        m = q @ np.diag([20.0, 2.0, 0.5, 0.05]) @ q.T
        ball = mats_ball(np.stack([m, m]))
        want = np.array([w[0] for w in per_sample_limit_curve(ball, 1.0, h1=std.h1)])
        # with chunks of one matrix, the two copies are in different chunks
        for chunk in (_linalg.SVD_CHUNK, 1):
            monkeypatch.setattr(_linalg, "SVD_CHUNK", chunk)
            got = streamed_limit_curve(ball, 1.0, std.h1)
            assert got.kinds.tolist() == ["cusp", "attracting"] and got.index.tolist() == [0, 0]
            assert got.points.tobytes() == want.tobytes()
            assert np.abs(got.points[0] - got.points[1]).max() < dyn.LIMIT_DEDUP_RES

    def test_a_kind_is_required(self, limit_balls):
        ball, _ = limit_balls["quintic"]
        with pytest.raises(ValueError, match="no sample kind"):
            dyn.limit_curve_samples(ball, None, None, lambda block: None)

    @pytest.mark.parametrize("rows, first", [
        ([[1, 0], [0, 1], [1, 0], [2, 2]], [0, 1, 3]),
        ([[0, 1], [2, 2], [0, 1], [2, 2], [0, 1]], [0, 1]),
        ([[5, -5]], [0]),
    ], ids=["one-repeat", "two-rows-repeated", "one-row"])
    def test_first_copies(self, rows, first):
        keys, seen = np.array(rows, dtype=np.int64), set()
        assert dyn._first_copies(keys, seen).tolist() == first
        # the set carries over to the next block: no row of this one is a first copy there
        assert dyn._first_copies(keys, seen).tolist() == [] and len(seen) == len(first)

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
    default 3 CPUs (3 workers beside a consumer that only waits), threads switched
    every microsecond.
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


@pytest.fixture
def calls_at_close(svd_calls, monkeypatch):
    """The length of ``svd_calls`` as each pool's shutdown begins.  The shutdown cancels
    every queued chunk, so from then on each worker makes at most the one call of the
    chunk it has already taken."""
    from concurrent.futures import ThreadPoolExecutor

    counts, shutdown = [], ThreadPoolExecutor.shutdown

    def counting_shutdown(pool, *args, **kwargs):
        counts.append(len(svd_calls))
        return shutdown(pool, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "shutdown", counting_shutdown)
    return counts


def ball_gaps(ball):
    """The ball's gaps, collected from the chunks of ``singular_gaps`` as ``certify`` does."""
    with _linalg.singular_gaps(ball.mats, top=False) as chunks:
        return np.concatenate([g for _, g, _ in chunks])


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
        with _linalg.singular_gaps(mats, top) as stream:
            chunks = list(stream)
        starts = list(range(0, len(mats), 5))
        # the chunks come in stack order, each with its rows, and each is computed once
        assert [rows for rows, _, _ in chunks] == [slice(i, i + 5) for i in starts]
        assert [len(g) for _, g, _ in chunks] == [len(mats[i:i + 5]) for i in starts]
        base = mats.__array_interface__["data"][0]
        assert sorted((a - base) // mats.strides[0] for _, a in svd_calls) == starts
        gaps = np.concatenate([g for _, g, _ in chunks])
        assert gaps.tobytes() == (np.log(s[:, 0]) - np.log(s[:, 1])).tobytes()
        if top:
            assert np.concatenate([t for _, _, t in chunks]).tobytes() == u[:, :, 0].tobytes()
        else:
            assert all(t is None for _, _, t in chunks)
        # one chunk starts no thread; more start at most 3, and all of them end
        peak = max(count for count, _ in svd_calls)
        assert peak == before if len(mats) <= 5 else before < peak <= before + 3
        assert threading.active_count() == before

    @pytest.mark.parametrize("svd_calls", [{0}], indirect=True, ids=["one-cpu"])
    @pytest.mark.parametrize("top", [False, True])
    def test_one_cpu_starts_no_thread(self, limit_balls, svd_calls, monkeypatch, top):
        # an affinity mask of one CPU (taskset -c 0): the consumer computes every chunk
        mats = limit_balls["octic"][0].mats[:23]
        reference = np.linalg.svd(mats, compute_uv=top)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t)))
        with _linalg.singular_gaps(mats, top) as stream:
            chunks = list(stream)
        assert started == [] and len(svd_calls) == 1 + 5
        s = reference[1] if top else reference
        gaps = np.concatenate([g for _, g, _ in chunks])
        assert gaps.tobytes() == (np.log(s[:, 0]) - np.log(s[:, 1])).tobytes()
        if top:
            tops = np.concatenate([t for _, _, t in chunks])
            assert tops.tobytes() == reference[0][:, :, 0].tobytes()

    def test_chunks_are_computed_ahead(self, limit_balls, svd_calls):
        # the workers start when the block is entered, before the first chunk is asked for
        mats = limit_balls["octic"][0].mats[:23]
        before = set(threading.enumerate())
        with _linalg.singular_gaps(mats, False) as stream:
            deadline = time.monotonic() + 10
            while len(svd_calls) < 5 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(svd_calls) == 5  # the workers took every chunk, and left the consumer none
            assert sum(len(g) for _, g, _ in stream) == 23
        assert len(svd_calls) == 5 and set(threading.enumerate()) == before

    def test_workers_run_at_most_two_chunks_ahead(self, limit_balls, svd_calls):
        # each of the 3 workers has at most one chunk running and one queued, so a
        # consumer that takes no chunk holds back 14 of the 20
        mats = limit_balls["octic"][0].mats[:100]
        assert len(mats) == 100
        with _linalg.singular_gaps(mats, True) as stream:
            time.sleep(0.5)
            assert len(svd_calls) <= 6
            assert sum(len(g) for _, g, _ in stream) == 100
        assert len(svd_calls) == 20

    @pytest.mark.parametrize("top", [False, True])
    def test_consumed_chunks_are_freed(self, limit_balls, svd_calls, monkeypatch, top):
        # the stream holds no chunk's singular values once it has yielded that chunk
        mats = limit_balls["octic"][0].mats[:23]
        base, svd, refs = mats.__array_interface__["data"][0], np.linalg.svd, {}

        def watched_svd(a, *args, **kwargs):
            result = svd(a, *args, **kwargs)
            chunk = (a.__array_interface__["data"][0] - base) // mats.strides[0] // 5
            refs[chunk] = weakref.ref(result[1] if top else result)
            return result

        monkeypatch.setattr(np.linalg, "svd", watched_svd)
        with _linalg.singular_gaps(mats, top) as stream:
            for k, _ in enumerate(stream):
                gc.collect()
                assert [j for j in range(k) if refs[j]() is not None] == []  # chunks still held
        assert sorted(refs) == list(range(5))

    @pytest.mark.parametrize("top", [False, True])
    def test_close_after_first_chunk_ends_every_thread(self, limit_balls, svd_calls,
                                                        calls_at_close, top):
        # leaving the block after the first chunk, with the other chunks queued or running
        mats = limit_balls["octic"][0].mats
        before = threading.active_count()
        with _linalg.singular_gaps(mats, top) as stream:
            _, gaps, _ = next(stream)
            assert len(gaps) == 5
        assert threading.active_count() == before
        # no chunk is claimed once the block is left: each worker ends after its current one
        assert len(calls_at_close) == 1 and len(svd_calls) <= calls_at_close[0] + 3

    def test_close_before_first_chunk_ends_every_thread(self, limit_balls, svd_calls,
                                                         calls_at_close):
        # limit_curve_samples computes its cusp samples before it takes the first chunk;
        # leaving the block there, plainly or by an exception, ends workers that have
        # already started
        mats = limit_balls["octic"][0].mats
        before = threading.active_count()
        with _linalg.singular_gaps(mats, True):
            pass
        assert threading.active_count() == before
        assert len(calls_at_close) == 1 and len(svd_calls) <= calls_at_close[0] + 3
        with pytest.raises(OSError, match="cusp rows"), _linalg.singular_gaps(mats, True):
            raise OSError("cusp rows not written")
        assert threading.active_count() == before
        assert len(calls_at_close) == 2 and len(svd_calls) <= calls_at_close[1] + 3

    @pytest.mark.parametrize("bad", [[17], [5, 10, 15, 20]], ids=["last-chunk", "all-but-first"])
    @pytest.mark.parametrize("top", [False, True])
    def test_failed_chunk_raises_and_ends_every_thread(self, limit_balls, svd_calls, bad, top):
        mats = limit_balls["octic"][0].mats[:23].copy()
        mats[bad, 0, 0] = np.nan
        before = threading.active_count()
        with _linalg.singular_gaps(mats, top) as stream:
            assert len(next(stream)[1]) == 5  # the chunks before the first bad one come out
            with pytest.raises(np.linalg.LinAlgError):
                list(stream)
        assert threading.active_count() == before


# a unipotent with two Jordan blocks of size 2: e_i -> e_i + f_i, so h1 - id has rank 2
TWO_BLOCK = np.eye(4)
TWO_BLOCK[2, 0] = TWO_BLOCK[3, 1] = 1.0


def library_cusp_line(h1):
    """The cusp line of ``limit_curve_samples``: its one cusp sample of the identity word."""
    ball = mats_ball(np.eye(len(h1))[None])
    samples = dyn.limit_curve_samples(ball, None, h1, lambda block: None)
    assert samples.kinds.tolist() == ["cusp"]
    return samples.points[0]


def symplectic_ball_gaps(mats):
    """The stack's gaps, collected from the chunks of ``symplectic_gaps``."""
    return np.concatenate([g for _, g in _linalg.symplectic_gaps(mats)])


def mp_gap(g):
    """log s0 - log s1 of the matrix g by a 50-digit SVD."""
    with mp.workdps(50):
        s = sorted(mp.svd_r(mp.matrix(g.tolist()), compute_uv=False), reverse=True)
        return float(mp.log(s[0]) - mp.log(s[1]))


def two_planes(a, b):
    """The 4x4 matrix that acts as a on span(e0, e2) and as b on span(e1, e3): in
    ``STANDARD_J4`` those planes are symplectic, so SL2 x SL2 lies in Sp4."""
    g = np.zeros((4, 4))
    g[np.ix_([0, 2], [0, 2])], g[np.ix_([1, 3], [1, 3])] = a, b
    return g


class TestSymplecticGaps:
    def test_quintic_matches_a_50_digit_svd(self, mq):
        # every gap below 0.5, the 200 largest, and the 200 words whose s1 is nearest 1
        # (s1 = 1 on hundreds of words, where v = 0 and a y = s^2 + s^-2 form would
        # lose half the digits of its second term)
        ball, _, _ = ball_for(mq, 9)
        assert ball.exact_symplectic and len(ball) == 29527
        gaps = symplectic_ball_gaps(ball.mats)
        s1 = np.linalg.svd(ball.mats, compute_uv=False)[:, 1]
        assert np.sum(s1 == 1.0) > 100
        checked = (set(np.flatnonzero(gaps < 0.5)) | set(np.argsort(-gaps)[:200])
                   | set(np.argsort(np.abs(s1 - 1.0))[:200]))
        assert len(checked) > 400
        worst = max(abs(gaps[i] - mp_gap(ball.mats[i])) for i in checked)
        assert worst < 1e-12

    def test_identity_and_the_form_have_gap_zero(self):
        gaps = symplectic_ball_gaps(np.stack([np.eye(4), mono.STANDARD_J4]))
        assert gaps.tolist() == [0.0, 0.0]

    def test_coalescing_row_takes_the_exact_discriminant(self, monkeypatch):
        # ||a||_F^2 + 1 = ||b||_F^2, so z+ - z- = 1 and d = 1, far below 2^-20 t1^2.
        # t1 and t2 lie below 2^52 and 2^53, so only u^2 rounds, and its rounding
        # alone would move d by about 1: the row must take u, v and d exactly
        a, b = [[1, 6972], [0, 1]], [[6971, 84], [-83, -1]]
        g = two_planes(a, b)
        assert np.array_equal(g.T @ mono.STANDARD_J4 @ g, mono.STANDARD_J4)
        t1, t2 = _linalg._exact_invariants(g)
        u, v = t1 - 4, t2 - 2 * t1 + 2
        assert t1 < 2**52 and t2 < 2**53 and u * u - 4 * v == 1
        assert float(u) * float(u) - 4.0 * float(v) != 1.0
        exact, invariants = [], _linalg._exact_invariants
        monkeypatch.setattr(_linalg, "_exact_invariants",
                            lambda m: exact.append(m.tolist()) or invariants(m))
        ordinary = two_planes([[2, 1], [1, 1]], [[1, 1], [0, 1]])
        gaps = symplectic_ball_gaps(np.stack([ordinary, g]))
        assert exact == [g.tolist()]
        # the gap is about 1.03e-8; a d off by 1 would move it by as much
        assert abs(gaps[1] - mp_gap(g)) < 1e-12
        assert abs(gaps[0] - mp_gap(ordinary)) < 1e-12

    def test_past_the_float_bounds_takes_python_ints(self):
        # entries past 2^26: the float64 minors would round, and u, v, d come exactly
        n = 3 * 2**40 + 1
        g = two_planes([[1, n], [0, 1]], [[1, 0], [n - 1, 1]])
        assert abs(symplectic_ball_gaps(g[None])[0] - mp_gap(g)) < 1e-12

    def test_non_finite_row_raises(self, monkeypatch):
        # the chunks come one at a time: the first two are taken before the third raises
        monkeypatch.setattr(_linalg, "SVD_CHUNK", 5)
        mats = np.stack([np.eye(4)] * 14)
        mats[11, 2, 3] = np.nan
        chunks = _linalg.symplectic_gaps(mats)
        assert [rows for rows, _ in itertools.islice(chunks, 2)] == [slice(0, 5), slice(5, 10)]
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            next(chunks)

    def test_ball_says_where_the_closed_form_holds(self, mq):
        # the quintic's table is integral and preserves STANDARD_J4; the octic's is a
        # float table; an integral table conjugated off the form is not symplectic there
        assert ball_for(mq, 2)[0].exact_symplectic
        assert not ball_for(OCTIC, 2)[0].exact_symplectic
        std, _ = mono.build_rep(mq).standardized()
        p = np.eye(4)
        p[0, 1] = 1.0
        gens = {s: np.round(p @ g @ np.linalg.inv(p)) for s, g in (("0", std.h0), ("inf", std.hinf))}
        ball = dyn.enumerate_ball(gens, {"0": 5}, 2)
        assert not ball.exact_symplectic
        assert dyn._step_table(gens, ["0", "inf"])[1]


class TestCuspLine:
    @pytest.mark.parametrize("a", DORAN_MORGAN)
    def test_line_is_fixed_and_spans_the_image(self, a):
        std, _ = mono.build_rep(doran_morgan(a)).standardized()
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
            hull = dyn._lower_hull(xs.tolist(), ys.tolist())
            assert dyn._lower_hull(xs[keep].tolist(), ys[keep].tolist()) == hull
            # _hull_value divides by these gaps
            assert all(b[0] - a[0] >= 1e-12 for a, b in zip(hull, hull[1:]))

    @staticmethod
    def sorted_candidates(xs, ys):
        """``_hull_candidates`` as one lexsort of every point, before its pre-filter."""
        order = np.lexsort((ys, xs))
        y = ys[order]
        prefix = y <= np.minimum.accumulate(y)
        suffix = y <= np.minimum.accumulate(y[::-1])[::-1]
        return order[prefix | suffix]

    def test_candidates_match_one_lexsort_on_the_quintic(self, mq):
        ball, _, _ = ball_for(mq, 9, with_fuchs=True)
        xs, ys = dyn.frobenius_distances(ball), symplectic_ball_gaps(ball.mats)
        keep = dyn._hull_candidates(xs, ys)
        assert keep.tolist() == self.sorted_candidates(xs, ys).tolist()
        assert 0 < len(keep) < len(xs) // 100

    def test_candidates_match_one_lexsort_with_ties(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            m = int(rng.integers(0, 3000))
            # ties in x, in y and in both; x on few or many bins, one x value, or spread
            xs = rng.integers(0, [1, 7, 3000][trial % 3], size=m).astype(float)
            ys = rng.integers(-5, [5, 50, 5000][trial % 3 - 1], size=m).astype(float)
            if trial % 4 == 3:
                xs, ys = xs * 1e-3 + 40.0, ys * 0.25
            keep = dyn._hull_candidates(xs, ys)
            assert keep.tolist() == self.sorted_candidates(xs, ys).tolist(), trial

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
        # (2, 3, inf) is Z/2 * Z/3 on gamma0 and gamma1, whose reduced words are
        # distinct elements; on {"0", "inf"} it is no such free product.
        sig = fox.OrbifoldSignature(2, 3, INF)
        dom = fox.build_domain(sig)
        fuchs = {"0": dom.gens["0"], "1": dom.gens["1"]}
        gens = {s: dyn.sym_cube(np.array(g).reshape(2, 2)) for s, g in fuchs.items()}
        ball = dyn.enumerate_ball(gens, {"0": sig.e0, "1": sig.e1}, 16, fuchs_gens=fuchs)
        assert len(ball) == 1786
        dists, gaps = dyn.frobenius_distances(ball), ball_gaps(ball)
        cert = dyn.anosov_certificate(dists, gaps)
        assert abs(cert.eps_hat - 1.0) < 1e-9
        assert abs(cert.c_hat) < 1e-9
        assert np.allclose(gaps, dists, atol=1e-9)

    def test_requires_fuchsian_matrices(self, mq_ball8):
        with pytest.raises(ValueError, match="Fuchsian"):
            dyn.frobenius_distances(mq_ball8)


def per_event_lyapunov(rep_mats, sig, T, n_batch, seed):
    """The per-event reference of the batch scheme: one geodesic, cut by a scan of its
    pair steps, each batch transported alone with one 2-D QR per pair of crossings, or
    one super step per long run of equal counted pair steps."""
    mats = [np.asarray(m, dtype=float) for m in rep_mats]
    n = mats[0].shape[0]
    warm = dyn.LYAP_WARMUP
    geo = fox.geodesic_sample(sig, np.random.SeedSequence(seed), 2.0 * T)
    codes, times = list(geo.events), list(geo.times)
    # code i folds the geodesic back by r_i, so the frame gains rho(r_i); codes i, j
    # make one step rho(r_j) rho(r_i), and an odd last code one rho(r_i)
    steps, step_end = [], []
    for k in range(0, len(codes), 2):
        steps.append(tuple(codes[k:k + 2]))
        step_end.append(times[min(k + 1, len(codes) - 1)] / 2.0)
    if len(steps) <= warm:
        raise ValueError("too few for the warm-up")
    # a cut starts a run of equal steps right after a run of one step
    cands = [k for k in range(warm + 1, len(steps))
             if steps[k] != steps[k - 1] and steps[k - 1] != steps[k - 2]]
    if len(cands) < n_batch - 1:
        raise ValueError(f"allows at most {len(cands) + 1} batches")
    cuts, lo = [], 0
    begin = step_end[warm - 1]
    for b in range(1, n_batch):
        target = begin + (step_end[-1] - begin) / n_batch * b
        # the candidate whose batch boundary is nearest (the lower on a tie), past the
        # last cut and leaving one candidate for each later target
        i = min(range(lo, len(cands) - (n_batch - 1 - b)),
                key=lambda i: abs(step_end[cands[i] - 1] - target))
        cuts.append(cands[i])
        lo = i + 1
    rows, spans, cache = [], [], {}
    for first, stop in zip([warm] + cuts, cuts + [len(steps)]):
        frame, logs = np.eye(n), np.zeros(n)
        k = first - warm
        while k < stop:
            pair = steps[k]
            step = mats[pair[1]] @ mats[pair[0]] if len(pair) == 2 else mats[pair[0]]
            # a run of LYAP_RUN or more equal counted steps of a finite step is one super
            # step, checked apart against a 50-digit transport
            run = 1
            if k >= first and np.isfinite(step).all():
                while k + run < stop and steps[k + run] == pair:
                    run += 1
            if run >= dyn.LYAP_RUN:
                grown, frame = dyn._super_step(step, run, frame, cache)
                k += run
                if not np.all(np.isfinite(grown)):
                    break
                logs += grown
                continue
            q, r = np.linalg.qr(step @ frame)
            d = np.sign(np.diag(r))
            d[d == 0] = 1.0
            frame = q * d
            diag = np.abs(np.diag(r))
            if not np.all(np.isfinite(diag)) or np.any(diag == 0):
                break
            if k >= first:
                logs += np.log(diag)
            k += 1
        else:
            rows.append(logs)
            spans.append(step_end[stop - 1] - step_end[first - 1])
    m = len(rows)
    if m < 2:
        raise RuntimeError(f"only {m} of {n_batch} batches kept: a batch-means error needs two")
    logs, spans = np.array(rows), np.array(spans)
    total = spans.sum()
    lam = logs.sum(axis=0) / total
    resid = logs - spans[:, None] * lam
    err = np.sqrt(m / (m - 1) * (resid ** 2).sum(axis=0)) / total
    return dyn.LyapunovResult(
        exponents=lam,
        stderr=err,
        per_batch=logs / spans[:, None],
        n_discarded=n_batch - m,
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
        # the pair steps of mirrors b and c, which meet at the order-2 vertex, underflow
        # to the zero matrix: batches that cross b and c one after the other in a pair,
        # warm-up included, are discarded
        "partial_discard": ((r_a, tiny, tiny), modular_sig),
    }


class TestLyapunovMC:
    @pytest.mark.parametrize(
        "rep, T, n_traj, seed, discarded",
        [
            ("sym3", 400, 8, 3, 0),
            ("fuchsian", 300, 5, 11, 0),
            ("quintic", 200, 4, 2, 0),
            ("fuchsian", 50, 2, 4, 0),
            ("rank5", 200, 4, 2, 0),
            ("partial_discard", 10, 4, 2, 2),
            # the longest batch, kept, runs alone for the last 31 of its 118 lock steps, seven
            # blocks of 5 in test_block_size_moves_no_bit; a batch is discarded at its lock
            # step 78, past the first block
            ("partial_discard", 200, 40, 43, 36),
        ],
    )
    def test_matches_per_event_loop(self, lyap_reps, rep, T, n_traj, seed, discarded):
        rep_mats, sig = lyap_reps[rep]
        got = dyn.lyapunov_mc(rep_mats, sig, T, n_traj, seed)
        want = per_event_lyapunov(rep_mats, sig, T, n_traj, seed)
        assert got.n_discarded == want.n_discarded == discarded
        assert got.per_batch.tobytes() == want.per_batch.tobytes()
        assert got.exponents.tobytes() == want.exponents.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()

    @pytest.mark.parametrize("block", [1, 5, 32, 10**6])
    def test_block_size_moves_no_bit(self, lyap_reps, monkeypatch, block):
        # blocks shorter than the warm-up, not dividing it, equal to it, and one block
        rep_mats, sig = lyap_reps["partial_discard"]
        want = dyn.lyapunov_mc(rep_mats, sig, 200, 40, 43)
        monkeypatch.setattr(dyn, "LYAP_BLOCK", block)
        got = dyn.lyapunov_mc(rep_mats, sig, 200, 40, 43)
        assert got.n_discarded == want.n_discarded == 36
        assert got.per_batch.tobytes() == want.per_batch.tobytes()
        assert got.stderr.tobytes() == want.stderr.tobytes()

    def test_all_discarded_raises(self, modular_sig):
        # every batch here makes a pair step, and every pair step underflows to 0
        rep_mats = (1e-310 * np.eye(2),) * 3
        for run in (dyn.lyapunov_mc, per_event_lyapunov):
            with pytest.raises(RuntimeError, match="only 0 of 3 batches kept"):
                run(rep_mats, modular_sig, 20, 3, 0)
        # an inf entry, or pair steps that overflow: the step table is built under the
        # transport's errstate, so no RuntimeWarning of its matmuls comes first
        for big in (np.full((2, 2), math.inf), 1e200 * np.eye(2)):
            with pytest.raises(RuntimeError, match="only 0 of 3 batches kept"):
                dyn.lyapunov_mc((big,) * 3, modular_sig, 20, 3, 0)

    def test_one_kept_batch_raises(self, lyap_reps):
        # one batch gives no batch-means error: a stderr of zeros would claim an exact answer
        rep_mats, sig = lyap_reps["partial_discard"]
        for run in (dyn.lyapunov_mc, per_event_lyapunov):
            with pytest.raises(RuntimeError, match="only 1 of 2 batches kept"):
                run(rep_mats, sig, 10, 2, 2)

    def test_one_batch_refused(self, lyap_reps):
        # the same run with two batches keeps both (test_matches_per_event_loop)
        with pytest.raises(ValueError, match="n_traj=1: a batch-means error needs two batches"):
            dyn.lyapunov_mc(*lyap_reps["fuchsian"], 50, 1, 4)

    @pytest.mark.parametrize("rep", ["sym3", "fuchsian", "quintic", "rank5"])
    def test_rows_sum_to_zero(self, lyap_reps, rep):
        # every reflection has determinant -1, so the log growths of a frame cancel
        rep_mats, sig = lyap_reps[rep]
        per = dyn.lyapunov_mc(rep_mats, sig, 400, 8, 3).per_batch
        assert np.abs(per.sum(axis=1)).max() < 1e-10

    def test_sym3_spectrum_is_3_1_m1_m3(self, lyap_reps):
        # Sym^3(QR) = Sym^3(Q) Sym^3(R) with Sym^3(Q) orthogonal in sym_cube's
        # basis, so on the same geodesics each row is (3, 1, -1, -3) lambda_1.
        sym3 = dyn.lyapunov_mc(*lyap_reps["sym3"], 400, 8, 3).per_batch
        fuchs = dyn.lyapunov_mc(*lyap_reps["fuchsian"], 400, 8, 3).per_batch
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

    def test_batch_means_cover_sym3_exactly(self, lyap_reps):
        # lambda_1 of Sym^3 of a Fuchsian group is exactly 3.  Independent trajectories
        # that each restart from the identity frame read it low, by about two stderrs
        rep_mats, sig = lyap_reps["sym3"]
        z = []
        for seed in range(8):
            result = dyn.lyapunov_mc(rep_mats, sig, 2000, 10, seed)
            z.append((result.exponents[0] - 3.0) / result.stderr[0])
        assert max(map(abs, z)) < 2
        assert abs(sum(z) / len(z)) < 1

    def test_batch_count_past_the_cut_points_refused_before_allocating(self, lyap_reps,
                                                                        monkeypatch):
        rep_mats, sig = lyap_reps["fuchsian"]
        calls = []  # each call's crossing count

        def spy(*args, **kwargs):
            leg = fox.geodesic_sample(*args, **kwargs)
            calls.append(len(leg.events))
            return leg

        monkeypatch.setattr(dyn, "geodesic_sample", spy)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"allows at most \d+ batches") as exc:
                dyn.lyapunov_mc(rep_mats, sig, 50, 10**18, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        # only legs that hold a crossing are flowed, and one last leg that holds none
        crossings = len(fox.geodesic_sample(sig, np.random.SeedSequence(0), 100.0).events)
        assert sum(calls) == crossings
        assert len(calls) <= crossings + 1
        monkeypatch.undo()
        # the named count is exact: it runs, and one more is refused
        allowed = int(str(exc.value).split("at most ")[1].split()[0])
        assert dyn.lyapunov_mc(rep_mats, sig, 50, allowed, 0).n_discarded == 0
        with pytest.raises(ValueError, match=f"allows at most {allowed} batches"):
            dyn.lyapunov_mc(rep_mats, sig, 50, allowed + 1, 0)

    def test_time_too_short_for_the_warm_up_refused(self, lyap_reps):
        rep_mats, sig = lyap_reps["fuchsian"]
        with pytest.raises(ValueError, match=f"too few for the warm-up of {dyn.LYAP_WARMUP}"):
            dyn.lyapunov_mc(rep_mats, sig, 0.5, 2, 0)


def _runs(rep_mats, sig, seed, arc):
    """The pair-step matrices and the runs (start, length) of equal pair steps of at
    least ``LYAP_RUN`` on one geodesic, with each step of the geodesic."""
    mats = [np.asarray(m, dtype=float) for m in rep_mats]
    codes = fox.geodesic_sample(sig, np.random.SeedSequence(seed), arc).events
    steps = [(codes[k], codes[k + 1]) for k in range(0, len(codes) - 1, 2)]
    runs, k = [], 0
    while k < len(steps):
        m = 1
        while k + m < len(steps) and steps[k + m] == steps[k]:
            m += 1
        if m >= dyn.LYAP_RUN:
            runs.append((k, m))
        k += m
    return [mats[j] @ mats[i] for i, j in steps], runs


def _mp_transport(cols):
    """log |diag R| and Q of the QR of the matrix of mpmath columns ``cols``."""
    logs, qs = [], []
    for c in cols:
        for q in qs:
            d = mp.fsum(a * b for a, b in zip(q, c))
            c = [a - d * b for a, b in zip(c, q)]
        r = mp.sqrt(mp.fsum(a * a for a in c))
        logs.append(mp.log(r))
        qs.append([a / r for a in c])
    return logs, qs


def _mp_mul(a, cols):
    """The mpmath matrix ``a`` (rows) times the columns ``cols``."""
    return [[mp.fsum(x * y for x, y in zip(row, c)) for row in a] for c in cols]


class TestSuperStep:
    """A run of m equal pair steps is one super step, ``dyn._super_step``; here it is
    checked against 50-digit transports of the same float step and frame."""

    @pytest.fixture(scope="class", params=["sym3", "quintic", "octic"])
    def geodesic(self, request, lyap_reps):
        # the benchmark's geodesic, a quintic one whose table is integral, and an octic
        # one whose table is not
        if request.param == "octic":
            rep_mats = mono.reflection_matrices(*mono.levelt_matrices(OCTIC))
            sig = fox.orbifold_signature(OCTIC)
        else:
            rep_mats, sig = lyap_reps[request.param]
        seed, arc = {"sym3": (5, 8000.0), "quintic": (11, 10000.0),
                     "octic": (4, 10000.0)}[request.param]
        return _runs(rep_mats, sig, seed, arc)

    @staticmethod
    def frame_before(steps, k):
        # the frame a float transport from the identity 64 steps before step k brings
        frame = np.eye(len(steps[0]))
        for step in steps[max(k - 64, 0):k]:
            frame = np.linalg.qr(step @ frame)[0]
        return frame

    def check(self, got, want, m):
        (logs, q), (mp_logs, mp_q) = got, want
        assert np.abs(logs - np.array(mp_logs, dtype=float)).max() < 1e-12, m
        for j, col in enumerate(mp_q):
            # the super step sets the frame's column signs first, so Q's columns agree
            # up to sign
            col = np.array(col, dtype=float)
            assert np.abs(q[:, j] - np.sign(col @ q[:, j]) * col).max() < 1e-12, (m, j)

    def test_longest_runs_match_a_50_digit_power(self, geodesic):
        # QR(u^m F) is the transport of m steps u, so the 20 longest runs (31,883 steps
        # at most on the sym3 geodesic) are checked against u^m by squarings and a
        # Gram-Schmidt at 50 digits, which keep some 20 digits past cond(u^m)
        steps, runs = geodesic
        longest = sorted(runs, key=lambda r: -r[1])[:20]
        assert len(longest) == 20 and longest[0][1] > 5000
        with mp.workdps(50):
            for k, m in longest:
                u, frame = steps[k], self.frame_before(steps, k)
                got = dyn._super_step(u, m, frame, {})
                power, cols = [list(map(mp.mpf, row)) for row in u.tolist()], frame.T.tolist()
                cols = [list(map(mp.mpf, c)) for c in cols]
                e = m
                while e:
                    if e & 1:
                        cols = _mp_mul(power, cols)
                    e >>= 1
                    if e:
                        power = [list(r) for r in zip(*_mp_mul(power, list(zip(*power))))]
                logs, q = _mp_transport(cols)
                # R's diagonal is positive, so Q's columns are those of u^m F made unit
                self.check(got, (logs, q), m)

    def test_short_runs_match_a_50_digit_step_by_step_transport(self, geodesic):
        steps, runs = geodesic
        with mp.workdps(50):
            for k, m in sorted(runs, key=lambda r: r[1])[:10]:
                u, frame = steps[k], self.frame_before(steps, k)
                got = dyn._super_step(u, m, frame, {})
                a = [list(map(mp.mpf, row)) for row in u.tolist()]
                cols = [list(map(mp.mpf, c)) for c in frame.T.tolist()]
                total = [mp.mpf(0)] * len(cols)
                for _ in range(m):
                    logs, cols = _mp_transport(_mp_mul(a, cols))
                    total = [t + x for t, x in zip(total, logs)]
                self.check(got, (total, cols), m)

    def test_blind_to_the_frames_column_signs(self, geodesic):
        steps, runs = geodesic
        k, m = max(runs, key=lambda r: r[1])
        frame = self.frame_before(steps, k)
        logs, q = dyn._super_step(steps[k], m, frame, {})
        flipped = dyn._super_step(steps[k], m, frame * [1, -1, -1, 1], {})
        assert logs.tobytes() == flipped[0].tobytes() and q.tobytes() == flipped[1].tobytes()


def test_what_the_benchmark_reads_of_the_ball():
    # perfbench/spans.py binds each traced call to its signature and reads gen_mats,
    # orders, L and alphabet (None: the keys of gen_mats) off enumerate_ball, and
    # gen_mats, orders and L off rational_limit_classify, which perfbench/workloads.py
    # calls with v and L by name: a rename fails the traced ball and cusp-search jobs
    ball = inspect.signature(dyn.enumerate_ball).parameters
    assert {"gen_mats", "orders", "L", "alphabet"} <= ball.keys()
    assert ball["alphabet"].default is None
    assert {"gen_mats", "orders", "v", "L"} <= inspect.signature(
        dyn.rational_limit_classify).parameters.keys()


def test_what_the_benchmark_reads_of_lyapunov(lyap_reps, monkeypatch):
    # perfbench/spans.py passes n_traj by name, wraps geodesic_sample where lyapunov_mc
    # looks it up and counts the .events of its calls as the run's crossings, and reads
    # exponents and n_discarded off the result: a rename fails the traced sym3-lyapunov
    # job.  Its span test expects one geodesic_sample call per batch.
    assert "n_traj" in inspect.signature(dyn.lyapunov_mc).parameters
    rep_mats, sig = lyap_reps["sym3"]
    calls = []

    def spy(*args, **kwargs):
        calls.append(fox.geodesic_sample(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(dyn, "geodesic_sample", spy)
    result = dyn.lyapunov_mc(rep_mats, sig, 200, 4, 5)
    assert len(calls) == 4 and all(leg.events for leg in calls)
    one = fox.geodesic_sample(sig, np.random.SeedSequence(5), 400.0)
    assert b"".join(leg.events for leg in calls) == one.events
    assert {"exponents", "n_discarded"} <= {f.name for f in dataclasses.fields(result)}


class TestSumFormulaReport:
    RESULT = dyn.LyapunovResult(
        exponents=np.array([3.0, 1.0, -1.0, -3.0]),
        stderr=np.zeros(4),
        per_batch=np.array([[3.0, 1.0, -1.0, -3.0]]),
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
