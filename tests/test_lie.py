import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import random_nilpotent
from hypermono import lie
from hypermono.lie import (
    alpha1_gap,
    is_log_proximal,
    jacobson_morozov,
    kak,
    strictly_adapted_norm,
    unipotent_log,
    weight_filtration,
    weight_filtration_kernel_image,
)

# canonical nilpotents: zero, rank-1 line type, two Jordan blocks, Sym^3 principal
N_ZERO = np.zeros((4, 4))
N_RANK1 = np.zeros((4, 4))
N_RANK1[2, 0] = -1.0  # e1 -> -f1 in basis (e1, e2, f1, f2)
N_TWOBLOCK = np.zeros((4, 4))
N_TWOBLOCK[2, 0] = 1.0
N_TWOBLOCK[3, 1] = 1.0  # e_i -> f_i
N_SYM3 = np.zeros((4, 4))
for j in range(1, 4):
    N_SYM3[j - 1, j] = j  # lowering operator on binary cubics


class TestKak:
    def test_identity(self):
        assert np.allclose(kak(np.eye(4)).mu, 0.0)

    def test_diagonal(self):
        g = np.diag([np.e**2, np.e, np.e**-1, np.e**-2])
        d = kak(g)
        assert np.allclose(d.mu, [2, 1, -1, -2], atol=1e-12)
        assert np.linalg.norm(d.reconstruct() - g) < 1e-9 * np.linalg.norm(g)

    @pytest.mark.parametrize("k", [1.0, 3.0, 10.0])
    def test_unipotent_2x2_closed_form(self, k):
        g = np.array([[1.0, k], [0.0, 1.0]])
        sigma = (k + math.sqrt(k * k + 4)) / 2
        assert np.exp(kak(g).mu[0]) == pytest.approx(sigma, rel=1e-12)

    def test_orthogonal_factors_and_reconstruction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = rng.normal(size=(4, 4))
            d = kak(g)
            assert np.linalg.norm(d.k_minus @ d.k_minus.T - np.eye(4)) < 1e-10
            assert np.linalg.norm(d.k_plus @ d.k_plus.T - np.eye(4)) < 1e-10
            assert np.linalg.norm(d.reconstruct() - g) < 1e-9 * max(1, np.linalg.norm(g))
            assert np.all(np.diff(d.mu) <= 1e-12)

    def test_symplectic_mu_symmetry(self):
        from conftest import random_symplectic

        rng = np.random.default_rng(1)
        for _ in range(10):
            mu = kak(random_symplectic(rng)).mu
            assert np.linalg.norm(mu + mu[::-1]) < 1e-8

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            kak(np.zeros((3, 3)))


class TestAlpha1Gap:
    def test_values(self):
        assert alpha1_gap(np.eye(4)) == pytest.approx(0.0, abs=1e-12)
        assert alpha1_gap(np.diag([np.e**2, np.e, np.e**-1, np.e**-2])) == pytest.approx(1.0)

    def test_rank1_unipotent_power_growth(self):
        # gap(T^k) = log k + O(1) for a rank-1 unipotent
        T = scipy.linalg.expm(N_RANK1)
        errs = []
        for k in (10, 100, 1000, 10000):
            g = np.linalg.matrix_power(T, k)
            errs.append(alpha1_gap(g) - math.log(k))
        assert max(errs) - min(errs) < 0.5
        assert all(abs(e) < 2.0 for e in errs)


def _check_axioms(N, wf):
    d = wf.order
    dim = N.shape[0]
    assert wf.dim(d) == dim
    # N(W_i) c W_{i-2}
    for i in range(-d, d + 1):
        Bi = wf.basis(i)
        if Bi.shape[1] == 0:
            continue
        img = N @ Bi
        low = wf.basis(i - 2)
        resid = img - low @ (low.T @ img) if low.shape[1] else img
        assert np.linalg.norm(resid) < 1e-8 * max(1.0, np.linalg.norm(N)), i
    # N^i : W_i/W_{i-1} -> W_{-i}/W_{-i-1} isomorphism (dimension + rank check)
    for i in range(1, d + 1):
        hi, lo = wf.dim(i), wf.dim(i - 1)
        hi2, lo2 = wf.dim(-i), wf.dim(-i - 1)
        assert hi - lo == hi2 - lo2
        if hi == lo:
            continue
        Bi = wf.basis(i)
        quota = Bi - wf.basis(i - 1) @ (wf.basis(i - 1).T @ Bi) if lo else Bi
        from hypermono._linalg import orth_basis

        Q = orth_basis(quota)
        Ni = np.linalg.matrix_power(N, i) @ Q
        lower = wf.basis(-i - 1)
        resid = Ni - lower @ (lower.T @ Ni) if lower.shape[1] else Ni
        from hypermono._linalg import numerical_rank

        assert numerical_rank(resid, rtol=1e-8) == hi - lo


class TestWeightFiltration:
    def test_zero(self):
        wf = weight_filtration(N_ZERO)
        assert wf.order == 0
        assert wf.dim(0) == 4

    def test_rank1(self):
        wf = weight_filtration(N_RANK1)
        assert wf.order == 1
        assert wf.dim(-1) == 1
        assert wf.dim(0) == 3
        # W_{-1} = span(f1), W_0 = span(e2, f1, f2)
        f1 = np.eye(4)[:, 2]
        assert np.linalg.norm(wf.basis(-1)[:, 0] - f1 * np.sign(wf.basis(-1)[2, 0])) < 1e-12
        e1 = np.eye(4)[:, 0]
        b0 = wf.basis(0)
        assert np.linalg.norm(b0.T @ e1) < 1e-12

    def test_two_block(self):
        wf = weight_filtration(N_TWOBLOCK)
        assert wf.order == 1
        assert wf.dim(-1) == 2

    def test_sym3(self):
        wf = weight_filtration(N_SYM3)
        assert wf.order == 3
        assert [wf.dim(i) for i in (-3, -1, 1, 3)] == [1, 2, 3, 4]
        assert wf.dim(-2) == wf.dim(-3)

    @pytest.mark.parametrize("which", ["zero", "rank1", "twoblock", "sym3"])
    def test_axioms_canonical(self, which):
        N = {"zero": N_ZERO, "rank1": N_RANK1, "twoblock": N_TWOBLOCK, "sym3": N_SYM3}[which]
        _check_axioms(N, weight_filtration(N))

    def test_axioms_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            N = random_nilpotent(rng, n=rng.integers(2, 7))
            _check_axioms(N, weight_filtration(N))

    def test_kernel_image_oracle_agrees(self):
        rng = np.random.default_rng(8)
        mats = [N_RANK1, N_TWOBLOCK, N_SYM3] + [random_nilpotent(rng) for _ in range(10)]
        for N in mats:
            a = weight_filtration(N)
            b = weight_filtration_kernel_image(N)
            assert a.order == b.order
            for i in range(-a.order, a.order + 1):
                assert a.dim(i) == b.dim(i), (i, a.dim(i), b.dim(i))
                Ba, Bb = a.basis(i), b.basis(i)
                if Ba.shape[1]:
                    assert np.linalg.norm(Ba @ Ba.T - Bb @ Bb.T) < 1e-7

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError):
            weight_filtration(np.eye(3))


class TestLogProximal:
    def test_mum(self):
        T = scipy.linalg.expm(N_SYM3)
        ok, line, hyp = is_log_proximal(T)
        assert ok
        # attracting line = im(N^3)
        im3 = N_SYM3 @ N_SYM3 @ N_SYM3
        im3 = im3[:, np.argmax(np.abs(im3).sum(axis=0))]
        im3 = im3 / np.linalg.norm(im3)
        assert min(np.linalg.norm(line - im3), np.linalg.norm(line + im3)) < 1e-9
        assert hyp.shape == (4, 3)

    def test_rank1(self):
        T = scipy.linalg.expm(N_RANK1)
        ok, line, _ = is_log_proximal(T)
        assert ok
        f1 = np.eye(4)[:, 2]
        assert min(np.linalg.norm(line - f1), np.linalg.norm(line + f1)) < 1e-12

    def test_two_block_not_proximal(self):
        ok, _, _ = is_log_proximal(scipy.linalg.expm(N_TWOBLOCK))
        assert not ok

    def test_non_unipotent_rejected(self):
        with pytest.raises(ValueError):
            is_log_proximal(np.diag([2.0, 0.5]))


class TestJacobsonMorozov:
    def test_sl2_standard(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        Y, Np = jacobson_morozov(N)
        assert np.allclose(Y, np.diag([-1.0, 1.0]), atol=1e-12)
        assert np.allclose(Np, [[0, 0], [1, 0]], atol=1e-12)

    def test_sym3_grading(self):
        Y, Np = jacobson_morozov(N_SYM3)
        assert sorted(np.round(np.linalg.eigvals(Y).real).astype(int)) == [-3, -1, 1, 3]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            jacobson_morozov(np.zeros((3, 3)))

    def test_scale_invariant(self):
        # Y does not depend on the scale of N, and N_plus scales like 1/N;
        # the chain basis's column scaling ||N||^j must not cause a refusal.
        Y1, Np1 = jacobson_morozov(N_SYM3)
        Y, Np = jacobson_morozov(1e3 * N_SYM3)
        assert np.allclose(Y, Y1, atol=1e-12)
        assert np.allclose(1e3 * Np, Np1, atol=1e-12)

    def test_small_scale(self):
        # The nilpotent helpers cut the powers N^i relative to ||N||^i, so a
        # small N keeps its Jordan type (an absolute cut lost N^2 and N^3 here).
        Y1, Np1 = jacobson_morozov(N_SYM3)
        Y, Np = jacobson_morozov(1e-4 * N_SYM3)
        assert np.allclose(Y, Y1, atol=1e-12)
        assert np.allclose(1e-4 * Np, Np1, atol=1e-12)

    def test_relations_random(self):
        # Each relation is measured relative to the norm of its right-hand
        # side, which keeps all three invariant under rescaling N (N_plus
        # scales like 1/N).  Y's eigenvalues move off the integers by about
        # eps * cond(P)^2 for the unit-column chain basis P, and exactly the
        # draws with eps * cond(P)^2 > SL2_TOL must be refused, naming cond(P).
        rng = np.random.default_rng(9)
        for _ in range(20):
            N = random_nilpotent(rng)
            if np.linalg.norm(N) < 1e-9:
                continue
            _, kappa = lie.chain_basis(lie.jordan_chains(N))
            if np.finfo(float).eps * kappa**2 > lie.SL2_TOL:
                with pytest.raises(ValueError) as refused:
                    jacobson_morozov(N)
                assert f"cond(P) = {kappa:.3e}" in str(refused.value)
                continue
            Y, Np = jacobson_morozov(N)
            assert np.linalg.norm(Y @ N - N @ Y + 2 * N) < 1e-8 * 2 * np.linalg.norm(N)
            assert np.linalg.norm(Y @ Np - Np @ Y - 2 * Np) < 1e-8 * 2 * np.linalg.norm(Np)
            assert np.linalg.norm(Np @ N - N @ Np - Y) < 1e-8 * np.linalg.norm(Y)
            # Y splits the weight filtration with integer spectrum
            ev = np.linalg.eigvals(Y)
            assert np.max(np.abs(ev.imag)) < 1e-7
            assert np.max(np.abs(ev.real - np.round(ev.real))) < 1e-7


class TestAdaptedNorm:
    def setup_method(self):
        self.Y, self.Np = jacobson_morozov(N_SYM3)

    def test_base_point(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        assert strictly_adapted_norm(N_SYM3, self.Y, 1j, v) == pytest.approx(np.linalg.norm(v))

    def test_eigenvector_scaling(self):
        # v in V_k with Re tau = 0 scales by (Im tau)^{k/2}
        for idx, k in ((0, -3), (1, -1), (2, 1), (3, 3)):
            v = np.zeros(4)
            v[idx] = 1.0
            # monomial basis diagonalizes Y for the principal nilpotent
            kk = self.Y[idx, idx]
            got = strictly_adapted_norm(N_SYM3, self.Y, 9j, v)
            assert got == pytest.approx(9 ** (kk / 2), rel=1e-9)

    def test_regime_rejected(self):
        with pytest.raises(ValueError):
            strictly_adapted_norm(N_SYM3, self.Y, 0.5j, np.ones(4))

    def test_growth_envelope(self):
        # || v ||_{h(tau)} / ((Im tau)^{k/2} [1 + (|Re tau|/Im tau)^l])
        # bounded above and below over the grid, v a Y-eigenvector.
        # e^{-xN} v has a weight k - 2j piece of size ~ x^j (j <= l), which
        # y^{Y/2} scales by y^{k/2 - j}; hence |x|/y, not |x|/sqrt(y).  The
        # two agree only in the cusp region, where |x| is bounded.
        d = 3
        ratios = []
        for idx in range(4):
            v = np.zeros(4)
            v[idx] = 1.0
            k = int(round(self.Y[idx, idx]))
            l = (k + d) // 2
            for im in (1.0, 10.0, 100.0, 1000.0):
                for re in (0.0, 1.0, 31.6, 1000.0):
                    got = strictly_adapted_norm(N_SYM3, self.Y, complex(re, im), v)
                    envelope = im ** (k / 2) * (1.0 + (abs(re) / im) ** l)
                    ratios.append(got / envelope)
        C = 10.0
        assert max(ratios) <= C
        assert min(ratios) >= 1.0 / C


def _exact_series_norm(N, x, v):
    """||e^{-xN} v|| for nilpotent N from the finite series in exact rationals."""
    n = len(v)
    N = [[Fraction(float(a)) for a in row] for row in N]
    term = [Fraction(float(a)) for a in v]
    w = list(term)
    for k in range(1, n):
        term = [Fraction(-x, k) * sum(N[i][j] * term[j] for j in range(n)) for i in range(n)]
        w = [a + b for a, b in zip(w, term)]
    return math.sqrt(sum(a * a for a in w))


@pytest.mark.parametrize("re", [3, 100, 1000])
def test_adapted_norm_matches_exact_series(re):
    # at Im tau = 1 the factor y^{Y/2} is the identity for every Y, so Y = 0
    # leaves e^{-xN} v alone; non-triangular nilpotents at large |Re tau| are
    # where a dense matrix exponential loses digits to cancellation
    rng = np.random.default_rng(1)
    for _ in range(100):
        N = random_nilpotent(rng)
        v = rng.normal(size=4)
        want = _exact_series_norm(N, re, v)
        got = strictly_adapted_norm(N, np.zeros((4, 4)), complex(re, 1.0), v)
        assert got == pytest.approx(want, rel=1e-10)


def test_unipotent_log_matches_series():
    T = scipy.linalg.expm(N_SYM3)
    assert np.linalg.norm(unipotent_log(T) - N_SYM3) < 1e-10
    with pytest.raises(ValueError):
        unipotent_log(np.diag([2.0, 1.0]))
