import math

import numpy as np
import pytest
import scipy.linalg

from hypermono.lie import alpha1_gap, is_log_proximal, kak, nilpotent_order, unipotent_log

# canonical nilpotents: rank-1 line type, two Jordan blocks, Sym^3 principal
N_RANK1 = np.zeros((4, 4))
N_RANK1[2, 0] = -1.0  # e1 -> -f1 in basis (e1, e2, f1, f2)
N_TWOBLOCK = np.zeros((4, 4))
N_TWOBLOCK[2, 0] = 1.0
N_TWOBLOCK[3, 1] = 1.0  # e_i -> f_i
N_SYM3 = np.zeros((4, 4))
for j in range(1, 4):
    N_SYM3[j - 1, j] = j  # lowering operator on binary cubics


def _reconstruct(d):
    return d.k_minus @ np.diag(np.exp(d.mu)) @ d.k_plus


class TestKak:
    def test_identity(self):
        assert np.allclose(kak(np.eye(4)).mu, 0.0)

    def test_diagonal(self):
        g = np.diag([np.e**2, np.e, np.e**-1, np.e**-2])
        d = kak(g)
        assert np.allclose(d.mu, [2, 1, -1, -2], atol=1e-12)
        assert np.linalg.norm(_reconstruct(d) - g) < 1e-9 * np.linalg.norm(g)

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
            assert np.linalg.norm(_reconstruct(d) - g) < 1e-9 * max(1, np.linalg.norm(g))
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


class TestLogProximal:
    def test_mum(self):
        T = scipy.linalg.expm(N_SYM3)
        ok, line = is_log_proximal(T)
        assert ok
        # attracting line = im(N^3)
        im3 = N_SYM3 @ N_SYM3 @ N_SYM3
        im3 = im3[:, np.argmax(np.abs(im3).sum(axis=0))]
        im3 = im3 / np.linalg.norm(im3)
        assert min(np.linalg.norm(line - im3), np.linalg.norm(line + im3)) < 1e-9

    def test_rank1(self):
        T = scipy.linalg.expm(N_RANK1)
        ok, line = is_log_proximal(T)
        assert ok
        f1 = np.eye(4)[:, 2]
        assert min(np.linalg.norm(line - f1), np.linalg.norm(line + f1)) < 1e-12

    def test_two_block_not_proximal(self):
        ok, _ = is_log_proximal(scipy.linalg.expm(N_TWOBLOCK))
        assert not ok
        # log T = 0 has order 0, so the identity has no attracting line
        assert is_log_proximal(np.eye(4)) == (False, None)

    def test_non_unipotent_rejected(self):
        with pytest.raises(ValueError):
            is_log_proximal(np.diag([2.0, 0.5]))


def test_unipotent_log_matches_series():
    T = scipy.linalg.expm(N_SYM3)
    assert np.linalg.norm(unipotent_log(T) - N_SYM3) < 1e-10
    with pytest.raises(ValueError):
        unipotent_log(np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match="not nilpotent"):
        nilpotent_order(np.eye(3))
