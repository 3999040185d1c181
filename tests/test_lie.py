"""The Cartan-projection oracles of ``oracles.py``: KAK factors and the alpha_1-gap."""

import math

import numpy as np
import pytest
import scipy.linalg

from oracles import alpha1_gap, kak

# the canonical rank-1 nilpotent, of line type
N_RANK1 = np.zeros((4, 4))
N_RANK1[2, 0] = -1.0  # e1 -> -f1 in basis (e1, e2, f1, f2)


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
