import numpy as np
import pytest

from conftest import random_symplectic
from hypermono.exterior import (
    GRAM_Q,
    LagrangianPlane,
    pluecker,
    q_value,
    reduced_exterior_square,
)

E = np.eye(4)  # columns e1, e2, f1, f2


class TestQuadSpace:
    def test_quadratic_form_formula(self):
        w = np.array([2.0, 3.0, 5.0, 7.0, 11.0])
        a, b, c, d, e = w
        assert q_value(w) == pytest.approx(-a * e + b * d - c * c)

    def test_signature(self):
        ev = np.linalg.eigvalsh(GRAM_Q)
        assert int((ev > 1e-10).sum()) == 2
        assert int((ev < -1e-10).sum()) == 3


class TestReducedExteriorSquare:
    def test_identity(self):
        assert np.allclose(reduced_exterior_square(np.eye(4)), np.eye(5))

    def test_diagonal(self):
        lam, mu = 2.0, 3.0
        W = reduced_exterior_square(np.diag([lam, mu, 1 / lam, 1 / mu]))
        assert np.allclose(W, np.diag([lam * mu, lam / mu, 1.0, mu / lam, 1 / (lam * mu)]))

    def test_q_invariance_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            W = reduced_exterior_square(random_symplectic(rng))
            assert np.linalg.norm(W.T @ GRAM_Q @ W - GRAM_Q) < 1e-10

    def test_homomorphism(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g, h = random_symplectic(rng), random_symplectic(rng)
            lhs = reduced_exterior_square(g @ h)
            rhs = reduced_exterior_square(g) @ reduced_exterior_square(h)
            assert np.linalg.norm(lhs - rhs) < 1e-9

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError):
            reduced_exterior_square(np.diag([2.0, 1, 1, 1]))


class TestPluecker:
    def test_basis_planes(self):
        assert np.allclose(pluecker(LagrangianPlane(E[:, :2])), [1, 0, 0, 0, 0])
        assert np.allclose(pluecker(LagrangianPlane(E[:, 2:])), [0, 0, 0, 0, 1])

    def test_non_lagrangian_rejected(self):
        with pytest.raises(ValueError, match="Lagrangian"):
            LagrangianPlane(E[:, [0, 2]])

    def test_rows_are_not_a_span(self):
        # a 2x4 array of row vectors used to be reshaped into the columns e1, f1
        with pytest.raises(ValueError, match="4x2"):
            LagrangianPlane(E[:2])

    def test_isotropy_and_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_symplectic(rng)
            plane = LagrangianPlane(E[:, :2]).transformed(g)
            w = pluecker(plane)
            assert abs(q_value(w)) < 1e-10
            # pluecker(g L) = Lambda^2 g . pluecker(L) up to normalization
            img = reduced_exterior_square(g) @ pluecker(LagrangianPlane(E[:, :2]))
            img = img / np.linalg.norm(img)
            assert min(np.linalg.norm(w - img), np.linalg.norm(w + img)) < 1e-9

