from collections import Counter
from functools import reduce

import numpy as np
import pytest

from conftest import MIRROR_QUINTIC as MQ
from hypermono import fuchsian as fox
from hypermono import params as par
from hypermono._linalg import numerical_rank
from hypermono.monodromy import (
    STANDARD_J4,
    build_rep,
    form_signature,
    invariant_bilinear_form,
    levelt_matrices,
    monodromy_at_one,
    reflection_matrices,
    symplectic_basis,
)
from oracles import frobenius_distance

OCTIC = par.HypergeomParams(("1/8", "3/8", "5/8", "7/8"), ("0",) * 4)
RANK5 = par.HypergeomParams(
    ("9/20", "1/2", "1/2", "1/2", "11/20"), ("0", "0", "0", "1/3", "2/3")
)


def _coeffs(p):
    """(A_1..A_n), (B_1..B_n), read off the last columns of the Levelt matrices."""
    return tuple(-h[::-1, -1] for h in levelt_matrices(p))


class TestCharPolys:
    def test_mirror_quintic_A(self):
        A, _ = _coeffs(MQ)
        # (t^5 - 1)/(t - 1) = t^4 + t^3 + t^2 + t + 1
        assert np.allclose(A, [1, 1, 1, 1], atol=1e-12)

    def test_mum_B(self):
        _, B = _coeffs(MQ)
        # (t - 1)^4 = t^4 - 4 t^3 + 6 t^2 - 4 t + 1
        assert np.allclose(B, [-4, 6, -4, 1], atol=1e-12)

    def test_rank_one(self):
        A, B = _coeffs(par.HypergeomParams(("1/2",), ("0",)))
        assert np.allclose(A, [1.0])  # t + 1
        assert np.allclose(B, [-1.0])  # t - 1

    def test_coefficient_identity(self):
        # A_l = A_n conj(A_{n-l}) with A_0 = 1, for self-dual parameters
        for p in (MQ, RANK5, par.HypergeomParams(("1/8", "3/8", "5/8", "7/8"), ("0",) * 4)):
            A = np.concatenate([[1.0], np.asarray(_coeffs(p)[0], dtype=complex)])
            n = p.rank
            for l in range(n + 1):
                assert abs(A[l] - A[n] * np.conj(A[n - l])) < 1e-12

    def test_non_self_dual_refused(self):
        # their coefficients are complex, and so is the group
        with pytest.raises(ValueError, match="self-dual"):
            levelt_matrices(par.HypergeomParams(("1/5", "1/3", "2/5", "3/5"), ("0",) * 4))


class TestLevelt:
    def test_mirror_quintic_columns(self):
        hinf, h0 = levelt_matrices(MQ)
        assert np.allclose(hinf[:, -1], [-1, -1, -1, -1])
        assert np.allclose(h0[:, -1], [-1, 4, -6, 4])
        assert np.allclose(np.diag(hinf[1:, :-1]), 1.0)

    def test_eigenvalues(self):
        hinf, h0 = levelt_matrices(MQ)
        got = list(np.linalg.eigvals(hinf))
        for k in range(1, 5):  # fifth roots of unity minus 1
            want = np.exp(2j * np.pi * k / 5)
            j = int(np.argmin([abs(g - want) for g in got]))
            assert abs(got[j] - want) < 1e-8
            got.pop(j)
        # h0 is defective (one Jordan block of size 4), where eigvals is only
        # accurate to ~eps^{1/4}.  Check maximal unipotency exactly instead:
        # the entries are small integers, so these powers are exact in float64.
        M = h0 - np.eye(4)
        assert np.array_equal(np.linalg.matrix_power(M, 4), np.zeros((4, 4)))
        assert np.any(np.linalg.matrix_power(M, 3) != 0)

    def test_spectrum_matches_parameters(self):
        # eigvals of an eigenvalue in a Jordan block of size m is accurate only
        # to ~eps^{1/m}.  Instead, for each distinct exponent x of multiplicity
        # m, rank (M - e^{2 pi i x})^m = n - m, a well-conditioned check; as the
        # multiplicities add up to n, this pins the spectrum with multiplicity.
        for p in (RANK5, par.HypergeomParams(("1/8", "3/8", "5/8", "7/8"), ("0", "1/4", "1/2", "3/4"))):
            hinf, h0 = levelt_matrices(p)
            n = p.rank
            for mat, exps in ((hinf, p.alpha), (h0, p.beta)):
                mult = Counter(exps)
                for x, m in mult.items():
                    shifted = mat - np.exp(2j * np.pi * float(x)) * np.eye(n)
                    assert numerical_rank(np.linalg.matrix_power(shifted, m)) == n - m, (x, m)


class TestMonodromyAtOne:
    def test_mirror_quintic_rank_one(self):
        hinf, h0 = levelt_matrices(MQ)
        h1, report = monodromy_at_one(h0, hinf)
        assert report["rank_h1_minus_id"] == 1
        assert report["square_is_zero"]
        assert np.allclose(h0 @ h1, hinf)

    def test_rank_one_scalar(self):
        hinf, h0 = levelt_matrices(par.HypergeomParams(("1/2",), ("0",)))
        h1, _ = monodromy_at_one(h0, hinf)
        assert np.allclose(h1, hinf / h0)

    def test_rank5_pseudo_reflection(self):
        rep = build_rep(RANK5)
        assert monodromy_at_one(rep.h0, rep.hinf)[1]["rank_h1_minus_id"] == 1

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            monodromy_at_one(np.zeros((2, 2)), np.eye(2))


class TestReflections:
    def test_rc_antidiagonal(self):
        for p in (MQ, RANK5):
            _, _, R_C = reflection_matrices(*levelt_matrices(p))
            assert np.allclose(R_C, np.fliplr(np.eye(p.rank)))

    def test_involutions_and_relations(self):
        rep = build_rep(MQ)
        R_A, R_B, R_C = reflection_matrices(*levelt_matrices(MQ))
        eye = np.eye(4)
        for R in (R_A, R_B, R_C):
            assert np.allclose(R @ R, eye, atol=1e-12)
        assert np.allclose(R_C @ R_B, rep.h0, atol=1e-12)
        assert np.allclose(R_C @ R_A, rep.hinf, atol=1e-12)
        assert np.allclose(R_B @ R_A, rep.h1, atol=1e-12)

    def test_rb_exact_involution_for_mum(self):
        _, R_B, _ = reflection_matrices(*levelt_matrices(MQ))
        # integer coefficients: exact in float arithmetic
        assert np.array_equal(R_B @ R_B, np.eye(4))

    def test_distinguished_eigenvector(self):
        # R_A fixes the line of (A_{n-1}, ..., A_1, 2), with eigenvalue -A_n
        R_A, _, _ = reflection_matrices(*levelt_matrices(MQ))
        A, _ = _coeffs(MQ)
        v, lam = np.concatenate([A[:-1][::-1], [2.0]]), -A[-1]
        assert np.allclose(v, [1, 1, 1, 2])
        assert lam == -1.0
        assert np.allclose(R_A @ v, lam * v)


def _exact_pair(m):
    """(m, m^-1) as object arrays of Python ints, for an integral m whose inverse is integral."""
    pair = [np.array([[int(x) for x in row] for row in g], dtype=object)
            for g in (m, np.rint(np.linalg.inv(m)))]
    assert np.array_equal(np.rint(m), m)
    assert (pair[0] @ pair[1] == np.eye(len(m), dtype=int)).all()
    return pair


def _word(word, gens, mul):
    """The product of the syllables (s, k), leftmost first; gens[s] is (g, g^-1)."""
    return reduce(mul, [gens[s][k < 0] for s, k in word for _ in range(abs(k))])


def test_octic_kernel_word_is_hyperbolic():
    # h_inf^4 = -I on the octic, so rho kills inf^2.0^1.inf^4.0^-1.inf^2, a hyperbolic
    # element of the default (inf, inf, 8) triangle group far from the identity
    word = [("inf", 2), ("0", 1), ("inf", 4), ("0", -1), ("inf", 2)]
    hinf, h0 = levelt_matrices(OCTIC)
    rho = _word(word, {"0": _exact_pair(h0), "inf": _exact_pair(hinf)}, np.matmul)
    assert (rho == np.eye(4, dtype=int)).all()
    sig = fox.orbifold_signature(OCTIC)
    assert sig == fox.OrbifoldSignature(fox.INF, fox.INF, 8)
    gens = fox.build_domain(sig).gens
    fuchs = _word(word, {s: (gens[s], fox.mat_inv(gens[s])) for s in ("0", "inf")}, fox.mat_mul)
    assert frobenius_distance(fuchs) > 12.0


class TestInvariantForm:
    def test_mirror_quintic_antisymmetric(self, mq_rep):
        J = mq_rep.J
        assert np.allclose(J, -J.T, atol=1e-12)
        assert abs(np.linalg.det(J)) > 1e-6
        for h in (mq_rep.h0, mq_rep.hinf, mq_rep.h1):
            assert np.linalg.norm(h.T @ J @ h - J) <= 1e-9 * np.linalg.norm(J)

    def test_identity_generators_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            invariant_bilinear_form([np.eye(3), np.eye(3)])

    def test_rank5_symmetric_signature(self):
        rep = build_rep(RANK5)
        J = rep.J
        assert np.allclose(J, J.T, atol=1e-12)
        assert form_signature(J) == (2, 3)

    def test_normalization_deterministic(self, mq_rep):
        J2 = invariant_bilinear_form([mq_rep.h0, mq_rep.hinf])
        assert np.array_equal(J2, mq_rep.J) or np.allclose(J2, mq_rep.J, atol=1e-14)
        assert np.max(np.abs(J2)) == pytest.approx(1.0)


class TestSymplecticBasis:
    def test_standard(self):
        S = symplectic_basis(STANDARD_J4)
        assert np.allclose(S, np.eye(4))

    def test_scaled(self):
        S = symplectic_basis(2.0 * STANDARD_J4)
        gram = S.T @ (2.0 * STANDARD_J4) @ S
        assert np.allclose(gram, STANDARD_J4, atol=1e-12)
        # f vectors rescaled by 1/2
        assert np.allclose(S[:, 2], [0, 0, 0.5, 0])
        assert np.allclose(S[:, 3], [0, 0, 0, 0.5])

    def test_random_pairing_table(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = rng.normal(size=(4, 4))
            J = m - m.T
            if abs(np.linalg.det(J)) < 1e-3:
                continue
            S = symplectic_basis(J)
            gram = S.T @ J @ S
            assert np.allclose(gram, STANDARD_J4, atol=1e-9)

    def test_degenerate_rejected(self):
        J = np.zeros((4, 4))
        J[0, 1], J[1, 0] = 1, -1
        with pytest.raises(ValueError):
            symplectic_basis(J)

    def test_standardized_rep_is_symplectic(self, mq_std):
        for h in (mq_std.h0, mq_std.h1, mq_std.hinf):
            assert np.linalg.norm(h.T @ STANDARD_J4 @ h - STANDARD_J4) < 1e-9
