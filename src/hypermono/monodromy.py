"""Monodromy and reflection matrices from exponent parameters.

Generators follow the companion-matrix normal form: h_inf has characteristic
polynomial prod(t - exp(2 pi i alpha_j)), h_0 the conjugate-beta one, and
h_1 = h_0^{-1} h_inf.  Only self-dual parameters are taken: their group is
real, and it embeds with index 2 in the group generated by three involutions
R_A, R_B, R_C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RTOL, null_space, numerical_rank
from .params import HypergeomParams


def _poly_from_exponents(exps):
    roots = np.exp(2j * np.pi * np.array([float(x) for x in exps]))
    # drop the leading 1; a self-dual multiset of roots gives real coefficients
    c = np.poly(roots)[1:].real.copy()
    # snap coefficients that are integers up to roundoff (exact parameter sets)
    snapped = np.rint(c)
    c[np.abs(c - snapped) < 1e-12] = snapped[np.abs(c - snapped) < 1e-12]
    return c


def levelt_matrices(p: HypergeomParams):
    """(h_inf, h_0): companion matrices of prod(t - e^{2 pi i alpha_j}) and the beta one.

    Ones below the diagonal, and last columns (-A_n..-A_1), (-B_n..-B_1) for the
    polynomials t^n + A_1 t^{n-1} + ... + A_n.  Refuses parameters that are not
    self-dual, whose coefficients are not real.
    """
    if not p.self_dual:
        raise ValueError("the monodromy package needs self-dual parameters (a real group)")

    def companion(exps):
        m = np.eye(p.rank, k=-1)
        m[:, -1] = -_poly_from_exponents(exps)[::-1]
        return m

    return companion(p.alpha), companion(p.beta)


def monodromy_at_one(h_0, h_inf):
    """h_1 = h_0^{-1} h_inf with a structure report on h_1 - id."""
    h_0 = np.asarray(h_0)
    if abs(np.linalg.det(h_0)) < 1e-14:
        raise ValueError("h_0 is singular")
    h_1 = np.linalg.solve(h_0, np.asarray(h_inf))
    u = h_1 - np.eye(h_1.shape[0])
    rank = numerical_rank(u)
    sq = u @ u
    sq_zero = bool(np.linalg.norm(sq) <= RANK_RTOL * max(1.0, np.linalg.norm(u)) ** 2)
    return h_1, {"rank_h1_minus_id": rank, "square_is_zero": sq_zero}


def reflection_matrices(h_inf, h_0):
    """The three involutions with R_C R_B = h_0, R_C R_A = h_inf, R_B R_A = h_1.

    R_C is the antidiagonal identity, an involution, so R_A = R_C h_inf and
    R_B = R_C h_0: the Levelt matrices with their rows reversed.
    """
    return np.flipud(h_inf), np.flipud(h_0), np.flipud(np.eye(len(h_inf)))


def invariant_bilinear_form(mats):
    """The bilinear form J with h^T J h = J for every generator, by null space.

    The solution space must be one-dimensional (irreducibility); J is
    normalized to unit largest entry with the first nonzero entry positive,
    and symmetrized to its dominant (anti)symmetric part.
    """
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = mats[0].shape[0]
    blocks = []
    eye = np.eye(n * n)
    for h in mats:
        # vec(h^T J h) = (h^T kron h^T) vec(J)
        blocks.append(np.kron(h.T, h.T) - eye)
    system = np.vstack(blocks)
    ns = null_space(system)
    if ns.shape[1] != 1:
        raise ValueError(
            f"invariant form space has dimension {ns.shape[1]}, expected 1 "
            "(reducible or degenerate input)"
        )
    J = ns[:, 0].reshape(n, n)
    sym = 0.5 * (J + J.T)
    anti = 0.5 * (J - J.T)
    symmetric = np.linalg.norm(sym) >= np.linalg.norm(anti)
    J = sym if symmetric else anti
    J = J / np.max(np.abs(J))
    if symmetric:
        # orthogonal case: orient like the W-model form of signature (2, 3)
        pos, neg = form_signature(J)
        if pos > neg:
            J = -J
    else:
        for x in J.ravel():
            if abs(x) > 1e-12:
                if x < 0:
                    J = -J
                break
    return J


def form_signature(J):
    """(n_plus, n_minus) eigenvalue signs of a symmetric form."""
    w = np.linalg.eigvalsh(0.5 * (J + J.T))
    scale = max(1.0, np.max(np.abs(w)))
    pos = int(np.sum(w > 1e-10 * scale))
    neg = int(np.sum(w < -1e-10 * scale))
    return pos, neg


def symplectic_basis(J):
    """Columns (e1, e2, f1, f2) with <e_i, f_i>_J = 1 and all other pairings 0."""
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if n != 4 or np.linalg.norm(J + J.T) > RANK_RTOL * np.linalg.norm(J):
        raise ValueError("need an antisymmetric 4x4 form")
    if abs(np.linalg.det(J)) < 1e-14:
        raise ValueError("degenerate form")

    def omega(u, v):
        return float(u @ J @ v)

    basis = [np.eye(n)[:, i] for i in range(n)]
    es, fs = [], []
    pool = basis
    for _ in range(2):
        e = pool[0]
        partner = next(v for v in pool[1:] if abs(omega(e, v)) > RANK_RTOL)
        f = partner / omega(e, partner)
        rest = []
        for v in pool[1:]:
            if v is partner:
                continue
            w = v - omega(v, f) * e + omega(v, e) * f
            if np.linalg.norm(w) > RANK_RTOL:
                rest.append(w)
        es.append(e)
        fs.append(f)
        pool = rest
    S = np.column_stack(es + fs)
    return S


STANDARD_J4 = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


@dataclass
class MonodromyRep:
    """Generators h_0, h_1, h_inf (h_0 h_1 = h_inf) and their invariant form J."""

    h0: np.ndarray
    h1: np.ndarray
    hinf: np.ndarray
    J: np.ndarray

    @property
    def n(self) -> int:
        return self.h0.shape[0]

    def standardized(self):
        """Conjugate into the frame where J is the standard symplectic form.

        Returns (rep, S) with rep.J = STANDARD_J4 and rep.h = S^{-1} h S.
        Only defined for n = 4 with an antisymmetric invariant form.
        """
        if self.n != 4:
            raise ValueError("standardization needs a 4x4 rep with invariant form")
        S = symplectic_basis(self.J)
        Si = np.linalg.inv(S)
        conj = lambda m: Si @ m @ S
        rep = MonodromyRep(
            h0=conj(self.h0),
            h1=conj(self.h1),
            hinf=conj(self.hinf),
            J=STANDARD_J4.copy(),
        )
        return rep, S


def build_rep(p: HypergeomParams) -> MonodromyRep:
    """Generators and invariant form of a self-dual parameter set."""
    h_inf, h_0 = levelt_matrices(p)
    h_1, _ = monodromy_at_one(h_0, h_inf)
    return MonodromyRep(
        h0=h_0,
        h1=h_1,
        hinf=h_inf,
        J=invariant_bilinear_form([h_0, h_inf]),
    )
