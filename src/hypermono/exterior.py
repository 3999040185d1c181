"""The Sp4 <-> SO(2,3) dictionary on the reduced exterior square.

Coordinates on the five-dimensional space W use the basis

    a = e1^e2, b = e1^f2, c = e1^f1 - e2^f2, d = f1^e2, e = f1^f2

for a symplectic basis (e1, e2, f1, f2) with <e_i, f_i> = 1.  The invariant
quadratic form is Q(w, w) = -a*e + b*d - c^2, of signature (2, 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import RANK_RTOL, numerical_rank, projective_normalize
from .monodromy import STANDARD_J4

# index pairs of the 6-dim exterior square, basis order (01, 02, 03, 12, 13, 23)
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# W basis vectors inside Lambda^2 (columns), order (a, b, c, d, e)
_W_EMBED = np.array(
    [
        # 01   02   03   12   13   23
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # a = e1^e2
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # b = e1^f2
        [0.0, 1.0, 0.0, 0.0, -1.0, 0.0],  # c = e1^f1 - e2^f2
        [0.0, 0.0, 0.0, -1.0, 0.0, 0.0],  # d = f1^e2 = -e2^f1
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],  # e = f1^f2
    ]
).T

# dual symplectic bivector e1^f1 + e2^f2, completing the basis of Lambda^2
_J_BIVECTOR = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])

_BASIS6 = np.column_stack([_W_EMBED, _J_BIVECTOR])
_BASIS6_INV = np.linalg.inv(_BASIS6)

GRAM_Q = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, -0.5],
        [0.0, 0.0, 0.0, 0.5, 0.0],
        [0.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.0, 0.0, 0.0],
    ]
)


def q_value(w):
    """The quadratic value Q(w, w)."""
    w = np.asarray(w, dtype=float)
    return float(w @ GRAM_Q @ w)


def wedge_vec(u, v):
    """u ^ v in the 6-dim coordinates."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.array([u[i] * v[j] - u[j] * v[i] for i, j in _PAIRS])


def _wedge_matrix(g):
    g = np.asarray(g, dtype=float)
    m = np.empty((6, 6))
    for col, (k, l) in enumerate(_PAIRS):
        m[:, col] = wedge_vec(g[:, k], g[:, l])
    return m


def is_symplectic(g):
    g = np.asarray(g, dtype=float)
    return np.linalg.norm(g.T @ STANDARD_J4 @ g - STANDARD_J4) <= 1e-8 * max(
        1.0, np.linalg.norm(g) ** 2
    )


def reduced_exterior_square(g):
    """Action of g on W in the (a, b, c, d, e) coordinates.

    Requires g symplectic for the standard form; the result preserves Q.
    """
    if not is_symplectic(g):
        raise ValueError("matrix is not symplectic for the standard form")
    m6 = _wedge_matrix(g)
    coords = _BASIS6_INV @ m6 @ _W_EMBED
    return coords[:5].copy()


def wedge_to_w(x6):
    """Coordinates of a Lambda^2 vector on the W basis; errors off W."""
    coords = _BASIS6_INV @ np.asarray(x6, dtype=float)
    if abs(coords[5]) > 1e-9 * max(1.0, np.linalg.norm(coords)):
        raise ValueError("vector has a component along the symplectic bivector")
    return coords[:5].copy()


@dataclass(frozen=True)
class LagrangianPlane:
    """A Lagrangian 2-plane, spanned by the columns of ``span``."""

    span: np.ndarray

    def __init__(self, span):
        m = np.asarray(span, dtype=float)
        if m.shape != (4, 2):
            raise ValueError(f"span must be a 4x2 array of column vectors, not {m.shape}")
        if numerical_rank(m) != 2:
            raise ValueError("spanning vectors are dependent")
        pairing = float(m[:, 0] @ STANDARD_J4 @ m[:, 1])
        if abs(pairing) > RANK_RTOL * np.linalg.norm(m[:, 0]) * np.linalg.norm(m[:, 1]):
            raise ValueError(f"not Lagrangian: <u, v> = {pairing}")
        object.__setattr__(self, "span", m)

    def transformed(self, g):
        return LagrangianPlane(np.asarray(g) @ self.span)


def pluecker(L: LagrangianPlane):
    """Normalized Q-isotropic 5-vector of a Lagrangian plane."""
    w = wedge_to_w(wedge_vec(L.span[:, 0], L.span[:, 1]))
    return projective_normalize(w)

