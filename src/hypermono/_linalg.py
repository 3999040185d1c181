"""Small shared linear-algebra helpers (null spaces, normalization, ranks)."""

from __future__ import annotations

import numpy as np

SIGN_TOL = 1e-12


def projective_normalize(v, tol=SIGN_TOL):
    """Unit Euclidean norm, first coordinate of absolute value > tol made positive."""
    v = np.asarray(v, dtype=v.dtype if np.iscomplexobj(v) else float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    v = v / n
    for x in np.ravel(v):
        if abs(x) > tol:
            if (x.real if np.iscomplexobj(v) else x) < 0:
                v = -v
            break
    return v


def numerical_rank(a, rtol=1e-9):
    a = np.asarray(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def null_space(a, rtol=1e-9, atol=None):
    """Orthonormal basis of the (numerical) kernel, columns of the result.

    With ``atol`` set, singular values are cut at an absolute threshold
    instead of relative to the largest one (for matrices whose entries sit
    near a known noise floor).
    """
    a = np.asarray(a, dtype=float)
    u, s, vt = np.linalg.svd(a)
    if atol is not None:
        r = int(np.sum(s > atol))
    elif s.size and s[0] > 0:
        r = int(np.sum(s > rtol * s[0]))
    else:
        r = 0
    return vt[r:].T.copy()


def orth_basis(a, rtol=1e-9, atol=None):
    """Orthonormal basis of the column space, columns of the result."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0:
        return np.zeros((a.shape[0], 0))
    if atol is not None:
        r = int(np.sum(s > atol))
    else:
        r = int(np.sum(s > rtol * s[0]))
    return u[:, :r].copy()


def subspace_intersection(a, b, rtol=1e-9):
    """Orthonormal basis of span(a) & span(b); a, b hold spanning columns."""
    a = orth_basis(a, rtol)
    b = orth_basis(b, rtol)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    # x in both spans: x = a u = b w, solve [a, -b] [u;w] = 0
    ns = null_space(np.hstack([a, -b]), rtol)
    if ns.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    return orth_basis(a @ ns[: a.shape[1]], rtol)

