"""Small shared linear-algebra helpers (null spaces, normalization, ranks)."""

from __future__ import annotations

import numpy as np

SIGN_TOL = 1e-12
RANK_RTOL = 1e-9  # singular values at or below RANK_RTOL * s[0] count as zero


def projective_normalize(v):
    """Unit Euclidean norm, first coordinate of absolute value > SIGN_TOL made positive.

    ``v`` is one vector (n,) or a stack of rows (N, n), each row normalized
    alone.  The norm is a stacked matmul on a C-contiguous copy, which gives
    ``np.linalg.norm`` of each row bit for bit; on a strided stack it does not.
    """
    v = np.asarray(v, dtype=float)
    rows = np.ascontiguousarray(v.reshape(-1, v.shape[-1]))
    norm = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if np.any(norm == 0):
        raise ValueError("cannot normalize the zero vector")
    rows = rows / norm[:, None]
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows) > SIGN_TOL, axis=1)]
    rows[lead < 0] *= -1.0
    return rows.reshape(v.shape)


def _rank_cut(s, rtol, atol):
    """Number of singular values ``s`` (nonincreasing) above the cut.

    The cut is ``atol`` when given, else ``rtol * s[0]``; the count is 0 when
    ``s`` is empty or ``s[0]`` is 0.
    """
    if not s.size or s[0] == 0:
        return 0
    return int(np.sum(s > (rtol * s[0] if atol is None else atol)))


def numerical_rank(a, rtol=RANK_RTOL):
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    return _rank_cut(s, rtol, None)


def null_space(a, atol=None):
    """Orthonormal basis of the (numerical) kernel, columns of the result.

    With ``atol`` set, singular values are cut at an absolute threshold
    instead of relative to the largest one (for matrices whose entries sit
    near a known noise floor).
    """
    _, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    return vt[_rank_cut(s, RANK_RTOL, atol):].T.copy()


def orth_basis(a, atol=None):
    """Orthonormal basis of the column space, columns of the result."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_rank_cut(s, RANK_RTOL, atol)].copy()


def subspace_intersection(a, b):
    """Orthonormal basis of span(a) & span(b); a, b hold spanning columns."""
    a = orth_basis(a)
    b = orth_basis(b)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    # x in both spans: x = a u = b w, solve [a, -b] [u;w] = 0
    ns = null_space(np.hstack([a, -b]))
    if ns.shape[1] == 0:
        return np.zeros((a.shape[0], 0))
    return orth_basis(a @ ns[: a.shape[1]])
