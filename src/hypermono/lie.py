"""Cartan projections, unipotent logarithms and log-proximal cusp lines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import numerical_rank, orth_basis, projective_normalize

NILPOTENT_TOL = 1e-9


@dataclass(frozen=True)
class CartanData:
    """g = k_minus . exp(diag mu) . k_plus with orthogonal factors, mu nonincreasing."""

    k_minus: np.ndarray
    mu: np.ndarray
    k_plus: np.ndarray


def kak(g) -> CartanData:
    """SVD-based Cartan decomposition with a deterministic sign convention."""
    g = np.asarray(g, dtype=float)
    u, s, vt = np.linalg.svd(g)
    if s[-1] <= 0:
        raise ValueError("singular matrix has no KAK decomposition")
    # fix signs: largest entry of each left singular vector made positive
    for i in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, i])))
        if u[j, i] < 0:
            u[:, i] = -u[:, i]
            vt[i, :] = -vt[i, :]
    return CartanData(k_minus=u, mu=np.log(s), k_plus=vt)


def alpha1_gap(g) -> float:
    """mu_1 - mu_2, the first simple-root value of the Cartan projection."""
    d = kak(g)
    return float(d.mu[0] - d.mu[1])


def _matrix_scale(n):
    """||n||, the unit for the cuts on the powers n^i (1 for n = 0)."""
    return float(np.linalg.norm(n)) or 1.0


def nilpotent_order(N):
    """Largest d with N^d != 0 (and N^{dim} must vanish); errors otherwise.

    N^i counts as zero when ||N^i|| <= NILPOTENT_TOL * ||N||^i, a cut that does not
    depend on the scale of N.
    """
    N = np.asarray(N, dtype=float)
    dim = N.shape[0]
    scale = _matrix_scale(N)
    powers = [np.eye(dim)]
    for _ in range(dim):
        powers.append(powers[-1] @ N)
    if np.linalg.norm(powers[dim]) > NILPOTENT_TOL * scale**dim:
        raise ValueError("matrix is not nilpotent")
    d = 0
    for i in range(dim, 0, -1):
        if np.linalg.norm(powers[i]) > NILPOTENT_TOL * scale**i:
            d = i
            break
    return d, powers


def unipotent_log(T):
    """log T by the finite series for unipotent T; errors if T - id is not nilpotent."""
    T = np.asarray(T, dtype=float)
    dim = T.shape[0]
    M = T - np.eye(dim)
    scale = max(1.0, np.linalg.norm(T))
    check = M
    for _ in range(dim - 1):
        check = check @ M
    if np.linalg.norm(check @ M) > 1e-8 * scale**dim:
        raise ValueError("matrix is not unipotent")
    out = np.zeros_like(M)
    power = M.copy()
    for k in range(1, dim + 1):
        out += ((-1) ** (k + 1) / k) * power
        power = power @ M
    return out


def is_log_proximal(T):
    """Log-proximality verdict ``(ok, line)`` with the attracting line (None if not ok).

    T unipotent with N = log T of order d is log-proximal iff rank(N^d) = 1,
    i.e. the deepest filtration step W_{-d} = im(N^d) is a line; that line is
    the attracting one.
    """
    N = unipotent_log(T)
    d, powers = nilpotent_order(N)
    if d == 0:
        return False, None
    nd = powers[d]
    if numerical_rank(nd) != 1:
        return False, None
    return True, projective_normalize(orth_basis(nd)[:, 0])
