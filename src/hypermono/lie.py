"""Cartan projections, nilpotent weight filtrations and sl2 triples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import (
    null_space,
    numerical_rank,
    orth_basis,
    projective_normalize,
    subspace_intersection,
)

NILPOTENT_TOL = 1e-9
SL2_TOL = 1e-8


# --- KAK / Cartan projection -------------------------------------------------


@dataclass(frozen=True)
class CartanData:
    """g = k_minus . exp(diag mu) . k_plus with orthogonal factors, mu nonincreasing."""

    k_minus: np.ndarray
    mu: np.ndarray
    k_plus: np.ndarray

    def reconstruct(self):
        return self.k_minus @ np.diag(np.exp(self.mu)) @ self.k_plus


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


# --- nilpotent structure ------------------------------------------------------


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


def jordan_chains(N):
    """Jordan chain basis of a nilpotent N.

    Returns a list of chains, each a list [w, Nw, ..., N^{s-1} w].  The
    number of chains of each length is fixed by the kernel dimensions, so
    exactly that many tops are split off at every level.
    """
    N = np.asarray(N, dtype=float)
    dim = N.shape[0]
    d, powers = nilpotent_order(N)
    scale = _matrix_scale(N)
    kernels = [np.zeros((dim, 0))]
    for i in range(1, d + 1):
        kernels.append(null_space(powers[i] / scale**i, atol=1e-12))
    kernels.append(np.eye(dim))  # N^{d+1} = 0 by definition of the order
    chains = []
    for s in range(d + 1, 0, -1):  # chain length s, tops have height s
        expected = kernels[s].shape[1] - kernels[s - 1].shape[1] - sum(
            1 for ch in chains if len(ch) > s
        )
        if expected <= 0:
            continue
        spanned = [kernels[s - 1]]
        for ch in chains:
            if len(ch) > s:
                spanned.append(ch[len(ch) - s][:, None])
        M = np.hstack(spanned)
        base = orth_basis(M) if M.shape[1] else M
        cand = kernels[s]
        proj = cand - base @ (base.T @ cand) if base.shape[1] else cand
        u, sv, _ = np.linalg.svd(proj, full_matrices=False)
        if sv[expected - 1] < 1e-8:
            raise ValueError("chain construction failed: degenerate tops")
        tops = u[:, :expected]
        for j in range(expected):
            w = tops[:, j]
            chain = [w]
            for _ in range(s - 1):
                chain.append(N @ chain[-1])
            chains.append(chain)
    total = sum(len(c) for c in chains)
    if total != dim:
        raise ValueError(f"chain construction failed: got {total} vectors, need {dim}")
    return chains


@dataclass(frozen=True)
class WeightFiltration:
    """Nested subspaces W_{-d} c ... c W_d = V attached to a nilpotent."""

    order: int
    levels: dict  # level i -> orthonormal basis (columns) of W_i

    def basis(self, i):
        d = self.order
        if i >= d:
            return self.levels[d]
        if i < -d:
            return self.levels[-d][:, :0]
        # stored levels cover -d..d
        return self.levels[i]

    def dim(self, i):
        return self.basis(i).shape[1]


def weight_filtration_from_chains(chains, dim) -> WeightFiltration:
    d = max(len(c) for c in chains) - 1
    by_weight = {}
    for ch in chains:
        s = len(ch)
        for j, v in enumerate(ch):
            by_weight.setdefault(s - 1 - 2 * j, []).append(v)
    levels = {}
    acc = []
    for i in range(-d, d + 1):
        acc.extend(by_weight.get(i, []))
        levels[i] = orth_basis(np.column_stack(acc)) if acc else np.zeros((dim, 0))
    return WeightFiltration(order=d, levels=levels)


def weight_filtration(N) -> WeightFiltration:
    """The canonical weight filtration of a nilpotent N.

    Characterized by N(W_i) c W_{i-2} together with N^i inducing
    isomorphisms W_i/W_{i-1} -> W_{-i}/W_{-i-1}; computed here through the
    sl2 grading of a Jordan chain basis.
    """
    N = np.asarray(N, dtype=float)
    dim = N.shape[0]
    d, _ = nilpotent_order(N)
    if d == 0:
        return WeightFiltration(order=0, levels={0: np.eye(dim)})
    chains = jordan_chains(N)
    return weight_filtration_from_chains(chains, dim)


def weight_filtration_kernel_image(N) -> WeightFiltration:
    """Independent construction: W_k = sum_i ker(N^{k+i+1}) & im(N^i)."""
    N = np.asarray(N, dtype=float)
    dim = N.shape[0]
    d, powers = nilpotent_order(N)
    scale = _matrix_scale(N)
    kers = {0: np.zeros((dim, 0)), d + 1: np.eye(dim)}
    ims = {0: np.eye(dim), d + 1: np.zeros((dim, 0))}
    for i in range(1, d + 1):
        kers[i] = null_space(powers[i] / scale**i, atol=1e-12)
        ims[i] = orth_basis(powers[i] / scale**i, atol=1e-12)
    levels = {}
    for k in range(-d, d + 1):
        pieces = []
        for i in range(0, d + 1):
            j = k + i + 1
            if j <= 0:
                continue
            j = min(j, d + 1)
            ker = kers[j]
            im = ims[min(i, d + 1)]
            if ker.shape[1] == 0 or im.shape[1] == 0:
                continue
            inter = subspace_intersection(ker, im)
            if inter.shape[1]:
                pieces.append(inter)
        levels[k] = orth_basis(np.hstack(pieces)) if pieces else np.zeros((dim, 0))
    return WeightFiltration(order=d, levels=levels)


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
    """Log-proximality verdict with the attracting line and repelling hyperplane.

    T unipotent with N = log T of order d is log-proximal iff rank(N^d) = 1,
    i.e. the deepest filtration step W_{-d} = im(N^d) is a line and
    W_{d-1} = ker(N^d) a hyperplane.
    """
    N = unipotent_log(T)
    d, powers = nilpotent_order(N)
    if d == 0:
        return False, None, None
    nd = powers[d]
    if numerical_rank(nd) != 1:
        return False, None, None
    line = projective_normalize(orth_basis(nd)[:, 0])
    hyperplane = null_space(nd / max(1.0, np.linalg.norm(nd)))
    return True, line, hyperplane


def chain_basis(chains):
    """The Jordan chain basis P (chains side by side) and its condition number.

    The condition number is that of P with its columns scaled to unit norm.
    A chain [w, Nw, N^2 w, ...] has column norms growing like ||N||^j, and
    that scaling commutes with the diagonal grading of an sl2 triple, so only
    the unit-column basis affects the accuracy of Y.
    """
    P = np.column_stack([v for ch in chains for v in ch])
    return P, float(np.linalg.cond(P / np.linalg.norm(P, axis=0)))


def jacobson_morozov(N):
    """An sl2 triple (Y, N_plus) completing the nilpotent N = N_minus.

    Built directly from a Jordan chain basis: on a chain of length s the
    grading element acts by (s-1, s-3, ..., -(s-1)) and the raising operator
    by the standard coefficients j(s-j).

    Y = P y_hat P^{-1} is formed through the chain basis P.  With cond(P)
    the condition number of the unit-column basis (``chain_basis``), Y
    carries a rounding error of about eps * cond(P) * ||Y||, and as P is Y's
    eigenvector matrix, its eigenvalues move off the integers by about
    eps * cond(P)^2.  A chain basis with eps * cond(P)^2 > SL2_TOL is
    refused with a ValueError that reports cond(P).  Each relation
    [Y, N] = -2N, [Y, N_plus] = 2 N_plus, [N_plus, N] = Y is then checked to
    SL2_TOL relative to the norm of its right-hand side; all three are
    invariant under rescaling N, as N_plus scales like 1/N.
    """
    N = np.asarray(N, dtype=float)
    dim = N.shape[0]
    d, _ = nilpotent_order(N)
    if d == 0:
        raise ValueError("need a nonzero nilpotent")
    chains = jordan_chains(N)
    P, kappa = chain_basis(chains)
    if np.finfo(float).eps * kappa**2 > SL2_TOL:
        raise ValueError(f"ill-conditioned Jordan chain basis: cond(P) = {kappa:.3e}")
    y_hat = np.zeros((dim, dim))
    np_hat = np.zeros((dim, dim))
    col = 0
    for ch in chains:
        s = len(ch)
        for j in range(s):
            y_hat[col + j, col + j] = s - 1 - 2 * j
            if j > 0:
                np_hat[col + j - 1, col + j] = j * (s - j)
        col += s
    Pinv = np.linalg.inv(P)
    Y = P @ y_hat @ Pinv
    N_plus = P @ np_hat @ Pinv
    resid = max(
        np.linalg.norm(Y @ N - N @ Y + 2.0 * N) / (2.0 * np.linalg.norm(N)),
        np.linalg.norm(Y @ N_plus - N_plus @ Y - 2.0 * N_plus) / (2.0 * np.linalg.norm(N_plus)),
        np.linalg.norm(N_plus @ N - N @ N_plus - Y) / np.linalg.norm(Y),
    )
    if resid > SL2_TOL:
        raise ValueError(f"sl2 relations not satisfied, relative residual {resid:.3e}")
    return Y, N_plus


def strictly_adapted_norm(N, Y, tau, v):
    """Norm of v in the cusp metric h(tau) = e^{(Re tau) N} e^{-(log Im tau) Y / 2}.

    Computed as ||e^{(log Im tau) Y / 2} e^{-(Re tau) N} v||; requires
    Im tau >= 1 (the cusp regime).  For v of Y-weight k in one
    sl2-irreducible summand of dimension s (a Jordan block of N of length s;
    s - 1 is the order of N when N is principal), with tau = x + iy, the
    norm is within constants (depending on v and N) of
    y^{k/2} (1 + |x|/y)^{(k+s-1)/2}: e^{-xN} v has a weight k - 2j piece of
    size ~ |x|^j for j <= (k+s-1)/2, and y^{Y/2} scales it by y^{k/2 - j}.
    """
    tau = complex(tau)
    if tau.imag < 1.0:
        raise ValueError("strictly adapted metrics are used only for Im tau >= 1")
    N = np.asarray(N, dtype=float)
    Y = np.asarray(Y, dtype=float)
    v = np.ravel(np.asarray(v, dtype=float))
    # e^{-xN} v as its finite series, as N^dim = 0
    w = term = v
    for k in range(1, len(v)):
        term = (-tau.real / k) * (N @ term)
        w = w + term
    # y^{Y/2} through the eigenbasis of Y, whose eigenvalues are integers
    lam, P = np.linalg.eig(Y)
    w = P @ (tau.imag ** (0.5 * np.round(lam.real)) * np.linalg.solve(P, w))
    return float(np.linalg.norm(w.real))

