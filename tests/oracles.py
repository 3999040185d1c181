"""Per-item reference implementations that the package's batched paths are tested against."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from hypermono import fuchsian as fox
from hypermono._linalg import projective_normalize


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


def hyp_distance(tau1, tau2):
    """Hyperbolic distance in the upper half-plane: cosh d = 1 + |dt|^2/(2 y1 y2)."""
    t1, t2 = complex(tau1), complex(tau2)
    if t1.imag <= 0 or t2.imag <= 0:
        raise ValueError("points must have positive imaginary part")
    x = 1.0 + abs(t1 - t2) ** 2 / (2.0 * t1.imag * t2.imag)
    return math.acosh(max(1.0, x))


def frobenius_distance(m):
    """dist(i, m . i) = arccosh(||m||_F^2 / 2) for m in SL(2, R)."""
    a, b, c, d = m
    q = (a * a + b * b + c * c + d * d) / 2.0
    return math.acosh(max(1.0, q))


def _word_str(word):
    if not word:
        return "e"
    return ".".join(f"{s}^{k}" for s, k in word)


def reduced_word_count(orders, L):
    """Reduced words of length <= L in the free product of cyclic groups of ``orders``
    (``math.inf`` for infinite order), the empty word included.

    A syllable s^k has k != 0 and, when s has finite order e, k in (-e/2, e/2];
    consecutive syllables have distinct letters, and a word's length is the sum of |k|.
    """

    def exponents(e, k):  # of the syllables s^(+-k)
        return 2 if 2 * k < e else 1 if 2 * k == e else 0

    # ending[ell][i]: words of length ell whose last syllable has letter i
    ending = [[0] * len(orders) for _ in range(L + 1)]
    for ell in range(1, L + 1):
        for i, e in enumerate(orders):
            for k in range(1, ell + 1):
                before = 1 if k == ell else sum(c for j, c in enumerate(ending[ell - k]) if j != i)
                ending[ell][i] += exponents(e, k) * before
    return 1 + sum(map(sum, ending))


def veronese(v):
    """Image of a plane direction on the twisted cubic in the sym_cube basis."""
    s, t = float(v[0]), float(v[1])
    r3 = math.sqrt(3.0)
    return projective_normalize(np.array([s**3, r3 * s * s * t, r3 * s * t * t, t**3]))


def geodesic_codes(sig, seed, total_time) -> bytes:
    """``geodesic_sample``'s mirror codes, by the loop that tests every mirror but the last."""
    return geodesic_crossings(sig, seed, total_time)[0]


def geodesic_crossings(sig, seed, total_time) -> tuple[bytes, array]:
    """``geodesic_sample``'s mirror codes and crossing arc lengths, by the loop that tests
    every mirror but the last, and takes the sampler's jumps over cusp excursions: at a
    crossing of a cusp's wall whose next crossing is of the cusp's other wall, climbing
    above the horocycle on a semicircle of radius at least sqrt(H^2 + CUSP_JUMP_MIN^2)."""
    phi = float(np.random.default_rng(seed).uniform(0.0, math.pi))
    state = (0.0, 0.0, 1.0, -math.sin(phi), math.cos(phi), 0.0, 1, 0.0)
    codes, times = bytearray(), array("d")
    for code, t, _ in crossings(sig, state, jumps=True):
        if t >= total_time:
            return bytes(codes), times
        codes.append(code)
        times.append(t)


def crossings(sig, state, jumps):
    """The crossings of the geodesic from ``state`` (point, tangent, code and arc length
    of a crossing, as ``geodesic_sample`` keeps it), one (code, arc length, state after
    it) at a time, with or without the sampler's jumps; a jumped crossing but the last of
    its jump has no state (None)."""
    mirrors = [fox._mirror(r) for r in fox.build_domain(sig).reflections]
    charts = fox.cusp_charts(sig) if jumps else {}
    x0, x1, x2, v0, v1, v2, last, t_now = state
    while True:
        best_t = math.inf
        for code, (n0, n1, n2) in enumerate(mirrors):
            if code == last or (vn := v0 * n0 + v1 * n1 - v2 * n2) == 0.0:
                continue
            ratio = -(x0 * n0 + x1 * n1 - x2 * n2) / vn
            if 0.0 < ratio < 1.0 and (t := math.atanh(ratio)) < best_t:
                best_t, best = t, code
        if best_t == math.inf:
            raise RuntimeError("geodesic found no exit mirror (corner hit?)")
        chart = charts.get((min(last, best), max(last, best)))
        if chart is not None:
            p0, p1, p2 = chart.p
            m0, m1, m2 = chart.normals[chart.walls.index(last)]
            h = chart.horocycle
            pi = x2 * p2 - x0 * p0 - x1 * p1  # 1 over the height in the chart
            if (pi < 1.0 / h and v0 * p0 + v1 * p1 - v2 * p2 > 0.0
                    and (pi * (v0 * m0 + v1 * m1 - v2 * m2)) ** 2 * (h**2 + fox.CUSP_JUMP_MIN**2)
                    <= 1.0):
                run, run_times, after = fox.cusp_excursion(chart, (x0, x1, x2), (v0, v1, v2),
                                                           last, t_now)
                for code, t in zip(run[:-1], run_times[:-1]):
                    yield code, t, None
                yield run[-1], run_times[-1], after
                x0, x1, x2, v0, v1, v2, last, t_now = after
                continue
        last = best
        t_now += best_t
        ch, sh = math.cosh(best_t), math.sinh(best_t)
        x0, x1, x2, v0, v1, v2 = (ch * x0 + sh * v0, ch * x1 + sh * v1, ch * x2 + sh * v2,
                                  sh * x0 + ch * v0, sh * x1 + ch * v1, sh * x2 + ch * v2)
        n0, n1, n2 = mirrors[last]
        s = 2.0 * (v0 * n0 + v1 * n1 - v2 * n2)
        v0, v1, v2 = v0 - s * n0, v1 - s * n1, v2 - s * n2
        k = 1.0 / math.sqrt(x2 * x2 - x0 * x0 - x1 * x1)
        x0, x1, x2 = k * x0, k * x1, k * x2
        s = x0 * v0 + x1 * v1 - x2 * v2
        v0, v1, v2 = v0 + s * x0, v1 + s * x1, v2 + s * x2
        k = 1.0 / math.sqrt(v0 * v0 + v1 * v1 - v2 * v2)
        v0, v1, v2 = k * v0, k * v1, k * v2
        yield last, t_now, (x0, x1, x2, v0, v1, v2, last, t_now)
