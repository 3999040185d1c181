"""Triangle-group uniformization and geodesic sampling on the base orbifold.

The base orbifold of a rank-n hypergeometric local system is the sphere with
three cone/cusp points of orders (e0, e1, einf).  The orientation-preserving
triangle group is realized in PSL(2, R), acting on the upper half-plane, as
the rotation half of the group generated by the reflections in the sides of a
triangle: vertices v0 and v1 on the imaginary axis, with angles pi/e0 and
pi/e1, and w to their right with angle pi/einf (a cusp has angle 0).  The
reflections (r_a, r_b, r_c) in the sides v1-w, v0-v1 and v0-w give the
rotations gamma0 = r_c r_b and gamma1 = r_b r_a, as the Levelt reflections
give h0 = R_C R_B and h1 = R_B R_A.  A reflection z -> M(conj z) is the real
2x2 matrix M of determinant -1; such maps compose as matrix products.

Geodesics are flowed in the hyperboloid model and folded back into the
triangle at every mirror crossing, which is recorded as the mirror's code:
0, 1 or 2 for r_a, r_b or r_c.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .params import HypergeomParams

INF = math.inf

# --- 2x2 real matrices as tuples (a, b, c, d) --------------------------------


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_inv(m):
    a, b, c, d = m
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def mat_det(m):
    return m[0] * m[3] - m[1] * m[2]


def mat_normalize(m):
    det = mat_det(m)
    s = math.sqrt(abs(det))
    if det < 0:
        raise ValueError("matrix has negative determinant")
    return tuple(x / s for x in m)


def mobius(m, z):
    a, b, c, d = m
    if z == INF:
        return a / c if c != 0 else INF
    den = c * z + d
    if den == 0:
        return INF
    return (a * z + b) / den


IDENT = (1.0, 0.0, 0.0, 1.0)


def _rot(phi):
    c, s = math.cos(phi), math.sin(phi)
    return (c, s, -s, c)


def _translate_to(p):
    """Element of SL(2, R) mapping i to the interior point p, fixing 'up'."""
    x, y = p.real, p.imag
    r = math.sqrt(y)
    return (r, x / r, 0.0, 1.0 / r)


def rotation_about(p, angle):
    """Hyperbolic rotation by ``angle`` (counterclockwise) about interior p."""
    t = _translate_to(p)
    return mat_mul(mat_mul(t, _rot(angle / 2.0)), mat_inv(t))


# --- orbifold signature -------------------------------------------------------


@dataclass(frozen=True)
class OrbifoldSignature:
    """Cone orders at the three singular points; math.inf marks a cusp."""

    e0: float
    e1: float
    einf: float

    def __post_init__(self):
        for e in (self.e0, self.e1, self.einf):
            if e != INF and (int(e) != e or e < 2):
                raise ValueError(f"cone order must be an integer >= 2 or inf, got {e}")
        # decided and printed exactly: the float chi of (2, 3, 6) is -1.1e-16
        if (chi := self._exact_chi()) >= 0:
            raise ValueError(f"signature {self} is not hyperbolic (chi = {chi})")

    def _exact_chi(self) -> Fraction:
        return -1 + sum(Fraction(1, int(e)) for e in (self.e0, self.e1, self.einf) if e != INF)

    @property
    def chi(self) -> float:
        """The orbifold Euler characteristic, rounded once from its exact value."""
        return float(self._exact_chi())


def _local_order(fracs, convention):
    """Cone order of a companion-form local monodromy with these Fraction exponents in [0, 1)."""
    if len(set(fracs)) != len(fracs):
        return INF  # repeated exponent: nontrivial unipotent part
    if convention == "gl":
        order = math.lcm(*(f.denominator for f in fracs))
    else:
        order = math.lcm(*((f - fracs[0]).denominator for f in fracs[1:]))
    if order < 2:
        raise ValueError("trivial local monodromy: no cone point")
    return order


def orbifold_signature(p: HypergeomParams, convention: str = "gl") -> OrbifoldSignature:
    """Cone orders (e0, e1, einf) of the base orbifold of a parameter set.

    A point gets order inf when the local monodromy has a nontrivial
    unipotent part, else the multiplicative order of the finite-order local
    monodromy.  Exponents must be rational.
    """
    if convention not in ("gl", "projective"):
        raise ValueError("convention must be 'gl' or 'projective'")
    exact = p.beta + p.alpha
    for x in exact:
        if isinstance(x, float):
            raise ValueError(f"irrational exponent {x}: no finite-cover orbifold model")
    e0 = _local_order(exact[: p.rank], convention)
    einf = _local_order(exact[p.rank :], convention)
    # at 1, the monodromy is a pseudo-reflection with special eigenvalue
    # exp(2 pi i gamma), gamma = (n-1) - sum(alpha) - sum(beta)
    gamma = (p.rank - 1 - sum(exact)) % 1
    e1 = INF if gamma == 0 else float(gamma.denominator)
    return OrbifoldSignature(e0=e0, e1=e1, einf=einf)


# --- triangle domain ----------------------------------------------------------


@dataclass
class TriangleDomain:
    """The rotations gamma0, gamma1 about v0, v1 and the reflections (r_a, r_b, r_c)
    in the mirrors v1-w, v0-v1 and v0-w, with gamma0 = r_c r_b and gamma1 = r_b r_a."""

    gamma0: tuple
    gamma1: tuple
    reflections: tuple

    @property
    def gens(self):
        """Fuchsian generators keyed like the monodromy: rho(0)=gamma0, rho(1)=gamma1,
        rho(inf) = (gamma0 gamma1), matching h0 h1 = hinf."""
        return {"0": self.gamma0, "1": self.gamma1, "inf": mat_mul(self.gamma0, self.gamma1)}


def _solve_ideal_ideal_vertex(ainf):
    """Right vertex of the triangle (0, infty, w) with angle ainf at w, |w| = 1."""
    if ainf == 0.0:
        return 1.0  # ideal triangle (0, 1, infty)
    # w = e^{i psi}: the side from w to 0 lies on the circle centred at
    # 1/(2 cos psi), whose radius at w is (cos 2psi, sin 2psi) / (2 cos psi);
    # the angle at w, from the vertical side, is that radius's angle 2 psi
    psi = ainf / 2.0
    return complex(math.cos(psi), math.sin(psi))


def _acosh_law(cos_a, cos_b, cos_c, sin_b, sin_c):
    """Side length opposite angle A: cosh = (cos A + cos B cos C)/(sin B sin C)."""
    return math.acosh((cos_a + cos_b * cos_c) / (sin_b * sin_c))


def _far_vertex(v, direction, a_opp, a_v, ainf):
    """The right vertex, seen from the interior vertex v (angle a_v) along ``direction``.

    It lies at the side length opposite a_opp, or at the ray's ideal end when
    its own angle ainf is 0.
    """
    g = mat_mul(_translate_to(v), _rot((direction - math.pi / 2) / 2.0))
    if ainf == 0.0:
        return mobius(g, INF)
    dist = _acosh_law(math.cos(a_opp), math.cos(a_v), math.cos(ainf), math.sin(a_v), math.sin(ainf))
    return mobius(g, complex(0.0, math.exp(dist)))


def _side_pairing(candidates, src, dst):
    """The first candidate that maps src to dst, to 1e-8 relative."""
    src, dst = complex(src), complex(dst)
    for m in candidates:
        if abs(mobius(m, src) - dst) < 1e-8 * max(1.0, abs(dst)):
            return m
    raise RuntimeError(f"no side pairing maps {src} to {dst}")


@lru_cache(maxsize=None)
def build_domain(sig: OrbifoldSignature) -> TriangleDomain:
    e0, e1, einf = sig.e0, sig.e1, sig.einf
    a0, a1, ainf = (0.0 if e == INF else math.pi / e for e in (e0, e1, einf))

    # vertices v0 (bottom) and v1 (top) on the imaginary axis, w to the right;
    # a cusp sits at 0 or inf
    if e0 != INF and e1 != INF:
        l01 = _acosh_law(math.cos(ainf), math.cos(a0), math.cos(a1), math.sin(a0), math.sin(a1))
        v0 = complex(0.0, math.exp(-l01 / 2.0))
        v1 = complex(0.0, math.exp(l01 / 2.0))
    else:
        v0 = 0.0 if e0 == INF else complex(0.0, 1.0 / math.e)
        v1 = INF if e1 == INF else complex(0.0, math.e)
    if e0 != INF:
        w = _far_vertex(v0, math.pi / 2 - a0, a1, a0, ainf)
    elif e1 != INF:
        w = _far_vertex(v1, -math.pi / 2 + a1, a0, a1, ainf)
    else:
        w = _solve_ideal_ideal_vertex(ainf)
    w_m = -w.conjugate()  # mirror image in the imaginary axis

    # side pairings: gamma0 maps (v0, w_m) to (v0, w); gamma1 maps (v1, w) to (v1, w_m)
    if e0 == INF:
        # the far end of the geodesic from the cusp 0 through w
        x_a = abs(w) ** 2 / w.real if isinstance(w, complex) else w
        parabolic = mat_normalize((1.0, 0.0, 2.0 / x_a, 1.0))
        gamma0 = _side_pairing([parabolic, mat_inv(parabolic)], w_m, w)
    else:
        gamma0 = _side_pairing([rotation_about(v0, s * 2.0 * a0) for s in (1.0, -1.0)], w_m, w)
    if e1 == INF:
        gamma1 = _side_pairing([(1.0, -2.0 * w.real, 0.0, 1.0)], w, w_m)
    else:
        gamma1 = _side_pairing([rotation_about(v1, s * 2.0 * a1) for s in (1.0, -1.0)], w, w_m)

    # v0 and v1 lie on the imaginary axis, the mirror of r_b: z -> -conj(z); r_b only
    # flips signs, so r_c r_b == gamma0 and r_b r_a == gamma1 exactly
    r_b = (1.0, 0.0, 0.0, -1.0)
    reflections = (mat_mul(r_b, gamma1), r_b, mat_mul(gamma0, r_b))
    return TriangleDomain(gamma0=gamma0, gamma1=gamma1, reflections=reflections)


# --- geodesic sampling ----------------------------------------------------------


@dataclass
class GeodesicTrajectory:
    """The code of each mirror crossing, in order (see the module docstring), and
    its arc length from the start: ``times[i]`` is when ``events[i]`` happens."""

    events: bytes
    times: array  # array('d'), one float64 per crossing
    # where the sample stopped: the point, tangent, code and arc length of its last
    # crossing (of its start if it has none), from which ``start=`` resumes it
    state: tuple
    next_time: float  # the arc length of the next crossing, at or past ``total_time``


def _mirror(r):
    """The unit normal (a, (b + c)/2, (b - c)/2) of the mirror of r = (a, b, c, -a), det -1.

    It lives in the hyperboloid model, with the form <x, y> = x0 y0 + x1 y1 - x2 y2,
    where the point i is (0, 0, 1).
    """
    a, b, c, _ = r
    return a, (b + c) / 2.0, (b - c) / 2.0


def geodesic_sample(
    sig: OrbifoldSignature,
    seed: np.random.SeedSequence,
    total_time: float,
    start: GeodesicTrajectory | None = None,
) -> GeodesicTrajectory:
    """Unit-speed geodesic from i with a seeded random direction into the triangle.

    A state is a point x and a unit tangent v of the hyperboloid model.  The
    geodesic meets the mirror with normal n at arc length atanh(-<x,n>/<v,n>)
    when that ratio lies in (0, 1).  At the first crossing before
    ``total_time``, v is reflected in that mirror, x and v are renormalized,
    and the mirror's code and arc length are recorded; the mirror just crossed
    is not tested again: the other two are tested in code order, unrolled,
    from one flat tuple of their codes and normals, and the later one wins
    only at a strictly smaller arc length, so the lower code wins a tie; the
    winner's normal stays in locals for the reflection.  Deterministic per
    seed: ``seed`` goes to ``np.random.default_rng``, and ``lyapunov_mc``
    passes ``SeedSequence(seed)``.

    With ``start``, the geodesic of that sample resumes from its last crossing
    and ``seed`` is not used: samples chained to total times t1 < t2 < ...
    have, concatenated, the codes and times of one sample to the last total
    time, bit for bit.
    """
    if not 0 <= total_time < INF:
        raise ValueError("total_time must be finite and >= 0")
    mirrors = [_mirror(r) for r in build_domain(sig).reflections]
    # others[last]: the codes and normals (c_a, a0, a1, a2, c_b, b0, b1, b2) of the two
    # mirrors that may be crossed next, c_a < c_b, so the lower code wins a tie
    others = [tuple(x for code, n in enumerate(mirrors) if code != last for x in (code, *n))
              for last in range(3)]
    # the loop's names, bound once as locals
    atanh, cosh, sinh, sqrt = math.atanh, math.cosh, math.sinh, math.sqrt
    if start is None:
        phi = float(np.random.default_rng(seed).uniform(0.0, math.pi))
        # i lies on the mirror of r_b; the tangent points into Re z > 0
        x0, x1, x2 = 0.0, 0.0, 1.0
        v0, v1, v2 = -math.sin(phi), math.cos(phi), 0.0
        last = 1
        t_now = 0.0
    else:
        x0, x1, x2, v0, v1, v2, last, t_now = start.state
    codes, times = bytearray(), array("d")
    add_code, add_time = codes.append, times.append
    while True:
        c_a, a0, a1, a2, c_b, b0, b1, b2 = others[last]
        best_t = INF
        if (vn := v0 * a0 + v1 * a1 - v2 * a2) != 0.0:
            ratio = -(x0 * a0 + x1 * a1 - x2 * a2) / vn
            if 0.0 < ratio < 1.0:  # atanh is finite here, so below best_t = INF
                best_t, best = atanh(ratio), c_a
                n0, n1, n2 = a0, a1, a2
        if (vn := v0 * b0 + v1 * b1 - v2 * b2) != 0.0:
            ratio = -(x0 * b0 + x1 * b1 - x2 * b2) / vn
            if 0.0 < ratio < 1.0 and (t := atanh(ratio)) < best_t:
                best_t, best = t, c_b
                n0, n1, n2 = b0, b1, b2
        if best_t == INF:
            raise RuntimeError("geodesic found no exit mirror (corner hit?)")
        if (t_next := t_now + best_t) >= total_time:
            break
        last, t_now = best, t_next
        # assignments of at most three names build no tuple
        ch, sh = cosh(best_t), sinh(best_t)
        y0, y1, y2 = ch * x0 + sh * v0, ch * x1 + sh * v1, ch * x2 + sh * v2
        v0, v1, v2 = sh * x0 + ch * v0, sh * x1 + ch * v1, sh * x2 + ch * v2
        s = 2.0 * (v0 * n0 + v1 * n1 - v2 * n2)
        v0, v1, v2 = v0 - s * n0, v1 - s * n1, v2 - s * n2
        # back onto <x, x> = -1, <x, v> = 0, <v, v> = 1
        k = 1.0 / sqrt(y2 * y2 - y0 * y0 - y1 * y1)
        x0, x1, x2 = k * y0, k * y1, k * y2
        s = x0 * v0 + x1 * v1 - x2 * v2
        v0, v1, v2 = v0 + s * x0, v1 + s * x1, v2 + s * x2
        k = 1.0 / sqrt(v0 * v0 + v1 * v1 - v2 * v2)
        v0, v1, v2 = k * v0, k * v1, k * v2
        add_code(last)
        add_time(t_now)
    return GeodesicTrajectory(events=bytes(codes), times=times,
                              state=(x0, x1, x2, v0, v1, v2, last, t_now), next_time=t_next)
