"""Triangle-group uniformization and geodesic sampling on the base orbifold.

The base orbifold of a rank-n hypergeometric local system is the sphere with
three cone/cusp points of orders (e0, e1, einf).  The orientation-preserving
triangle group is realized in PSL(2, R), acting on the upper half-plane, with
a quadrilateral fundamental domain (a triangle and its mirror image) whose
four sides are paired by the rotations/parabolics gamma0, gamma1 around the
vertices over 0 and 1.  Geodesics are flowed analytically and reduced to the
domain at every side crossing.

A crossing is recorded as one step code c = 2k + (sgn < 0): the geodesic
leaves through the side whose deck letter is gamma_k^sgn, with k = c // 2 and
sgn = +1 exactly when c is even.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List

import numpy as np

from .params import HypergeomParams, as_exact

INF = math.inf
BASEPOINT = 1j  # every geodesic starts here, inside the fundamental domain

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
    """Cone order of a companion-form local monodromy with the given rational exponents."""
    fracs = [f % 1 for f in fracs]
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
    exact = []
    for x in p.beta + p.alpha:
        f = as_exact(x)
        if f is None:
            raise ValueError(f"irrational exponent {x}: no finite-cover orbifold model")
        exact.append(f)
    e0 = _local_order(exact[: p.rank], convention)
    einf = _local_order(exact[p.rank :], convention)
    # at 1, the monodromy is a pseudo-reflection with special eigenvalue
    # exp(2 pi i gamma), gamma = (n-1) - sum(alpha) - sum(beta)
    gamma = (p.rank - 1 - sum(exact)) % 1
    e1 = INF if gamma == 0 else float(gamma.denominator)
    return OrbifoldSignature(e0=e0, e1=e1, einf=einf)


# --- triangle domain ----------------------------------------------------------


@dataclass
class Side:
    """A side of the fundamental domain, crossed outwards.

    ``code`` = 2k + (sgn < 0) names the side's deck letter gamma_k^sgn;
    ``pull`` is that letter's inverse, which maps the state back inside.
    """

    mop: tuple  # maps the side geodesic to the imaginary axis
    s_lo: float
    s_hi: float
    pull: tuple
    code: int


@dataclass
class TriangleDomain:
    gamma0: tuple
    gamma1: tuple
    sides: List[Side]

    @property
    def gens(self):
        """Fuchsian generators keyed like the monodromy: rho(0)=gamma0, rho(1)=gamma1,
        rho(inf) = (gamma0 gamma1), matching h0 h1 = hinf."""
        return {"0": self.gamma0, "1": self.gamma1, "inf": mat_mul(self.gamma0, self.gamma1)}


def _is_ideal(v):
    return not isinstance(v, complex)


def _geodesic_ideal_endpoints(u, v):
    """Ideal endpoints (p, q) of the geodesic through u, v (interior or ideal)."""
    if _is_ideal(u) and _is_ideal(v):
        return u, v
    if _is_ideal(u) or _is_ideal(v):
        x, z = (u, v) if _is_ideal(u) else (v, u)
        if x == INF:
            return z.real, INF
        c = (abs(z) ** 2 - x * x) / (2.0 * (z.real - x))
        return x, 2.0 * c - x
    if abs(u.real - v.real) < 1e-14:
        return u.real, INF
    c = (abs(u) ** 2 - abs(v) ** 2) / (2.0 * (u.real - v.real))
    r = abs(u - c)
    return c - r, c + r


def _mob_to_axis(p, q):
    """SL(2,R) element sending the geodesic (p, q) to the imaginary axis, p->0, q->inf."""
    if q == INF:
        return (1.0, -p, 0.0, 1.0)
    if p == INF:
        return (0.0, -1.0, 1.0, -q)
    m = (1.0, -p, 1.0, -q)
    if mat_det(m) < 0:
        m = (1.0, -p, -1.0, q)
    return mat_normalize(m)


def _axis_side_value(mop, z):
    """Signed side value Re(mop(z)) of a point against an axis-mapped geodesic."""
    val = mobius(mop, complex(z))
    return val.real if val != INF else 0.0


def _endpoint_position(mop, endpoint, p, q):
    """log|mop(endpoint)|, the position of a side's endpoint along the axis."""
    if endpoint == p:
        return -INF
    if endpoint == q:
        return INF
    val = mobius(mop, complex(endpoint))
    if val == INF:
        return INF
    return math.log(abs(val)) if val != 0 else -INF


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
        _, x_a = _geodesic_ideal_endpoints(v0, w)
        parabolic = mat_normalize((1.0, 0.0, 2.0 / x_a, 1.0))
        gamma0 = _side_pairing([parabolic, mat_inv(parabolic)], w_m, w)
    else:
        gamma0 = _side_pairing([rotation_about(v0, s * 2.0 * a0) for s in (1.0, -1.0)], w_m, w)
    if e1 == INF:
        gamma1 = _side_pairing([(1.0, -2.0 * w.real, 0.0, 1.0)], w, w_m)
    else:
        gamma1 = _side_pairing([rotation_about(v1, s * 2.0 * a1) for s in (1.0, -1.0)], w, w_m)

    # (u, v, pull, code): the side from u to v, left through the letter that code names
    specs = [
        (v0, w, mat_inv(gamma0), 0),
        (v0, w_m, gamma0, 1),
        (v1, w, gamma1, 3),
        (v1, w_m, mat_inv(gamma1), 2),
    ]
    sides = []
    for u, v, pull, code in specs:
        p, q = _geodesic_ideal_endpoints(u, v)
        mop = _mob_to_axis(p, q)
        s_u = _endpoint_position(mop, u, p, q)
        s_v = _endpoint_position(mop, v, p, q)
        lo, hi = min(s_u, s_v), max(s_u, s_v)
        # orient mop so that the basepoint is on the positive side
        if _axis_side_value(mop, BASEPOINT) < 0:
            mop = mat_mul((-1.0, 0.0, 0.0, 1.0), mop)
        sides.append(Side(mop, lo, hi, pull, code))

    if any(_axis_side_value(side.mop, BASEPOINT) < 1e-9 for side in sides):
        raise RuntimeError("basepoint fell outside the fundamental domain")
    return TriangleDomain(gamma0=gamma0, gamma1=gamma1, sides=sides)


# --- geodesic sampling ----------------------------------------------------------


@dataclass
class GeodesicTrajectory:
    """The step code of each side crossing, in order (see the module docstring)."""

    events: bytes


_BACK_TOL = 1e-9


def _crossing_time(mop, state):
    """Next outward crossing of the axis-mapped geodesic along state . (e^t i).

    The side value Re(mop . state (e^t i)) is proportional to ac e^{2t} + bd;
    with the basepoint on the positive side, an outward crossing requires
    ac < 0.  Crossings a roundoff behind the present time (down to -1e-9,
    e.g. re-entry exactly on a paired side) are clipped to t = 0; inward
    re-detections have ac > 0 and are rejected by the sign test alone.
    """
    a, b, c, d = mat_mul(mop, state)
    ac = a * c
    bd = b * d
    if ac >= 0.0:
        return None, None
    ratio = -bd / ac
    if ratio <= 0.0:
        return None, None
    t = 0.5 * math.log(ratio)
    if t < -_BACK_TOL:
        return None, None
    t = max(t, 0.0)
    y = math.exp(t)
    num = math.hypot(a * y, b)
    den = math.hypot(c * y, d)
    if den == 0.0 or num == 0.0:
        return None, None
    return t, math.log(num / den)


def _flow(state, t):
    a, b, c, d = state
    e = math.exp(t / 2.0)
    return (a * e, b / e, c * e, d / e)


def geodesic_sample(
    sig: OrbifoldSignature, seed: np.random.SeedSequence, total_time: float
) -> GeodesicTrajectory:
    """Unit-speed geodesic from the basepoint with a seeded random direction.

    The geodesic is flowed in closed form; each exit through a side of the
    fundamental domain before ``total_time`` records that side's step code
    and maps the state back inside.  Deterministic per seed: ``seed`` goes to
    ``np.random.default_rng``, and ``lyapunov_mc`` passes one spawned
    ``SeedSequence`` per trajectory.
    """
    if total_time < 0:
        raise ValueError("total_time must be >= 0")
    dom = build_domain(sig)
    rng = np.random.default_rng(seed)
    phi = float(rng.uniform(0.0, math.pi))
    state = _rot(phi)
    t_now = 0.0
    codes = bytearray()
    sides = dom.sides
    seg_tol = 1e-9
    while t_now < total_time:
        best_t = None
        best_side = None
        for side in sides:
            t, s = _crossing_time(side.mop, state)
            if t is None:
                continue
            if s < side.s_lo - seg_tol or s > side.s_hi + seg_tol:
                continue
            if best_t is None or t < best_t:
                best_t = t
                best_side = side
        if best_t is None:
            raise RuntimeError("geodesic found no exit side (corner hit?)")
        if t_now + best_t >= total_time:
            break
        state = _flow(state, best_t)
        t_now += best_t
        state = mat_normalize(mat_mul(best_side.pull, state))
        codes.append(best_side.code)
    return GeodesicTrajectory(events=bytes(codes))
