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
0, 1 or 2 for r_a, r_b or r_c.  High in a cusp, where the two mirrors that
meet there are crossed in turn, the geodesic is unfolded in the cusp's upper
half-plane chart, a semicircle over the lattice of the mirrors' images, and
its crossings there come in closed form.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
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

# a cusp excursion is jumped only when it holds at least this many crossings above its
# horocycle, so that each jump replaces many passes of the sampler's loop
CUSP_JUMP_MIN = 16


@dataclass
class GeodesicTrajectory:
    """The code of each mirror crossing, in order (see the module docstring), and
    its arc length from the start: ``times[i]`` is when ``events[i]`` happens."""

    events: bytes
    times: array  # array('d'), one float64 per crossing
    # where the sample stopped: the point, tangent, code and arc length of its last
    # crossing (of its start if it has none), from which ``start=`` resumes it, and
    # None or the codes and times still to come of a cusp excursion that the sample
    # stopped inside, whose last crossing the point and tangent are
    state: tuple
    next_time: float  # the arc length of the next crossing, at or past ``total_time``


def _mirror(r):
    """The unit normal (a, (b + c)/2, (b - c)/2) of the mirror of r = (a, b, c, -a), det -1.

    It lives in the hyperboloid model, with the form <x, y> = x0 y0 + x1 y1 - x2 y2,
    where the point i is (0, 0, 1).
    """
    a, b, c, _ = r
    return a, (b + c) / 2.0, (b - c) / 2.0


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] - x[2] * y[2]


def _comb(*terms):
    """The vector sum of c * x over the (c, x) pairs in ``terms``."""
    return tuple(sum(c * x[i] for c, x in terms) for i in range(3))


@dataclass(frozen=True)
class CuspChart:
    """The upper half-plane chart of one cusp of the triangle, in the hyperboloid model.

    A point x has u = <x, e>/<x, p> and height 1/(-<x, p>): the cusp is at infinity,
    the mirror with code ``walls[0]`` is the line u = 0 and that with ``walls[1]`` the
    line u = 1, so the unit is half the cusp's width W, and the triangle near the cusp
    is the strip between them.  p is null and future-pointing, <e, e> = 1, q is the
    null vector of the boundary point u = 0, <p, q> = -1 and <e, p> = <e, q> = 0.
    ``normals[k]`` = e - k p is the normal of the line u = k.  The third mirror, the
    floor, is an arc over the strip; above its top, only the images of the two walls,
    the lines u = k, are met.  ``horocycle`` is one wall spacing above the floor's top:
    above it, a geodesic is unfolded in closed form.
    """

    walls: tuple
    e: tuple
    p: tuple
    q: tuple
    normals: tuple
    horocycle: float


def _cusp_chart(normals, walls):
    """The chart of the cusp where the mirrors with codes ``walls`` meet."""
    (na, nb), (nc,) = ([normals[c] for c in walls],
                       [n for c, n in enumerate(normals) if c not in walls])
    # the common ideal point: the null vector orthogonal to both normals
    p = (na[1] * nb[2] - na[2] * nb[1], na[2] * nb[0] - na[0] * nb[2],
         -(na[0] * nb[1] - na[1] * nb[0]))
    if p[2] < 0:
        p = tuple(-x for x in p)
    # nb = s na + beta p, and the line u = 1 is e - p, so that p is scaled by -s beta
    s = 1.0 if _dot(na, nb) > 0 else -1.0
    beta = (nb[2] - s * na[2]) / p[2]
    e, scale = (na, -s * beta) if s * beta < 0 else (tuple(-x for x in na), s * beta)
    p = tuple(scale * x for x in p)
    # q: the other null line of e's orthogonal plane, through y = (0, 0, 1) + e2 e
    y = _comb((1.0, (0.0, 0.0, 1.0)), (e[2], e))
    yp = _dot(y, p)
    q = _comb((-1.0 / yp, y), (_dot(y, y) / (2.0 * yp * yp), p))
    # the third mirror: (u^2 + v^2) <p, nc>/2 - u <e, nc> + <q, nc> = 0, a circle
    # centred at u_c; its highest point over 0 <= u <= 1
    pc, ec, qc = _dot(p, nc), _dot(e, nc), _dot(q, nc)
    u_c = ec / pc
    floor = math.sqrt(u_c * u_c - 2.0 * qc / pc - (min(max(u_c, 0.0), 1.0) - u_c) ** 2)
    return CuspChart(walls=walls, e=e, p=p, q=q, normals=(e, _comb((1.0, e), (-1.0, p))),
                     horocycle=floor + 1.0)


@lru_cache(maxsize=None)
def cusp_charts(sig: OrbifoldSignature) -> dict:
    """The charts of the triangle's cusps, keyed by their two mirror codes in order:
    (1, 2) at v0, (0, 1) at v1 and (0, 2) at w."""
    normals = [_mirror(r) for r in build_domain(sig).reflections]
    return {walls: _cusp_chart(normals, walls)
            for e, walls in ((sig.e0, (1, 2)), (sig.e1, (0, 1)), (sig.einf, (0, 2))) if e == INF}


def cusp_semicircle(chart: CuspChart, x, v, last):
    """The geodesic from x along v, just folded at the wall ``last`` of ``chart``, as a
    semicircle of the chart: (k0, jm, jp, lift).

    k0 is the wall's line u = k0, the lattice index of both endpoints.  In
    j = d (u - k0), with d the sign of the geodesic's course in u, the walls it
    meets next are the lines j = 1, 2, ..., and it runs from its endpoint
    j = jm (about 0) to its endpoint j = jp (about twice its radius).  Its
    crossing of the line j comes at arc length (1/2) log((j - jm)/(jp - j)) +
    lift from x.  As remainders from k0, j - jm and jp - j are exact or
    correctly rounded for every lattice line j, however deep the excursion:
    jp - j is exact by Sterbenz's lemma where it is small, where a centre and
    radius, (j - c)/r, would round to 1.  With a = -<v, e - u p>, the course,
    and b = <v, p>/(-<x, p>), the climb rate, a^2 + b^2 = 1, and the
    endpoints lie (1 + b)/|a| and (1 - b)/|a| = |a|/(1 + b) times the height
    of x away from it, which for a climb (b > 0) cancels nowhere.
    """
    p = chart.p
    k0 = chart.walls.index(last)
    m = chart.normals[k0]
    pi = -_dot(x, p)  # 1 over the height of x
    vp = _dot(v, p)
    b = vp / pi
    delta = -_dot(x, m) / pi  # u - k0, a rounding error off the wall
    a = -_dot(v, m) + delta * vp
    d = 1.0 if a > 0 else -1.0
    a = abs(a)
    jp = d * delta + (1.0 + b) / (pi * a)
    jm = d * delta - a / (pi * (1.0 + b))
    return k0, jm, jp, math.log((1.0 + b) / a)


def cusp_excursion(chart: CuspChart, x, v, last, t_now):
    """The crossings of a geodesic climbing ``chart``'s cusp from the wall ``last``,
    while it is above the horocycle, in closed form: (codes, times, state).

    The geodesic (see ``cusp_semicircle``) crosses the lines j = 1, ..., J, the
    last above the horocycle, and their codes alternate from the other wall.
    ``times`` is t_now plus their arc lengths from x, from one numpy pass over
    the lattice, and ``state`` is the folded point, tangent, code and arc length
    of the crossing of the line J, from which the sampler's loop goes on.
    """
    k0, jm, jp, lift = cusp_semicircle(chart, x, v, last)
    r, c = (jp - jm) / 2.0, (jp + jm) / 2.0
    h2 = chart.horocycle ** 2
    n = math.ceil(jp - h2 / (r + math.sqrt(r * r - h2))) - 1
    # the arc lengths, written in place into the array that holds them
    times = array("d", [t_now]) * n
    s, j = np.frombuffer(times), np.arange(1.0, n + 1.0)
    np.subtract(j, jm, out=s)
    np.subtract(jp, j, out=j)
    s /= j
    np.log(s, out=s)
    s *= 0.5
    s += lift
    s += t_now
    other = chart.walls[1 - k0]
    codes = bytes((other, last)) * (n // 2) + bytes((other,)) * (n % 2)
    # the crossing of line n, folded onto the wall u = k of the strip 0 <= u <= 1, at
    # height y: the course a turns into the strip, the climb rate b < 0 is kept, and
    # x = -(k/y) e + ((k + y^2)/(2y)) p + q/y with v its derivative along (a, b)
    k = k0 ^ (n % 2)
    y = math.sqrt((n - jm) * (jp - n))
    a, b = (y / r if k == 0 else -y / r), (c - n) / r
    ce, cp, cq = -k / y, (k + y * y) / (2.0 * y), 1.0 / y
    de, dp, dq = b * k / y - a, a * k + b * (y * y - k) / (2.0 * y), -b / y
    (e0, e1, e2), (p0, p1, p2), (q0, q1, q2) = chart.e, chart.p, chart.q
    return codes, times, (ce * e0 + cp * p0 + cq * q0, ce * e1 + cp * p1 + cq * q1,
                          ce * e2 + cp * p2 + cq * q2, de * e0 + dp * p0 + dq * q0,
                          de * e1 + dp * p1 + dq * q1, de * e2 + dp * p2 + dq * q2,
                          chart.walls[k], times[-1])


def _emit(codes, times, pending, total_time):
    """Append the crossings of ``pending`` before ``total_time``; return the rest, or None."""
    p_codes, p_times = pending
    if (i := bisect_left(p_times, total_time)) == len(p_times):
        codes += p_codes
        times.extend(p_times)
        return None
    codes += p_codes[:i]
    times.extend(p_times[:i])
    return p_codes[i:], p_times[i:]


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

    Cusp excursions are unfolded in closed form.  When the next crossing is of
    the other wall of a cusp (see ``cusp_charts``) and, in that cusp's chart, x
    lies above the horocycle, the geodesic climbs, and its semicircle has a
    radius of at least sqrt(horocycle^2 + ``CUSP_JUMP_MIN``^2), the loop
    hands over to ``cusp_excursion``: every crossing above the horocycle is
    recorded, codes and arc lengths as the loop records them, and the loop
    goes on from the last of them.  Above the horocycle only the two walls'
    images are met, a wall spacing apart in the chart, so the loop never
    flows deep in a cusp, where walls a rounding error apart in the
    hyperboloid's coordinates would lose the geodesic.  A loop pass costs
    about 1.2-1.5 us, and a jump about 10 us and 25 ns per crossing.

    With ``start``, the geodesic of that sample resumes from its last crossing
    and ``seed`` is not used: samples chained to total times t1 < t2 < ...
    have, concatenated, the codes and times of one sample to the last total
    time, bit for bit.  A total time that falls inside a jump leaves the rest
    of the excursion in ``state``, and the next sample emits it first.
    """
    if not 0 <= total_time < INF:
        raise ValueError("total_time must be finite and >= 0")
    mirrors = [_mirror(r) for r in build_domain(sig).reflections]
    charts = cusp_charts(sig)
    # the trigger of a jump at the wall ``last`` of a cusp: p and one over the
    # horocycle's height, then the wall's normal m, the least squared radius and the chart
    triggers = {(last, code): (*chart.p, 1.0 / chart.horocycle, (
                    *chart.normals[k], chart.horocycle ** 2 + CUSP_JUMP_MIN ** 2, chart))
                for chart in charts.values()
                for k, (last, code) in enumerate((chart.walls, chart.walls[::-1]))}
    # others[last]: the code, normal and jump trigger (or None) of each of the two
    # mirrors that may be crossed next, c_a < c_b, so the lower code wins a tie
    others = [tuple(x for code, n in enumerate(mirrors) if code != last
                    for x in (code, *n, triggers.get((last, code))))
              for last in range(3)]
    # the loop's names, bound once as locals
    atanh, cosh, sinh, sqrt = math.atanh, math.cosh, math.sinh, math.sqrt
    codes, times = bytearray(), array("d")
    if start is None:
        phi = float(np.random.default_rng(seed).uniform(0.0, math.pi))
        # i lies on the mirror of r_b; the tangent points into Re z > 0
        x0, x1, x2 = 0.0, 0.0, 1.0
        v0, v1, v2 = -math.sin(phi), math.cos(phi), 0.0
        last = 1
        t_now = 0.0
    else:
        x0, x1, x2, v0, v1, v2, last, t_now, pending = start.state
        if pending is not None and (rest := _emit(codes, times, pending, total_time)):
            return GeodesicTrajectory(events=bytes(codes), times=times,
                                      state=(*start.state[:8], rest), next_time=rest[1][0])
    add_code, add_time = codes.append, times.append
    rest = None
    while True:
        c_a, a0, a1, a2, jump_a, c_b, b0, b1, b2, jump_b = others[last]
        best_t = INF
        if (vn := v0 * a0 + v1 * a1 - v2 * a2) != 0.0:
            ratio = -(x0 * a0 + x1 * a1 - x2 * a2) / vn
            if 0.0 < ratio < 1.0:  # atanh is finite here, so below best_t = INF
                best_t, best, jump = atanh(ratio), c_a, jump_a
                n0, n1, n2 = a0, a1, a2
        if (vn := v0 * b0 + v1 * b1 - v2 * b2) != 0.0:
            ratio = -(x0 * b0 + x1 * b1 - x2 * b2) / vn
            if 0.0 < ratio < 1.0 and (t := atanh(ratio)) < best_t:
                best_t, best, jump = t, c_b, jump_b
                n0, n1, n2 = b0, b1, b2
        if best_t == INF:
            raise RuntimeError("geodesic found no exit mirror (corner hit?)")
        if jump is not None:
            p0, p1, p2, pi_top, wall = jump
            # above the horocycle (1/height below its 1/H) and climbing (<v, p> > 0), ...
            if (pi := x2 * p2 - x0 * p0 - x1 * p1) < pi_top and v0 * p0 + v1 * p1 - v2 * p2 > 0.0:
                m0, m1, m2, r2_min, chart = wall
                # ... on a semicircle of squared radius 1/(pi a)^2 at least r2_min
                if (pi * (v0 * m0 + v1 * m1 - v2 * m2)) ** 2 * r2_min <= 1.0:
                    *pending, after = cusp_excursion(chart, (x0, x1, x2), (v0, v1, v2), last,
                                                     t_now)
                    x0, x1, x2, v0, v1, v2, last, t_now = after
                    if rest := _emit(codes, times, pending, total_time):
                        t_next = rest[1][0]
                        break
                    continue
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
                              state=(x0, x1, x2, v0, v1, v2, last, t_now, rest), next_time=t_next)
