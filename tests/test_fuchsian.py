import itertools
import math
import time
from array import array
from bisect import bisect_left
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import SIGNATURES
from hypermono import dynamics as dyn
from hypermono import fuchsian as fox
from hypermono import params as par
from hypermono.fuchsian import INF, IDENT, mat_det, mat_mul
from oracles import (crossings, frobenius_distance, geodesic_codes, geodesic_crossings,
                     hyp_distance, veronese)


def _sig(e):
    return fox.OrbifoldSignature(*e)


class TestOrbifoldSignature:
    @pytest.mark.parametrize("e", [(2, 3, 6), (3, 2, 6), (6, 3, 2), (2, 4, 4), (3, 3, 3)])
    def test_euclidean_refused(self, e):
        # decided on exact 1/e sums: the float chi of (2, 3, 6) is -1.1e-16
        with pytest.raises(ValueError, match="not hyperbolic"):
            _sig(e)

    @pytest.mark.parametrize("e, chi", [((2, 3, 6), "0"), ((2, 3, 5), "1/30")])
    def test_refusal_prints_exact_chi(self, e, chi):
        # the float chi of (2, 3, 6), -1.1e-16, would contradict the refusal by its sign
        with pytest.raises(ValueError, match=f"not hyperbolic \\(chi = {chi}\\)$"):
            _sig(e)

    def test_chi_rounded_once_from_exact(self):
        # summing the float 1/e terms gave -0.023809523809523947, 5.8e-15 off -1/42
        assert _sig((2, 3, 7)).chi == float(Fraction(-1, 42))

    def test_unknown_convention_refused_before_exponents(self):
        # repeated exponents used to return (inf, inf, inf) before the convention was read
        p = par.HypergeomParams(["1/2"] * 4, ["0"] * 4)
        with pytest.raises(ValueError, match="convention"):
            fox.orbifold_signature(p, "bogus")

    def test_table_family_signature(self):
        p = par.HypergeomParams("1/8,3/8,5/8,7/8".split(","), "5/13,6/13,7/13,8/13".split(","))
        assert fox.orbifold_signature(p) == _sig((13, INF, 8))


class TestGeodesicSample:
    @pytest.mark.parametrize("e", [(2, 3, INF), (INF, INF, 5)])
    def test_deterministic_per_seed(self, e):
        sig = _sig(e)
        a, b = fox.geodesic_sample(sig, 7, 30.0), fox.geodesic_sample(sig, 7, 30.0)
        assert len(a.events) > 0 and set(a.events) <= {0, 1, 2}
        assert a.events == b.events
        assert fox.geodesic_sample(sig, 8, 30.0).events != a.events

    @pytest.mark.parametrize("e", SIGNATURES)
    def test_mirrors_are_reflections_of_the_rotations(self, e):
        # code i folds the geodesic back by reflections[i], an involution of det -1;
        # r_b only flips signs, so the rotations are the products exactly
        dom = fox.build_domain(_sig(e))
        r_a, r_b, r_c = dom.reflections
        for r in dom.reflections:
            assert abs(mat_det(r) + 1.0) <= 1e-15
            assert np.abs(np.subtract(mat_mul(r, r), IDENT)).max() <= 1e-15
        assert mat_mul(r_c, r_b) == dom.gamma0
        assert mat_mul(r_b, r_a) == dom.gamma1
        # the mirror just crossed is never crossed again at once
        events = fox.geodesic_sample(_sig(e), 3, 200.0).events
        assert set(events) == {0, 1, 2}
        assert all(a != b for a, b in zip(events, events[1:]))

    @pytest.mark.parametrize("e", SIGNATURES)
    def test_codes_match_reference_loop(self, e):
        # the sampler skips the mirror just crossed by a table of the other two
        sig = _sig(e)
        for seed in range(8):
            assert fox.geodesic_sample(sig, seed, 400.0).events == geodesic_codes(sig, seed, 400.0)

    @pytest.mark.parametrize("e", SIGNATURES)
    def test_times_match_reference_loop(self, e):
        # the times set lyapunov_mc's cuts and batch spans, so they must keep their last bits
        sig = _sig(e)
        for seed in range(8):
            geo = fox.geodesic_sample(sig, seed, 400.0)
            codes, times = geodesic_crossings(sig, seed, 400.0)
            assert (geo.events, geo.times.tobytes()) == (codes, times.tobytes())

    def test_times_match_reference_loop_at_benchmark_scale(self):
        # the geodesic of the sym3-lyapunov benchmark job: (2, 3, inf), seed 5, T = 4000
        sig, seed = _sig((2, 3, INF)), np.random.SeedSequence(5)
        geo = fox.geodesic_sample(sig, seed, 8000.0)
        codes, times = geodesic_crossings(sig, seed, 8000.0)
        assert len(geo.events) == 140082
        assert (geo.events, geo.times.tobytes()) == (codes, times.tobytes())

    @pytest.mark.parametrize("e", SIGNATURES)
    def test_times_are_one_increasing_float_per_code(self, e):
        # lyapunov_mc reads each batch's flow time off these
        geo = fox.geodesic_sample(_sig(e), 3, 400.0)
        assert isinstance(geo.times, array) and geo.times.typecode == "d"
        assert len(geo.times) == len(geo.events) > 0
        assert all(s < t for s, t in zip(geo.times, geo.times[1:]))
        assert 0.0 < geo.times[0] and geo.times[-1] < 400.0

    @pytest.mark.parametrize("e", SIGNATURES)
    def test_resumed_legs_are_one_sample(self, e):
        # lyapunov_mc flows its geodesic in legs; empty legs (0.0, and 100.0 twice) too
        sig = _sig(e)
        one = fox.geodesic_sample(sig, 3, 400.0)
        legs, leg = [], None
        for total_time in (0.0, 0.5, 100.0, 100.0, 250.25, 400.0):
            leg = fox.geodesic_sample(sig, 3, total_time, start=leg)
            assert leg.next_time >= total_time
            legs.append(leg)
        assert b"".join(leg.events for leg in legs) == one.events
        assert b"".join(leg.times.tobytes() for leg in legs) == one.times.tobytes()
        assert (leg.state, leg.next_time) == (one.state, one.next_time)

    def test_corner_case_climbs_past_its_cusp_excursion(self):
        # ROADMAP item 20: the quintic's geodesic of seed 0 at its crossing 90,445 (arc
        # 18,122.99), the last before it climbs the cusp of mirrors a and b, as the loop
        # without jumps computed it.  From here that loop made 5.6 million crossings in
        # 8 units of arc and raised "corner hit?" at arc 18,139.94, after about 7 s.  The
        # sampler makes one more crossing, at height 3,154 of the cusp's chart, and jumps
        # the excursion's 10,770,237 crossings above the horocycle, to arc 18,148.27, all
        # kept.
        sig = _sig((INF, INF, 5))
        state = (-2.251480380302016, -0.09817618883425837, 2.465522757335436,
                 2.2514804564627773, 0.488237521901301, -2.0754614242683864, 2,
                 18122.991566264842, None)
        start = fox.GeodesicTrajectory(events=b"", times=array("d"), state=state, next_time=0.0)
        began = time.perf_counter()
        geo = fox.geodesic_sample(sig, None, 18160.0, start=start)
        assert time.perf_counter() - began < 5.0
        assert geo.events[:3] == b"\x01\x00\x01" and len(geo.events) > 10_770_237
        assert geo.times[0] == 18131.939143561725 and 18148.27 < geo.times[-1] < 18160.0
        times = np.frombuffer(geo.times)
        assert (times[1:] > times[:-1]).all()

    @pytest.mark.parametrize("total_time", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_time_refused(self, total_time):
        # with nan or inf, t_now >= total_time never holds and the loop would not end
        with pytest.raises(ValueError, match="total_time must be finite and >= 0"):
            fox.geodesic_sample(_sig((2, 3, INF)), 1, total_time)


class TestDistances:
    @pytest.mark.parametrize("e", SIGNATURES)
    def test_frobenius_distance_is_displacement_of_i(self, e):
        dom = fox.build_domain(_sig(e))
        for g in dom.gens.values():
            want = hyp_distance(1j, fox.mobius(g, 1j))
            assert abs(frobenius_distance(g) - want) <= 1e-12 * max(1.0, want)


def _brentq_vertex(ainf):
    """The right vertex e^{i psi} found by root-finding the angle at it."""

    def angle(psi):
        u = complex(math.cos(psi) - 1.0 / (2.0 * math.cos(psi)), math.sin(psi))
        return abs(math.atan2(u.imag, u.real))

    psi = brentq(lambda s: angle(s) - ainf, 1e-9, math.pi / 2 - 1e-9, xtol=1e-14)
    return complex(math.cos(psi), math.sin(psi))


class TestIdealIdealVertex:
    @pytest.mark.parametrize("e", [4, 5, 6, 8, 10, 12, 20, 100])
    def test_closed_form_equals_root_find(self, e):
        assert fox._solve_ideal_ideal_vertex(math.pi / e) == _brentq_vertex(math.pi / e)

    def test_order_three_within_two_ulp(self):
        got, want = fox._solve_ideal_ideal_vertex(math.pi / 3), _brentq_vertex(math.pi / 3)
        assert abs(got.real - want.real) <= 2 * math.ulp(want.real)
        assert abs(got.imag - want.imag) <= 2 * math.ulp(want.imag)


class TestVeronese:
    def test_sym3_attracting_points_lie_on_veronese(self):
        # Sym^3 g = Sym^3(k1) diag(l^3, l, 1/l, 1/l^3) Sym^3(k2) with Sym^3(k)
        # orthogonal, so its top left-singular direction is veronese(k1 e1).  The ball
        # is on {"0", "1"}: (2, 3, inf) is Z/2 * Z/3 on gamma0 and gamma1.
        sig = _sig((2, 3, INF))
        dom = fox.build_domain(sig)
        fuchs = {"0": dom.gens["0"], "1": dom.gens["1"]}
        gens = {s: dyn.sym_cube(np.array(g).reshape(2, 2)) for s, g in fuchs.items()}
        ball = dyn.enumerate_ball(gens, {"0": sig.e0, "1": sig.e1}, 16, fuchs_gens=fuchs)
        samples = dyn.limit_curve_samples(ball, 1.0, None, lambda block: None)
        attracting = samples.kinds == "attracting"
        assert attracting.sum() > 100
        for point, i in zip(samples.points[attracting], samples.index[attracting]):
            u, _, _ = np.linalg.svd(ball.fuchs[i].reshape(2, 2))
            on_curve = veronese(u[:, 0])
            assert abs(abs(float(on_curve @ point)) - 1.0) < 1e-9



_dot = fox._dot  # the hyperboloid form <x, y> = x0 y0 + x1 y1 - x2 y2


class TestCuspCharts:
    @pytest.mark.parametrize("e", SIGNATURES)
    def test_chart_frame(self, e):
        # p and q null with <p, q> = -1, e a unit vector orthogonal to both; the walls are
        # the lines u = 0 and u = 1, whose normals are the mirrors' up to sign
        sig = _sig(e)
        mirrors = [fox._mirror(r) for r in fox.build_domain(sig).reflections]
        charts = fox.cusp_charts(sig)
        assert len(charts) == sum(x == INF for x in e)
        for walls, chart in charts.items():
            assert chart.walls == walls
            e_, p, q = chart.e, chart.p, chart.q
            got = [_dot(p, p), _dot(q, q), _dot(p, q), _dot(e_, e_), _dot(e_, p), _dot(e_, q)]
            assert np.allclose(got, [0, 0, -1, 1, 0, 0], rtol=0, atol=1e-14)
            assert p[2] > 0 and q[2] > 0
            for code, normal in zip(walls, chart.normals):
                assert abs(abs(_dot(normal, mirrors[code])) - 1.0) < 1e-14
                assert abs(_dot(normal, p)) < 1e-14

    @pytest.mark.parametrize("e, walls, horocycle", [
        # the strip 0 <= Re z <= 1/2 over the unit circle, scaled by 2: floor top 2
        ((2, 3, INF), (0, 2), 3.0),
        # an ideal triangle: the floor is the semicircle from 0 to 1
        ((INF, INF, INF), (0, 1), 1.5),
        ((INF, INF, INF), (0, 2), 1.5),
        ((INF, INF, INF), (1, 2), 1.5),
    ])
    def test_horocycle_one_wall_spacing_over_the_floor(self, e, walls, horocycle):
        assert fox.cusp_charts(_sig(e))[walls].horocycle == pytest.approx(horocycle, abs=1e-14)

    @pytest.mark.parametrize("e", SIGNATURES)
    def test_sample_stays_in_every_strip(self, e):
        # the triangle lies in the strip 0 <= u <= 1 of each of its cusps' charts
        sig = _sig(e)
        leg = None
        for total_time in range(10, 400, 10):
            leg = fox.geodesic_sample(sig, 3, float(total_time), start=leg)
            x = leg.state[:3]
            for chart in fox.cusp_charts(sig).values():
                u = _dot(x, chart.e) / _dot(x, chart.p)
                assert -1e-9 <= u <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def modular_jumps():
    """The jumps of the sym3-lyapunov benchmark's geodesic, (2, 3, inf), seed 5, arc 8000:
    each entry's chart, point, tangent, code and arc length, with its result."""
    sig, calls = _sig((2, 3, INF)), []

    def spy(chart, x, v, last, t_now):
        calls.append(((chart, x, v, last, t_now), excursion(chart, x, v, last, t_now)))
        return calls[-1][1]

    excursion = fox.cusp_excursion
    fox.cusp_excursion = spy
    try:
        geo = fox.geodesic_sample(sig, np.random.SeedSequence(5), 8000.0)
    finally:
        fox.cusp_excursion = excursion
    return sig, geo, calls


class TestCuspJumps:
    @pytest.mark.parametrize("e", [e for e in SIGNATURES if INF in e])
    def test_short_jumps_follow_the_loop(self, e):
        # from a jump's entry, the loop without jumps makes the same crossings, at the same
        # arc lengths and to the same state, up to its own rounding (2.3e-9 at most here),
        # on the jumps of at most 200 crossings of every cusp signature
        sig, calls = _sig(e), []

        def spy(*args):
            calls.append((args, excursion(*args)))
            return calls[-1][1]

        excursion = fox.cusp_excursion
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fox, "cusp_excursion", spy)
            fox.geodesic_sample(sig, 3, 400.0)
        short = [call for call in calls if len(call[1][0]) <= 200]
        assert len(short) >= 3
        for (chart, x, v, last, t_now), (codes, times, after) in short:
            loop = list(itertools.islice(crossings(sig, (*x, *v, last, t_now), jumps=False),
                                         len(codes)))
            assert bytes(code for code, _, _ in loop) == codes
            assert max(abs(t - s) for (_, t, _), s in zip(loop, times)) < 1e-7
            assert np.abs(np.subtract(loop[-1][2], after)).max() < 1e-7

    def test_jumps_alternate_and_increase(self, modular_jumps):
        sig, geo, calls = modular_jumps
        assert len(calls) > 100
        found = 0
        for (chart, x, v, last, t_now), (codes, times, after) in calls:
            other = chart.walls[1] if last == chart.walls[0] else chart.walls[0]
            assert len(codes) == len(times) >= fox.CUSP_JUMP_MIN - 1
            assert codes[0::2] == bytes([other]) * len(codes[0::2])
            assert codes[1::2] == bytes([last]) * len(codes[1::2])
            assert t_now < times[0] and all(s < t for s, t in zip(times, times[1:]))
            assert after[6:] == (codes[-1], times[-1])
            # the jump is in the sample, in place, right after its entry crossing
            i = found = bisect_left(geo.times, times[0], found)
            assert geo.times[i - 1] == t_now and geo.events[i - 1] == last
            assert geo.events[i:i + len(codes)] == codes
            assert geo.times[i:i + len(times)] == times

    def test_hand_back_state_is_on_its_wall_and_descending(self, modular_jumps):
        # the loop goes on from the last crossing above the horocycle: a point of the
        # hyperboloid on the wall of its code, with a unit tangent, descending
        sig, geo, calls = modular_jumps
        mirrors = [fox._mirror(r) for r in fox.build_domain(sig).reflections]
        for (chart, *_), (codes, times, after) in calls:
            x, v, code = after[:3], after[3:6], after[6]
            assert abs(_dot(x, x) + 1.0) < 1e-12 and abs(_dot(v, v) - 1.0) < 1e-12
            assert abs(_dot(x, v)) < 1e-12 and abs(_dot(x, mirrors[code])) < 1e-12
            assert 1.0 / -_dot(x, chart.p) > chart.horocycle and _dot(v, chart.p) < 0

    def test_jumped_times_match_50_digits(self, modular_jumps):
        # backward stability: on the same float endpoints, 1/2 log((j - jm)/(jp - j)) +
        # lift in floats is within 1e-13 of its 50-digit value on the 20 longest jumps
        # (1.2e-15 here); atanh((j - c)/r) from a centre and radius reads 1.5e-12
        sig, geo, calls = modular_jumps
        longest = sorted(calls, key=lambda call: -len(call[1][0]))[:20]
        assert len(longest[-1][1][0]) > 500
        with mp.workdps(50):
            for (chart, x, v, last, t_now), _ in longest:
                k0, jm, jp, lift = fox.cusp_semicircle(chart, x, v, last)
                codes, offsets, _ = fox.cusp_excursion(chart, x, v, last, 0.0)
                n = len(offsets)
                for j in sorted({*range(1, 301), *range(n - 299, n + 1), *range(1, n, 97)}):
                    want = mp.log((j - mp.mpf(jm)) / (mp.mpf(jp) - j)) / 2 + mp.mpf(lift)
                    assert abs(offsets[j - 1] - want) < 1e-13, (j, n)

    def test_leg_ends_inside_the_longest_jump_resume_it(self, modular_jumps):
        # two legs end inside the longest jump, and one empty leg between them: the rest of
        # the excursion rides in the state, and the legs concatenate to the one sample
        sig, geo, calls = modular_jumps
        (_, (codes, times, after)) = max(calls, key=lambda call: len(call[1][0]))
        n = len(times)
        cuts = [times[n // 3], times[n // 3], times[2 * n // 3] + 1e-9, 8000.0]
        legs, leg = [], None
        for total_time in cuts:
            leg = fox.geodesic_sample(sig, np.random.SeedSequence(5), total_time, start=leg)
            legs.append(leg)
        for leg, total_time in zip(legs[:3], cuts):
            rest_codes, rest_times = leg.state[8]
            assert leg.state[:8] == after and rest_times[-1] == times[-1]
            assert leg.next_time == rest_times[0] >= total_time
            assert rest_codes == codes[n - len(rest_codes):]
        assert legs[1].events == b""
        assert b"".join(leg.events for leg in legs) == geo.events
        assert b"".join(leg.times.tobytes() for leg in legs) == geo.times.tobytes()
        assert (legs[-1].state, legs[-1].next_time) == (geo.state, geo.next_time)
