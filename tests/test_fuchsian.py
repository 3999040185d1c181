import math
from array import array
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import SIGNATURES
from hypermono import dynamics as dyn
from hypermono import fuchsian as fox
from hypermono import params as par
from hypermono.fuchsian import INF, IDENT, mat_det, mat_mul
from oracles import (frobenius_distance, geodesic_codes, geodesic_crossings, hyp_distance,
                     veronese)


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
        assert len(geo.events) == 80029
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
