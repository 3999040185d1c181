import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermono import params as par
from hypermono.params import (
    HypergeomParams,
    classify_local_degeneration,
    enumerate_good_families,
    hodge_numbers,
    satisfies_assumption_a,
    satisfies_assumption_b,
)


def F(a, b):
    return Fraction(a, b)


class TestHypergeomParams:
    def test_sorted_and_selfdual(self):
        p = HypergeomParams(("4/5", "1/5", "3/5", "2/5"), ("0", "0", "0", "0"))
        assert [str(x) for x in p.alpha] == ["1/5", "2/5", "3/5", "4/5"]
        assert p.self_dual

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            HypergeomParams(("1/5", "2/5", "3/5", "4/5"), ("1/5", "0", "0", "0"))

    def test_not_self_dual_flag(self):
        p = HypergeomParams(("1/5", "1/3", "2/5", "3/5"), ("0", "0", "0", "0"))
        assert not p.self_dual

    def test_irrational_accepted(self):
        mu = 0.123456789101112
        p = HypergeomParams((mu, "1/2", "1/2", 1 - mu), ("0", "0", "0", "0"))
        assert p.self_dual
        assert [isinstance(x, Fraction) for x in p.alpha] == [False, True, True, False]


@pytest.mark.parametrize("x,exact", [
    (1 - 0.7, Fraction(3, 10)), (0.25, Fraction(1, 4)), (1234.567, Fraction(1234567, 1000)),
    (math.pi, None), (math.sqrt(2), None),
])
def test_as_exact_snaps_rounding_only(x, exact):
    # every real lies within about 1e-12 of a fraction with denominator <= 10**6
    assert par.as_exact(x) == exact


class TestHodgeNumbers:
    def test_mirror_quintic(self):
        # rho = -1, -2, -3, -4 by the counting recipe
        assert hodge_numbers(par.MIRROR_QUINTIC) == (1, 1, 1, 1)

    def test_interlaced(self):
        p = HypergeomParams(("1/8", "3/8", "5/8", "7/8"), ("0", "1/4", "1/2", "3/4"))
        assert hodge_numbers(p) == (4,)

    def test_rank_one(self):
        p = HypergeomParams(("1/2",), ("0",))
        assert hodge_numbers(p) == (1,)

    def test_two_two(self):
        p = HypergeomParams(("1/5", "2/5", "3/5", "4/5"), ("1/10", "1/2", "1/2", "9/10"))
        assert hodge_numbers(p) == (2, 2)

    def test_swap_invariance(self):
        p = par.MIRROR_QUINTIC
        assert hodge_numbers(p) == hodge_numbers(HypergeomParams(p.beta, p.alpha))


class TestClassifyLocal:
    @pytest.mark.parametrize(
        "exps,tag,ok",
        [
            (("0", "0", "0", "0"), par.MUM, True),
            (("1/2", "1/2", "1/2", "1/2"), par.MUM, True),
            (("0", "0", "1/2", "1/2"), par.RANK1_LAGRANGIAN, False),
            (("0", "0", "1/3", "2/3"), par.RANK1_LINE, True),
            (("1/4", "1/2", "1/2", "3/4"), par.RANK1_LINE, True),
            (("1/3", "1/3", "2/3", "2/3"), par.RANK1_LAGRANGIAN, False),
            (("1/5", "2/5", "3/5", "4/5"), par.ELLIPTIC_GOOD, True),
            (("1/7", "2/5", "3/5", "6/7"), par.ELLIPTIC_BAD, False),
            (("0", "1/2", "1/2", "1/2"), par.UNCLASSIFIED, False),
        ],
    )
    def test_case_table(self, exps, tag, ok):
        cls = classify_local_degeneration(exps)
        assert cls.tag == tag
        assert cls.assumption_a_ok is ok

    def test_elliptic_parameters(self):
        cls = classify_local_degeneration(("1/5", "2/5", "3/5", "4/5"))
        assert (cls.N, cls.k) == (5, 1)

    def test_irrational_elliptic_is_bad(self):
        mu1, mu2 = 0.1234567891234, 0.2345678912345
        cls = classify_local_degeneration((mu1, mu2, 1 - mu2, 1 - mu1))
        assert cls.tag == par.ELLIPTIC_BAD

    def test_non_self_dual_rejected(self):
        with pytest.raises(ValueError):
            classify_local_degeneration(("0", "1/5", "1/3", "4/5"))

    def test_dual_invariance(self):
        # replacing x by (1-x) mod 1 leaves every class unchanged
        for exps in (("0", "0", "1/3", "2/3"), ("1/5", "2/5", "3/5", "4/5")):
            a = classify_local_degeneration(exps)
            dual = [par.dual(par.parse_exponent(x)) for x in exps]
            b = classify_local_degeneration(dual)
            assert a == b


class TestAssumptionA:
    def test_mirror_quintic(self):
        ok, cert = satisfies_assumption_a(par.MIRROR_QUINTIC)
        assert ok and cert.failed_clause is None

    @pytest.mark.parametrize("mu", ["1/4", "1/2"])
    def test_table1_row(self, mu):
        p = HypergeomParams((mu, "1/2", "1/2", str(1 - Fraction(mu))), ("0",) * 4)
        assert satisfies_assumption_a(p)[0]

    def test_table2_condition_violated(self):
        p = HypergeomParams(
            ("1/5", "2/5", "3/5", "4/5"), ("1/10", "1/2", "1/2", "9/10")
        )
        ok, cert = satisfies_assumption_a(p)
        assert not ok
        assert cert.failed_clause == "hodge_numbers"
        assert cert.hodge == (2, 2)

    def test_swap_symmetry(self):
        p = par.MIRROR_QUINTIC
        assert satisfies_assumption_a(p)[0] == satisfies_assumption_a(HypergeomParams(p.beta, p.alpha))[0]

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            satisfies_assumption_a(HypergeomParams(("1/2",), ("0",)))


class TestAssumptionB:
    def test_true_case(self):
        p = HypergeomParams(
            ("9/20", "1/2", "1/2", "1/2", "11/20"), ("0", "0", "0", "1/3", "2/3")
        )
        assert satisfies_assumption_b(p)

    def test_alpha_min_violated(self):
        p = HypergeomParams(
            ("3/10", "1/2", "1/2", "1/2", "7/10"), ("0", "0", "0", "1/3", "2/3")
        )
        assert not satisfies_assumption_b(p)

    def test_invalid_integers_raise(self):
        with pytest.raises(ValueError, match="k_N"):
            par.maximal_alpha(N=5, k_N=5)
        with pytest.raises(ValueError, match="k_M"):
            par.maximal_beta(M=7, k_M=3)

    def test_pattern_inference_raises_on_bad_kn(self):
        # shape matches the (N, k_N) pattern with N = 7 but k_N = 1
        p = HypergeomParams(
            ("3/7", "3/7", "1/2", "4/7", "4/7"), ("0", "0", "0", "1/3", "2/3")
        )
        with pytest.raises(ValueError, match="k_N"):
            satisfies_assumption_b(p)


class TestEnumeration:
    def test_n5_k1_contains_expected(self):
        fams = enumerate_good_families(5, 1, mu_grid=())
        keys = {(tuple(map(str, f.alpha)), tuple(map(str, f.beta))) for f in fams}
        a5 = ("1/5", "2/5", "3/5", "4/5")
        assert (a5, ("0", "0", "0", "0")) in keys
        assert (a5, ("1/2", "1/2", "1/2", "1/2")) in keys

    def test_small_bound_excludes_elliptic(self):
        assert enumerate_good_families(3, 1, mu_grid=()) == []

    def test_grid_table1(self):
        fams = enumerate_good_families(5, 1, mu_grid=(F(1, 4),))
        hit = [
            f
            for f in fams
            if tuple(map(str, f.alpha)) == ("1/4", "1/2", "1/2", "3/4")
            and all(x == 0 for x in f.beta)
        ]
        assert hit

    def test_all_returned_satisfy_a(self):
        fams = enumerate_good_families(6, 2, mu_grid=(F(1, 4), F(1, 3), F(9, 20)))
        assert fams
        for f in fams:
            ok, cert = satisfies_assumption_a(f)
            assert ok, f
            assert cert.hodge == (1, 1, 1, 1)

    def test_rank5_families(self):
        fams = enumerate_good_families(7, 3, mu_grid=(F(9, 20),), rank=5)
        assert fams
        for f in fams:
            assert satisfies_assumption_b(f)
            assert hodge_numbers(f) == (1, 1, 1, 1, 1)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.fractions(min_value=F(1, 100), max_value=F(49, 100), max_denominator=100),
    nu=st.fractions(min_value=F(1, 100), max_value=F(49, 100), max_denominator=100),
)
def test_table1_family_property(mu, nu):
    # any 0 < nu < mu <= 1/2 lands in the good table with Hodge (1,1,1,1)
    if not nu < mu:
        return
    p = HypergeomParams((mu, F(1, 2), F(1, 2), 1 - mu), (0, 0, nu, 1 - nu))
    ok, cert = satisfies_assumption_a(p)
    assert ok
    assert cert.hodge == (1, 1, 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=4, max_value=25))
def test_elliptic_classify_roundtrip(k, N):
    if N <= 2 * k + 1:
        return
    cls = classify_local_degeneration(par.elliptic_alpha(N, k))
    assert cls.tag == par.ELLIPTIC_GOOD
    assert (cls.N, cls.k) == (N, k)
