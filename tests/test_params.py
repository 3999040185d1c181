import functools
import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIRROR_QUINTIC
from hypermono import params as par
from hypermono._linalg import numerical_rank
from hypermono.monodromy import levelt_matrices
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


# 1/3 + 1e-20 and 2/3 - 1e-20, whose floats are those of 1/3 and 2/3
THIRD_UP, TWO_THIRDS_DOWN = F(1, 3) + F(1, 10**20), F(2, 3) - F(1, 10**20)


class TestExactExponents:
    def test_floats_within_rounding_are_the_fractions(self):
        floats = HypergeomParams((0.2, 0.4, 0.6, 0.8), (0,) * 4)
        assert floats == HypergeomParams(("1/5", "2/5", "3/5", "4/5"), ("0",) * 4)
        assert all(isinstance(x, Fraction) for x in floats.alpha)

    def test_self_duality_below_a_float_ulp(self):
        assert float(THIRD_UP) == 1 / 3 and float(TWO_THIRDS_DOWN) == 2 / 3
        assert par.is_self_dual((THIRD_UP, F(1, 3), F(2, 3), TWO_THIRDS_DOWN))
        assert not par.is_self_dual((THIRD_UP, F(1, 3), F(2, 3), F(2, 3)))

    def test_hodge_numbers_below_a_float_ulp(self):
        # alpha_1 = 1/3 + 1e-20 lies above beta_3 = 1/3, though their floats are equal
        p = HypergeomParams((THIRD_UP, "1/2", "1/2", TWO_THIRDS_DOWN), ("0", "0", "1/3", "2/3"))
        assert hodge_numbers(p) == (1, 1, 1, 1)
        assert satisfies_assumption_a(p)[0]


@pytest.mark.parametrize("x,exact", [
    (1 - 0.7, Fraction(3, 10)), (0.25, Fraction(1, 4)), (1234.567, Fraction(1234567, 1000)),
    (math.pi, None), (math.sqrt(2), None),
    # these raised OverflowError and ValueError from Fraction
    (math.inf, None), (-math.inf, None), (math.nan, None),
])
def test_as_exact_snaps_rounding_only(x, exact):
    # every real lies within about 1e-12 of a fraction with denominator <= 10**6
    assert par.as_exact(x) == exact


class TestHodgeNumbers:
    def test_mirror_quintic(self):
        # rho = -1, -2, -3, -4 by the counting recipe
        assert hodge_numbers(MIRROR_QUINTIC) == (1, 1, 1, 1)

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
        p = MIRROR_QUINTIC
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

    def test_float_exponents_wrap_at_zero(self):
        # (0, 0, 5e-13, 1 - 5e-13) is (0, 0, 0, 0) within EXACT_TOL mod 1
        assert classify_local_degeneration((0, 0, 5e-13, 1 - 5e-13)).tag == par.MUM

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
        ok, cert = satisfies_assumption_a(MIRROR_QUINTIC)
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
        p = MIRROR_QUINTIC
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

    def test_pattern_inference_bad_kn_is_false(self):
        # shapes that match the (N, k_N) pattern with k_N = 1 (N = 7, N = 2): not maximal
        for alpha, beta in [
            (("3/7", "3/7", "1/2", "4/7", "4/7"), ("0", "0", "0", "1/3", "2/3")),
            (("1/4", "1/4", "1/2", "3/4", "3/4"), ("0",) * 5),
        ]:
            assert satisfies_assumption_b(HypergeomParams(alpha, beta)) is False
            assert satisfies_assumption_b(HypergeomParams(beta, alpha)) is False


def _grid(dens):
    return sorted({F(p, q) for q in dens for p in range(q)})


def _key(p):
    return tuple(map(str, p.alpha)), tuple(map(str, p.beta))


@functools.cache
def _table(rank, max_den):
    return enumerate_good_families(rank, _grid(range(1, max_den + 1)))


_DECIDERS = {4: lambda p: satisfies_assumption_a(p)[0], 5: satisfies_assumption_b}


class TestEnumeration:
    def test_n5_k1_contains_expected(self):
        keys = {_key(f) for f in enumerate_good_families(4, (0, F(1, 5), F(2, 5), F(1, 2)))}
        a5 = ("1/5", "2/5", "3/5", "4/5")
        assert (a5, ("0", "0", "0", "0")) in keys
        # oriented alpha > beta lexicographically
        assert (("1/2", "1/2", "1/2", "1/2"), a5) in keys

    def test_small_bound_excludes_elliptic(self):
        # an elliptic (N, k) quadruple has denominator N >= 5 (N odd) or 2N >= 8
        def elliptic(max_den):
            certs = (satisfies_assumption_a(f)[1] for f in _table(4, max_den))
            return [c for c in certs if par.ELLIPTIC_GOOD in (c.class_alpha.tag, c.class_beta.tag)]
        assert _table(4, 4) and not elliptic(4)
        assert elliptic(5)

    def test_grid_table1(self):
        keys = {_key(f) for f in enumerate_good_families(4, (0, F(1, 4), F(1, 2)))}
        assert (("1/4", "1/2", "1/2", "3/4"), ("0",) * 4) in keys

    def test_all_returned_satisfy_a(self):
        fams = _table(4, 8)
        assert fams
        for f in fams:
            ok, cert = satisfies_assumption_a(f)
            assert ok, f
            assert cert.hodge == (1, 1, 1, 1)

    def test_rank5_families(self):
        fams = _table(5, 8)
        assert fams
        for f in fams:
            assert satisfies_assumption_b(f)
            assert hodge_numbers(f) == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("rank", [4, 5])
    def test_table_is_exactly_what_the_decider_accepts(self, rank):
        grid = _grid(range(1, 7))
        multisets = [c for c in combinations_with_replacement(grid, rank) if par.is_self_dual(c)]
        accepted = {
            frozenset(((a, b), (b, a)))
            for a in multisets for b in multisets
            if set(a).isdisjoint(b) and _DECIDERS[rank](HypergeomParams(a, b))
        }
        table = _table(rank, 6)
        assert {frozenset(((f.alpha, f.beta), (f.beta, f.alpha))) for f in table} == accepted
        assert len(table) == len(accepted)
        assert all(f.alpha > f.beta for f in table)

    def test_counts(self):
        assert (len(_table(4, 8)), len(_table(5, 8))) == (86, 86)

    @pytest.mark.parametrize("rank, alpha, beta", [
        # elliptic alpha(5, 1) against (0, 0, mu, 1 - mu) with (2k - 1)/2N <= mu < alpha_1
        (4, ("1/5", "2/5", "3/5", "4/5"), ("0", "0", "1/8", "7/8")),
        # (N, k_N) = (5, 3) against (M, k_M) = (56, 7): small denominators, large M
        (5, ("1/5", "2/5", "1/2", "3/5", "4/5"), ("0", "1/8", "1/7", "6/7", "7/8")),
    ])
    def test_contains_known_members(self, rank, alpha, beta):
        assert (alpha, beta) in {_key(f) for f in _table(rank, 8)}

    @pytest.mark.parametrize("grid", [(0, F(1, 3), F(9, 20), F(1, 2)), (0, F(2, 3), F(11, 20), F(1, 2))])
    def test_grid_is_closed_under_duality(self, grid):
        key = (("9/20", "1/2", "1/2", "1/2", "11/20"), ("0", "0", "0", "1/3", "2/3"))
        assert key in {_key(f) for f in enumerate_good_families(5, grid)}

    def test_doran_morgan_thin_families(self):
        # the 14 families alpha = (a1, a2, 1 - a2, 1 - a1), beta = 0^4: the seven thin
        # ones satisfy assumption A (Brav-Thomas), the seven arithmetic ones do not
        # (Singh-Venkataramana)
        keys = {_key(f) for f in enumerate_good_families(4, _grid((1, 2, 3, 4, 5, 6, 8, 10, 12)))}

        def family(a1, a2):
            a1, a2 = Fraction(a1), Fraction(a2)
            return tuple(map(str, (a1, a2, 1 - a2, 1 - a1))), ("0",) * 4

        thin = ["1/5,2/5", "1/2,1/2", "1/4,1/2", "1/8,3/8", "1/12,5/12", "1/3,1/2", "1/6,1/2"]
        arithmetic = ["1/10,3/10", "1/3,1/3", "1/6,1/3", "1/4,1/4", "1/6,1/6", "1/4,1/3",
                      "1/6,1/4"]
        assert all(family(*a.split(",")) in keys for a in thin)
        assert not any(family(*a.split(",")) in keys for a in arithmetic)

    def test_rank_checked(self):
        with pytest.raises(ValueError, match="rank"):
            enumerate_good_families(3, (0, F(1, 2)))


def _self_dual_quadruples(max_den):
    """Every self-dual quadruple with denominators <= max_den, sorted."""
    lower = [x for x in _grid(range(1, max_den + 1)) if 0 < x < F(1, 2)]
    return sorted(
        tuple(sorted(pairs + tuple(1 - x for x in pairs) + rest))
        for j in range(3)
        for pairs in combinations_with_replacement(lower, j)
        for rest in combinations_with_replacement((F(0, 1), F(1, 2)), 4 - 2 * j)
    )


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestClassificationPinned:
    # sha256 recorded from the classifier that spelled each class as a shape test,
    # before the classes were read off the multiplicities
    def test_local_classes(self):
        quadruples = _self_dual_quadruples(12)
        assert len(quadruples) == 324
        assert _sha(repr(classify_local_degeneration(q)) for q in quadruples) == (
            "5e607f4b55679ba497a875d0e4b2cb057825091f8fe7a5c80626327ae6d7d94e")

    def test_tables(self):
        tables = _table(4, 8) + _table(5, 8)
        assert _sha(map(repr, tables)) == (
            "65a42005f5016f263e67f67aeb18f35b565adf8c6f20249b6f3af2d7b1f8df6c")

    def test_one_jordan_block_per_exponent(self):
        # the premise of reading classes off multiplicities: h_inf has one block of
        # size m per exponent x of multiplicity m, i.e. rank (h_inf - e^{2 pi i x}) = 3
        # and rank (h_inf - e^{2 pi i x})^m = 4 - m
        beta = tuple(F(k, 13) for k in (1, 2, 11, 12))
        # e^{i pi} is -1 only up to 1.2e-16, which a block of size 4 raises to rank 1
        exact = {F(0, 1): 1.0, F(1, 2): -1.0}
        for q in _self_dual_quadruples(12):
            hinf, _ = levelt_matrices(HypergeomParams(q, beta))
            for x, m in Counter(q).items():
                lam = exact.get(x, np.exp(2j * np.pi * float(x)))
                shifted = hinf - lam * np.eye(4)
                assert numerical_rank(shifted) == 3, (q, x)
                assert numerical_rank(np.linalg.matrix_power(shifted, m)) == 4 - m, (q, x)


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
    quadruple = [F(N + s, 2 * N) for s in (-(2 * k + 1), -1, 1, 2 * k + 1)]
    cls = classify_local_degeneration(quadruple)
    assert cls.tag == par.ELLIPTIC_GOOD
    assert (cls.N, cls.k) == (N, k)
