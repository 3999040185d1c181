"""Hypergeometric exponent parameters: Hodge numbers and degeneration classes.

Exponents live in [0, 1) and are kept as exact ``Fraction`` values whenever
the input allows it; real-valued parameters are supported for classification
only (the geometric pipelines require rational exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Optional, Sequence, Union

Exponent = Union[Fraction, float]

EXACT_TOL = 1e-12
_DENOM_LIMIT = 10**6
_ROUND_TOL = 1e-15  # a float within this (relative) of one is that rational, up to rounding

HALF = Fraction(1, 2)
ZERO = Fraction(0)


def parse_exponent(x) -> Exponent:
    """Coerce a user-facing exponent ("p/q", int, float, Fraction) into [0, 1).

    A zero denominator or a value that is not finite raises ``ValueError``.
    """
    if isinstance(x, Fraction):
        v: Exponent = x
    elif isinstance(x, int):
        v = Fraction(x)
    elif isinstance(x, str):
        x = x.strip()
        if "/" in x:
            num, den = x.split("/")
            if int(den) == 0:
                raise ValueError(f"exponent {x!r} has denominator 0")
            v = Fraction(int(num), int(den))
        else:
            f = float(x)
            v = as_exact(f)
            if v is None:
                v = f
    elif isinstance(x, float):
        v = x
    else:
        raise TypeError(f"cannot parse exponent {x!r}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"exponent {x!r} is not a finite number")
    return mod1(v)


def mod1(x: Exponent) -> Exponent:
    if isinstance(x, Fraction):
        # most exponents are already reduced, and x % 1 builds a new Fraction
        return x if 0 <= x < 1 else x % 1
    x %= 1.0
    # within EXACT_TOL of 0 = 1, on either side, is exactly 0: _close does not wrap around
    return ZERO if min(x, 1.0 - x) <= EXACT_TOL else x


def dual(x: Exponent) -> Exponent:
    """The involution x -> (1 - x) mod 1."""
    return mod1(1 - x)


def as_exact(x: Exponent) -> Optional[Fraction]:
    """The rational p/q (q <= 10**6) that x equals up to rounding, else None.

    The fractions with q <= 10**6 lie within about 1e-12 of every real number,
    so a float counts as one only within ``_ROUND_TOL`` relative: 3/10 for
    1 - 0.7, None for math.pi, math.inf and math.nan.
    """
    if isinstance(x, Fraction):
        return x
    if not math.isfinite(x):
        return None
    f = Fraction(x).limit_denominator(_DENOM_LIMIT)
    if abs(f - x) <= _ROUND_TOL * max(1.0, abs(x)):
        return f
    return None


def _close(x: Exponent, y: Exponent) -> bool:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    return abs(float(x) - float(y)) <= EXACT_TOL


def _sorted_key(values: Sequence[Exponent]):
    return sorted(values, key=float)


def is_self_dual(values: Sequence[Exponent]) -> bool:
    """True iff the multiset is invariant under x -> (1 - x) mod 1."""
    a = _sorted_key(values)
    b = _sorted_key(dual(x) for x in values)
    return all(_close(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class HypergeomParams:
    """Exponent multisets alpha, beta of a rank-n hypergeometric local system.

    Both lists are stored sorted nondecreasing; irreducibility (alpha_i !=
    beta_j for all i, j) is enforced at construction.
    """

    alpha: tuple
    beta: tuple

    def __init__(self, alpha, beta):
        a = tuple(_sorted_key(parse_exponent(x) for x in alpha))
        b = tuple(_sorted_key(parse_exponent(x) for x in beta))
        if len(a) != len(b) or not a:
            raise ValueError("alpha and beta must be nonempty of equal length")
        for x in a:
            for y in b:
                if _close(x, y):
                    raise ValueError(
                        f"reducible parameters: alpha value {x} equals beta value {y}"
                    )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def rank(self) -> int:
        return len(self.alpha)

    @property
    def self_dual(self) -> bool:
        return is_self_dual(self.alpha) and is_self_dual(self.beta)

    def __repr__(self):
        fmt = lambda t: "(" + ", ".join(str(x) for x in t) + ")"
        return f"HypergeomParams(alpha={fmt(self.alpha)}, beta={fmt(self.beta)})"


def hodge_numbers(p: HypergeomParams):
    """Hodge numbers of the underlying VHS, as a contiguous vector.

    rho(k) counts alpha-values <= beta_k minus k; the Hodge number at level
    q is #rho^{-1}(q).  The absolute level is meaningless, so the vector is
    reported starting at the lowest occupied level.
    """
    n = p.rank
    levels = []
    for k in range(1, n + 1):
        bk = p.beta[k - 1]
        count = sum(1 for a in p.alpha if float(a) <= float(bk) or _close(a, bk))
        levels.append(count - k)
    lo, hi = min(levels), max(levels)
    out = [0] * (hi - lo + 1)
    for q in levels:
        out[q - lo] += 1
    return tuple(out)


# --- local degeneration classes -------------------------------------------

MUM = "MUM"
RANK1_LINE = "Rank1Line"
RANK1_LAGRANGIAN = "Rank1Lagrangian"
ELLIPTIC_GOOD = "EllipticGood"
ELLIPTIC_BAD = "EllipticBad"
UNCLASSIFIED = "Unclassified"

_OK_TAGS = frozenset({MUM, RANK1_LINE, ELLIPTIC_GOOD})


@dataclass(frozen=True)
class DegenerationClass:
    tag: str
    N: Optional[int] = None
    k: Optional[int] = None

    @property
    def assumption_a_ok(self) -> bool:
        return self.tag in _OK_TAGS

    def __repr__(self):
        if self.tag == ELLIPTIC_GOOD:
            return f"DegenerationClass({self.tag}, N={self.N}, k={self.k})"
        return f"DegenerationClass({self.tag})"


_PATTERN_TAGS = {(4,): MUM, (2, 2): RANK1_LAGRANGIAN, (2, 1, 1): RANK1_LINE}


def _integer(form, *exponents) -> Optional[int]:
    """form(*exponents) as an int; None for an irrational exponent or a non-integer."""
    exact = [as_exact(x) for x in exponents]
    if None in exact:
        return None
    value = form(*exact)
    return int(value) if value.denominator == 1 else None


def classify_local_degeneration(exponents) -> DegenerationClass:
    """Classify a self-dual quadruple of local exponents in [0, 1).

    A companion matrix has one Jordan block per distinct eigenvalue (Levelt),
    so the class is the multiplicity pattern: (4) MUM; (2,2) rank-1 with
    invariant Lagrangian, e.g. (mu,mu,1-mu,1-mu); (2,1,1) rank-1 unipotent
    with invariant line, e.g. (0,0,mu,1-mu).  Four distinct nonzero exponents
    are elliptic, good exactly for ((N-(2k+1))/2N, (N-1)/2N, (N+1)/2N,
    (N+(2k+1))/2N) with k >= 1 and N > 2k+1.
    """
    e = [parse_exponent(x) for x in exponents]
    if len(e) != 4:
        raise ValueError("expected exactly 4 local exponents")
    e = _sorted_key(e)
    if not is_self_dual(e):
        raise ValueError(f"exponents {e} are not invariant under x -> 1-x mod 1")
    counts = [1]
    for x, y in zip(e, e[1:]):
        if _close(x, y):
            counts[-1] += 1
        else:
            counts.append(1)
    pattern = tuple(sorted(counts, reverse=True))
    if pattern in _PATTERN_TAGS:
        return DegenerationClass(_PATTERN_TAGS[pattern])
    if pattern == (1, 1, 1, 1) and float(e[0]) > 0:
        # mu2 = (N-1)/2N, mu1 = (N-(2k+1))/2N
        N = _integer(lambda x2: 1 / (1 - 2 * x2), e[1])
        k = None if N is None else _integer(lambda x1: (N * (1 - 2 * x1) - 1) / 2, e[0])
        if k is not None and k >= 1 and N > 2 * k + 1:
            return DegenerationClass(ELLIPTIC_GOOD, N=N, k=k)
        return DegenerationClass(ELLIPTIC_BAD)
    return DegenerationClass(UNCLASSIFIED)


@dataclass(frozen=True)
class AssumptionACertificate:
    ok: bool
    class_alpha: DegenerationClass
    class_beta: DegenerationClass
    hodge: tuple
    failed_clause: Optional[str]


def satisfies_assumption_a(p: HypergeomParams):
    """Decide assumption A for rank-4 self-dual parameters.

    Holds iff both local degenerations are good and the Hodge numbers are
    (1,1,1,1).  Returns (verdict, certificate).  A side that is not self-dual
    is refused by ``classify_local_degeneration``.
    """
    if p.rank != 4:
        raise ValueError(f"assumption A is a rank-4 condition, got rank {p.rank}")
    ca = classify_local_degeneration(p.alpha)
    cb = classify_local_degeneration(p.beta)
    h = hodge_numbers(p)
    failed = None
    if not ca.assumption_a_ok:
        failed = "alpha_local"
    elif not cb.assumption_a_ok:
        failed = "beta_local"
    elif h != (1, 1, 1, 1):
        failed = "hodge_numbers"
    cert = AssumptionACertificate(failed is None, ca, cb, h, failed)
    return cert.ok, cert


# --- assumption B (rank 5, maximal) ----------------------------------------


def _match_maximal_alpha(a):
    """Return alpha_min for a first-column match, None if no match.

    ``a`` is sorted and self-dual, so its lower half decides: (mu, 1/2, 1/2, ..)
    with 0 < mu < 1/2, or ((N-k_N)/2N, (N-1)/2N, 1/2, ..) with 1 < k_N < N.
    """
    a1, a2, a3 = a[:3]
    if not (_close(a3, HALF) and 0 < float(a1) < 0.5):
        return None
    if _close(a2, HALF):
        return a1
    N = _integer(lambda x2: 1 / (1 - 2 * x2), a2)
    k = None if N is None else _integer(lambda x1: N * (1 - 2 * x1), a1)
    return a1 if k is not None and 1 < k < N else None


def _match_maximal_beta(b):
    """Return beta_med for a second-column match, None if no match.

    ``b`` is sorted and self-dual, so its lower half decides: (0, 0, 0,
    M/(2M+1), ..) with M >= 1, or (0, k_M/M, (k_M+1)/M, ..) with k_M >= 1.
    """
    b1, b2, b3, b4 = b[:4]
    if not _close(b1, ZERO):
        return None
    if _close(b2, ZERO) and _close(b3, ZERO):
        if not 0 < float(b4) < 0.5:
            return None
        M = _integer(lambda x4: x4 / (1 - 2 * x4), b4)
        return b4 if M is not None and M >= 1 else None
    if not 0 < float(b2) < float(b3) < 0.5:
        return None
    M = _integer(lambda x2, x3: 1 / (x3 - x2), b2, b3)
    k = None if M is None else _integer(lambda x2: x2 * M, b2)
    # 2(k_M+1) < M is (k_M+1)/M = b3 < 1/2, checked above
    return b3 if k is not None and k >= 1 else None


def satisfies_assumption_b(p: HypergeomParams) -> bool:
    """Decide assumption B (maximality) for rank-5 self-dual parameters.

    True iff alpha matches a first-column pattern, beta a second-column
    pattern, and alpha_min > beta_med, in either orientation of (alpha, beta).
    """
    if p.rank != 5:
        raise ValueError(f"assumption B is a rank-5 condition, got rank {p.rank}")
    if not p.self_dual:
        raise ValueError("assumption B requires self-dual parameters")
    amin = _match_maximal_alpha(p.alpha)
    if amin is None:
        amin = _match_maximal_alpha(p.beta)
        bmed = _match_maximal_beta(p.alpha) if amin is not None else None
    else:
        bmed = _match_maximal_beta(p.beta)
    if amin is None or bmed is None:
        return False
    return float(amin) > float(bmed)


# --- the family table ---------------------------------------------------------


def enumerate_good_families(rank: int, grid):
    """The parameter sets on a grid of exponents that satisfy the paper's assumption.

    The grid is closed under x -> (1 - x) mod 1 first, so it need not be
    self-dual itself (0 and 1/2 are only in it if given).  Every irreducible
    pair of self-dual multisets of ``rank`` values from the closed grid is
    decided by ``satisfies_assumption_a`` (rank 4) or ``satisfies_assumption_b``
    (rank 5), and the table holds exactly the pairs the decider accepts.  Both
    deciders are symmetric in alpha and beta, so each set is returned once,
    oriented with alpha > beta lexicographically (the mirror quintic reads
    (1/5, 2/5, 3/5, 4/5 : 0, 0, 0, 0)), in increasing order of (alpha, beta).
    """
    deciders = {4: lambda p: satisfies_assumption_a(p)[0], 5: satisfies_assumption_b}
    if rank not in deciders:
        raise ValueError("rank must be 4 or 5")
    values = {parse_exponent(x) for x in grid}
    values |= {dual(x) for x in values}
    # a self-dual multiset is j pairs {x, 1 - x} with 0 < x < 1/2 and rank - 2j of 0 and 1/2
    lower = _sorted_key(x for x in values if float(x) < float(dual(x)))
    fixed = _sorted_key(x for x in values if _close(x, dual(x)))
    multisets = sorted(
        tuple(_sorted_key(pairs + tuple(map(dual, pairs)) + rest))
        for j in range(rank // 2 + 1)
        for pairs in combinations_with_replacement(lower, j)
        for rest in combinations_with_replacement(fixed, rank - 2 * j)
    )
    out = []
    for i, alpha in enumerate(multisets):
        for beta in multisets[:i]:
            if set(alpha).isdisjoint(beta):
                p = HypergeomParams(alpha, beta)
                if deciders[rank](p):
                    out.append(p)
    return out


MIRROR_QUINTIC = HypergeomParams(
    (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)),
    (ZERO, ZERO, ZERO, ZERO),
)
