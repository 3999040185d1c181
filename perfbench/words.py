"""Combinatorial count of reduced words in a free product of cyclic groups.

A reduced word alternates syllables ``s^k`` of distinct generators; the
exponent of a generator of finite order ``e`` lies in ``(-e/2, e/2]`` and is
nonzero, and that of an infinite-order generator is any nonzero integer.  The
length of a word is the sum of ``|k|``.  This is the word model of
``hypermono.dynamics.enumerate_ball`` and ``rational_limit_classify``; for a
group that is that free product, the count equals the ball size.
"""

from __future__ import annotations

import math


def _exponents_by_size(order, L):
    """a[k] = number of admissible exponents of absolute value k, 0 <= k <= L."""
    a = [0] * (L + 1)
    for k in range(1, L + 1):
        if order is None or order == math.inf:
            a[k] = 2
        elif 2 * k < order:
            a[k] = 2  # both +k and -k
        elif 2 * k == order:
            a[k] = 1  # only +k: -k is the same element
    return a


def reduced_word_count(orders, L):
    """Number of reduced words of length <= L, the empty word included.

    ``orders`` lists one generator order per letter (``math.inf`` or ``None``
    for infinite order).
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    weights = [_exponents_by_size(e, L) for e in orders]
    # by_first[ell][i]: words of length ell whose first syllable is generator i
    by_first = [[0] * len(orders) for _ in range(L + 1)]
    total = 1
    for ell in range(1, L + 1):
        for i, a in enumerate(weights):
            n = a[ell]  # a single syllable
            for k in range(1, ell):
                if a[k]:
                    rest = sum(c for j, c in enumerate(by_first[ell - k]) if j != i)
                    n += a[k] * rest
            by_first[ell][i] = n
        total += sum(by_first[ell])
    return total
