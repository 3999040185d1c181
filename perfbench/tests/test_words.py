import math

import numpy as np
import pytest

from hypermono import dynamics
from words import reduced_word_count

INF = math.inf


def test_free_group_closed_form():
    # rank-2 free group: 4 * 3^(l-1) reduced words of length l
    for L in range(6):
        assert reduced_word_count([INF, INF], L) == 1 + sum(4 * 3 ** (l - 1) for l in range(1, L + 1))


def test_finite_orders():
    # Z/2 * Z/3 (the modular group): exponents {1} and {-1, 1}, so words alternate
    assert [reduced_word_count([2, 3], L) for L in range(5)] == [1, 4, 8, 14, 22]
    # an order-5 generator has exponents +-1, +-2; +-2 counts length 2
    assert reduced_word_count([5], 2) == 5


@pytest.mark.parametrize(
    "gens, orders, L",
    [
        # Sanov's free pair
        ({"a": [[1.0, 2.0], [0.0, 1.0]], "b": [[1.0, 0.0], [2.0, 1.0]]}, {"a": INF, "b": INF}, 7),
        # order-3 rotation and a long parabolic: ping-pong for Z/3 * Z
        ({"r": [[0.0, -1.0], [1.0, -1.0]], "t": [[1.0, 3.0], [0.0, 1.0]]}, {"r": 3, "t": INF}, 8),
    ],
)
def test_ball_of_free_product_is_all_reduced_words(gens, orders, L):
    ball = dynamics.enumerate_ball({s: np.array(m) for s, m in gens.items()}, orders, L)
    assert len(ball) == reduced_word_count([orders[s] for s in gens], L)
