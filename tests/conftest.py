from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from hypermono import dynamics as dyn
from hypermono import fuchsian as fox
from hypermono import monodromy as mono
from hypermono import params as par

MIRROR_QUINTIC = par.HypergeomParams(
    (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5)), (Fraction(0),) * 4
)

# (13, INF, 8) is the family 1/8,3/8,5/8,7/8:5/13,6/13,7/13,8/13; with (INF, 3, 4), it
# places one vertex at a cusp and the other at a cone point
SIGNATURES = [(2, 3, fox.INF), (2, 3, 7), (3, 3, 4), (fox.INF, fox.INF, 5),
              (fox.INF, fox.INF, fox.INF), (13, fox.INF, 8), (fox.INF, 3, 4)]


@pytest.fixture(scope="session")
def mq():
    return MIRROR_QUINTIC


@pytest.fixture(scope="session")
def mq_rep(mq):
    return mono.build_rep(mq)


@pytest.fixture(scope="session")
def mq_std(mq_rep):
    std, S = mq_rep.standardized()
    return std


@pytest.fixture(scope="session")
def mq_sig(mq):
    return fox.orbifold_signature(mq)


@pytest.fixture(scope="session")
def modular_sig():
    return fox.OrbifoldSignature(2, 3, fox.INF)


@pytest.fixture(scope="session")
def modular_dom(modular_sig):
    return fox.build_domain(modular_sig)


@pytest.fixture(scope="session")
def ideal_sig():
    return fox.OrbifoldSignature(fox.INF, fox.INF, fox.INF)


def ball_for(p, L, with_fuchs=False):
    """Word ball of a rank-4 parameter set in the standardized frame."""
    std, _ = mono.build_rep(p).standardized()
    sig = fox.orbifold_signature(p)
    gens = {"0": std.h0, "inf": std.hinf}
    orders = {"0": sig.e0, "inf": sig.einf}
    fuchs = None
    if with_fuchs:
        dom = fox.build_domain(sig)
        fuchs = {"0": dom.gens["0"], "inf": dom.gens["inf"]}
    return dyn.enumerate_ball(gens, orders, L, fuchs_gens=fuchs), std, sig


def ball_words(ball):
    """The ball's words as tuples of syllables (symbol, exponent), leftmost first."""
    return ball.unfold((), lambda s, k, rest: ((s, k),) + rest)(slice(0, len(ball)))


@pytest.fixture(scope="session")
def mq_ball8(mq):
    ball, std, sig = ball_for(mq, 8)
    return ball


def random_symplectic(rng, scale=0.4):
    a = rng.normal(size=(2, 2)) * scale
    b = rng.normal(size=(2, 2)) * scale
    b = (b + b.T) / 2
    c = rng.normal(size=(2, 2)) * scale
    c = (c + c.T) / 2
    x = np.block([[a, b], [c, -a.T]])
    return scipy.linalg.expm(x)
