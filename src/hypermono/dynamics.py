"""Word-ball dynamics: limit curves, log-Anosov certificates, Lyapunov exponents.

The word-ball pipelines work on matrices in the standard symplectic frame; the
word alphabet is {h0^{+-1}, hinf^{+-1}} with exponents of finite-order
generators confined to (-e/2, e/2].  The Lyapunov transport takes the three
reflections in any frame.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np
# np.linalg.qr's private gufuncs in numpy >= 2.4.6 (the floor in pyproject.toml);
# test_matches_per_event_loop and test_all_discarded_raises guard them
from numpy.linalg import _umath_linalg

from ._linalg import _rank_cut, projective_normalize, row_chunks, singular_gaps
from .fuchsian import IDENT, INF, OrbifoldSignature, geodesic_sample, mat_inv
from .monodromy import STANDARD_J4
from .params import as_exact

LIMIT_DEDUP_RES = 1e-8  # limit samples are deduplicated on this grid of their coordinates
HULL_BINS = 1024  # x bins of _hull_candidates' pre-filter
EXACT_LIMIT = 2**53  # integer products are exact floats while n * max|g| * max|X| < this
INTEGRAL_TOL = 1e-9  # a generator entry within this (relative) of an integer is that integer
LYAP_WARMUP = 32  # pair steps each Lyapunov batch is transported before it counts
# lock steps whose step matrices are gathered at once and whose logs are summed at
# once; a larger block saves little more and grows the gathered stack with it
LYAP_BLOCK = 64
# a run of at least this many equal pair steps among a batch's counted steps is one super
# step, which costs about as much as this many lock steps of a lone batch (4 us each).
# On (2, 3, inf) at T = 4000 with 20 batches (seeds 0-4 and 6-12), 64 and 128 gave the
# fastest runs, within 1%, and 16, 32 and 256 ones 29%, 8% and 5% slower in the median
LYAP_RUN = 64
RUN_BITS = 256  # the fixed-point grid 2^-RUN_BITS a super step starts from
# a Lyapunov run keeps every crossing of its geodesic, a code byte and a float64 time,
# and peaked at 15-29 bytes per crossing over (2, 3, inf) seeds 0-31 at T = 4000, cusp
# jumps and the transport's arrays included.  At 32 bytes and 157 crossings per unit of
# arc, the most over those seeds (the signature with the smallest triangle, so the most
# crossings), an arc length 2T past this would pass 1 GiB.  The rate grows slowly with
# the arc, and one deep cusp excursion can hold many more crossings, all built at once:
# this is a limit at the rates seen, not a cap on memory
LYAP_MAX_ARC = 2**30 // (32 * 157)


@dataclass
class WordBall:
    """Reduced words of bounded length with their matrices, one row per word.

    Word i is the syllable ``(alphabet[letter[i]], exponent[i])`` followed by
    word ``rest[i] < i``; word 0, the identity, has letter -1, exponent 0 and
    rest -1.  ``mats`` is (N, n, n) float64: when every generator and its
    inverse is integral, the exact integer products, which ``enumerate_ball``
    refuses to build past what float64 holds exactly; else the float products.
    ``fuchs`` is, when the ball was built with Fuchsian generators, the (N, 4)
    array of normalized 2x2 matrices (a, b, c, d) of the same words.
    ``exact_symplectic`` is true when ``mats`` are exact integer products of
    4x4 generators that each preserve ``STANDARD_J4`` exactly, the stacks
    ``_linalg.symplectic_gaps`` takes.
    """

    alphabet: list
    letter: np.ndarray
    exponent: np.ndarray
    rest: np.ndarray
    mats: np.ndarray
    fuchs: Optional[np.ndarray]
    exact_symplectic: bool

    def __len__(self):
        return len(self.rest)

    def unfold(self, identity, prepend):
        """The words' values, as a function of a slice of word indices.

        Word 0's value is ``identity`` and word i's is ``prepend(s, k, v)``, for
        the head s^k of word i and the value v of ``rest[i]``.  A rest comes
        before the words that name it, so the values of the words up to
        ``max(rest)`` are made here and kept; those of the later words (in a
        ball, the longest, which no word names) are made each time a slice asks
        for them, and are not kept.  The function takes a slice with no step
        and returns the list of its words' values, in index order.
        """
        columns = (self.letter, self.exponent, self.rest)
        kept = [identity]
        for i, k, r in zip(*(a[1:int(self.rest.max()) + 1].tolist() for a in columns)):
            kept.append(prepend(self.alphabet[i], k, kept[r]))

        def values(rows):
            tail = slice(max(rows.start, len(kept)), rows.stop)
            return kept[rows] + [prepend(self.alphabet[i], k, kept[r])
                                 for i, k, r in zip(*(a[tail].tolist() for a in columns))]

        return values


def _step_table(gen_mats, alphabet):
    """The (2k, n, n) float64 step table of ``alphabet`` and whether it is integral.

    Step 2i is ``gen_mats[alphabet[i]]`` and step 2i + 1 its ``np.linalg.inv``.
    The table is integral when every entry lies within ``INTEGRAL_TOL``
    (relative) of an integer and each pair of rounded matrices multiplies to
    the identity, decided in Python ints, which no entry size can wrap; an
    integral table is returned rounded.
    """
    gens = [np.asarray(gen_mats[s], dtype=float) for s in alphabet]
    steps = np.stack([x for g in gens for x in (g, np.linalg.inv(g))])
    r = np.round(steps)
    if np.all(np.abs(steps - r) <= INTEGRAL_TOL * np.maximum(1.0, np.abs(r))):
        exact = np.frompyfunc(int, 1, 1)(r)
        if np.all(exact[::2] @ exact[1::2] == np.eye(steps.shape[1], dtype=int)):
            return r, True
    return steps, False


def _fuchs_step(m, fq):
    """``mat_normalize(mat_mul(m, q))`` for each row q of the (k, 4) array ``fq``, bit for bit."""
    a, b, c, d = m
    e, f, g, h = fq.T
    out = np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h], axis=1)
    det = out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2]
    if np.any(det < 0):
        raise ValueError("matrix has negative determinant")
    return out / np.sqrt(np.abs(det))[:, None]


def _syllable_steps(orders, alphabet):
    """``extend(letter, exponent)``, the reduced words one step longer than given words.

    The words are given by their first syllables, ``(alphabet[letter],
    exponent)``, the identity by letter -1.  ``extend`` returns ``(parent,
    step, letter, exponent)`` of the longer words, in (parent, step) order:
    step t = 2i + (sign < 0), row t of the table of ``_step_table`` and the
    step code of ``geodesic_sample``, puts alphabet[i]^sign in front of word
    ``parent``.  A step extends a word whose first letter is its own away from
    0, and a finite order e keeps the net exponent in (-e/2, e/2].
    """
    step_letter = np.repeat(np.arange(len(alphabet)), 2)
    step_sign = np.tile([1, -1], len(alphabet))
    step_order = np.array([orders.get(s, INF) for s in alphabet], dtype=float)[step_letter]

    def extend(letter, exponent):
        same = letter[:, None] == step_letter
        nets = np.where(same, exponent[:, None] + step_sign, step_sign)
        valid = ((-step_order < 2 * nets) & (2 * nets <= step_order)
                 & (~same | (np.abs(nets) > np.abs(exponent)[:, None])))
        parent, step = np.nonzero(valid)
        return parent, step, step_letter[step], nets[parent, step]

    return extend


def _next_level(extend, letter, exponent, rest, offset):
    """Level ell + 1 from level ell's words, the first of which is ball index ``offset``:
    ``(parent, step, letter, exponent, rest)`` as ``extend`` and ``WordBall`` give them.

    A word's rest is its parent's when the step's letter is the parent's first
    letter (the step changes the first exponent), else the parent itself.
    """
    parent, step, new_letter, new_exponent = extend(letter, exponent)
    new_rest = np.where(letter[parent] == new_letter, rest[parent], offset + parent)
    return parent, step, new_letter, new_exponent, new_rest


def _level_sizes(extend, L):
    """The number of words of each length 0..L that has words, without the words.

    What ``extend`` allows a word depends on its first syllable only, so the
    count runs over the first syllables of each level, each with the number of
    words that begin with it, in Python ints.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    classes = {(-1, 0): 1}  # first syllable (letter, exponent) -> number of words
    sizes = [1]
    for _ in range(L):
        counts = list(classes.values())
        parent, _, letter, exponent = extend(*map(np.array, zip(*classes)))
        classes = {}
        for p, head in zip(parent.tolist(), zip(letter.tolist(), exponent.tolist())):
            classes[head] = classes.get(head, 0) + counts[p]
        if not classes:
            break
        sizes.append(sum(classes.values()))
    return sizes


def _check_exact(ell, steps, X):
    """Raise ``ArithmeticError`` when level ell, made by the integral table ``steps``
    from level ell - 1's matrices X, could pass what float64 holds exactly.

    Its entries are exact while n * max|g| * max|X| < ``EXACT_LIMIT``.
    """
    # max|X| without an |X| the size of the level
    if steps.shape[1] * int(np.abs(steps).max()) * int(max(X.max(), -X.min())) >= EXACT_LIMIT:
        raise ArithmeticError(f"level {ell}: exact products could pass 2**53, beyond the "
                              "integers float64 holds exactly")


def _level_filler(steps, alphabet, fuchs_gens):
    """``fill(X, FQ, parent, step, Y, fq)``, which writes a level's matrices into Y
    and its Fuchsian rows into fq, from X and FQ, the previous level's.

    ``steps`` is the table of ``_step_table(gen_mats, alphabet)`` and ``parent,
    step`` the level's of ``_next_level``; FQ and fq are None without
    ``fuchs_gens``.  Word j is ``steps[step[j]] @ X[parent[j]]``, by one stacked
    matmul and one ``_fuchs_step`` per step.
    """
    if fuchs_gens is not None:
        f_gens = [tuple(map(float, fuchs_gens[s])) for s in alphabet]
        f_steps = [f for g in f_gens for f in (g, mat_inv(g))]

    def fill(X, FQ, parent, step, Y, fq):
        for t, g in enumerate(steps):
            at = np.flatnonzero(step == t)
            Y[at] = g @ X[parent[at]]
            if fq is not None:
                fq[at] = _fuchs_step(f_steps[t], FQ[parent[at]])

    return fill


def _ball_levels(steps, exact, orders, L, alphabet):
    """The word ball a level at a time, in ``enumerate_ball``'s order.

    ``steps, exact`` is ``_step_table(gen_mats, alphabet)``.  Yields only, for
    each length 0..L that has words, ``(letter, exponent, rest, X)``: the
    level's words as ``WordBall`` stores them and their matrices X (m, n, n).
    Each level is built from the last by ``_next_level`` and ``_level_filler``,
    and only that level is kept; on an integral table, a level past
    ``EXACT_LIMIT`` raises ``ArithmeticError`` (``_check_exact``).
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    extend = _syllable_steps(orders, alphabet)
    fill = _level_filler(steps, alphabet, None)
    letter, exponent, rest = np.array([-1]), np.array([0]), np.array([-1])
    X = np.eye(steps.shape[1])[None]
    offset = 0  # ball index of the level's first word

    yield letter, exponent, rest, X
    for ell in range(1, L + 1):
        parent, step, *words = _next_level(extend, letter, exponent, rest, offset)
        if not len(parent):
            return
        if exact:
            _check_exact(ell, steps, X)
        offset += len(letter)
        letter, exponent, rest = words
        Y = np.empty((len(parent),) + X.shape[1:])
        fill(X, None, parent, step, Y, None)
        X = Y
        yield letter, exponent, rest, X


def enumerate_ball(
    gen_mats: Dict[str, np.ndarray],
    orders: Dict[str, float],
    L: int,
    fuchs_gens: Optional[Dict[str, tuple]] = None,
    alphabet: Optional[Sequence[str]] = None,
) -> WordBall:
    """All reduced words of length <= L over the alphabet, by left multiplication.

    The ball is every reduced word of the free product of the cyclic groups
    of the alphabet's letters, each of the order ``orders`` gives it (infinite
    when none): consecutive syllables have distinct letters, and the exponent
    of a letter of finite order e lies in (-e/2, e/2].  Every such word is
    kept, so a matrix repeats where the generators do not represent that free
    product faithfully.  The ball holds, bit for bit, the levels that
    ``_ball_levels`` yields on the step table of ``_step_table`` (each
    generator in ``alphabet`` followed by its inverse), but is built in place:
    ``_level_sizes`` counts every level's words first, and one loop then
    writes each level's words, matrices and Fuchsian rows into the ball's
    arrays (three (N,) int columns, one (N, n, n) and one (N, 4) array),
    reading the previous level's from the same arrays.  No level is held
    twice, and only the level being written has its parents and steps (16
    bytes a word) held beside the ball (184 bytes a 4x4 word with its
    Fuchsian row).

    Order: words of length ell come after all shorter words, in the order of
    (parent in the previous level, generator in ``alphabet``, sign +1 then -1).

    Exactness: when every generator and its inverse is integral (every entry
    within ``INTEGRAL_TOL`` of integers, each generator times its inverse the
    identity), ``mats`` are the exact integer products, computed in float64.
    Each level first checks n * max|g| * max|X| < ``EXACT_LIMIT`` = 2**53 (X
    the previous level), which keeps every partial sum an exact float, and
    raises ``ArithmeticError`` where the bound fails, before the next level's
    words are made.  Level 1's check, on the identity, comes before the ball
    is allocated; a later level's comes after, so an L whose ball cannot be
    allocated at all fails there, at once.  Otherwise ``mats`` are the float
    products of the given generators.  ``exact_symplectic`` also needs
    gᵀ J g = J, J = ``STANDARD_J4``, of every generator g, checked in Python ints.
    """
    alphabet = list(alphabet or gen_mats)
    steps, exact = _step_table(gen_mats, alphabet)
    extend = _syllable_steps(orders, alphabet)
    sizes = _level_sizes(extend, L)
    n = steps.shape[1]
    # level 1's check reads only the identity, so it comes before the ball is allocated
    if exact and len(sizes) > 1:
        _check_exact(1, steps, np.eye(n))
    N = sum(sizes)
    letter, exponent, rest = (np.empty(N, dtype=int) for _ in range(3))
    letter[0], exponent[0], rest[0] = -1, 0, -1
    mats = np.empty((N, n, n))
    mats[0] = np.eye(n)
    fuchs = None
    if fuchs_gens is not None:
        fuchs = np.empty((N, 4))
        fuchs[0] = IDENT
    fill = _level_filler(steps, alphabet, fuchs_gens)
    start, end = 0, 1  # the previous level's rows
    for ell, size in enumerate(sizes[1:], 1):
        last, new = slice(start, end), slice(end, end + size)
        if exact:
            _check_exact(ell, steps, mats[last])
        parent, step, letter[new], exponent[new], rest[new] = _next_level(
            extend, letter[last], exponent[last], rest[last], start)
        fill(mats[last], None if fuchs is None else fuchs[last], parent, step,
             mats[new], None if fuchs is None else fuchs[new])
        start, end = new.start, new.stop
    symplectic = exact and steps.shape[1:] == STANDARD_J4.shape
    if symplectic:
        J = np.frompyfunc(int, 1, 1)(STANDARD_J4)
        symplectic = all(np.array_equal(g.T @ J @ g, J)
                         for g in np.frompyfunc(int, 1, 1)(steps[::2]))
    return WordBall(alphabet, letter, exponent, rest, mats, fuchs, exact_symplectic=symplectic)


# --- limit curve ---------------------------------------------------------------


def _first_copies(keys, seen):
    """Indices (increasing) of the first copy of each row of the int64 array ``keys``
    that is not in the set ``seen``, to which the kept rows are added.

    Rows are compared as their bytes.  The set only tests membership, so the
    hash seed cannot change which rows are kept.
    """
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel().tolist()
    first = []
    for i, row in enumerate(rows):
        if row not in seen:
            seen.add(row)
            first.append(i)
    return np.array(first, dtype=np.int64)


@dataclass
class LimitSamples:
    """Limit-curve samples, one row each.

    ``points`` (N, n) are unit vectors, ``gaps`` (N,) the alpha_1-gaps (0.0
    for a cusp sample), ``kinds`` (N,) "attracting" or "cusp", and ``index``
    (N,) the ball index of the word whose matrix gave each sample.
    """

    points: np.ndarray
    gaps: np.ndarray
    kinds: np.ndarray
    index: np.ndarray

    def __len__(self):
        return len(self.index)


def limit_curve_samples(
    ball: WordBall,
    gap_min: Optional[float],
    h1: Optional[np.ndarray],
    sink: Callable[[LimitSamples], None],
) -> LimitSamples:
    """Boundary-curve samples from a word ball.

    Attracting points, when ``gap_min`` is given, are top left-singular
    directions of elements with alpha_1-gap >= gap_min.  Cusp points, when
    ``h1`` is given, are the ball translates of the cusp line im(h1 - id),
    taken as the top left-singular vector of h1 - id: h1 is a transvection
    (Levelt: h1 - id has rank 1), so the line is fixed by h1 and attracts under
    its powers.  A ``ValueError`` is raised unless ``_rank_cut`` counts exactly
    one singular value of h1 - id, the rank ``monodromy_at_one`` reports.
    Every point is put through ``projective_normalize``.

    Order: the cusp samples in ball order, then the attracting samples in
    ball order.  Each kind is deduplicated on its own: of several points of
    one kind that round to the same point of the ``LIMIT_DEDUP_RES`` grid,
    only the first is kept.

    ``sink(block)`` gets each block of samples, all of one kind and from one
    chunk of ``row_chunks(len(ball))``, as soon as it is final, after every
    argument has been checked: first the cusp block of each chunk, which needs
    no SVD, then the attracting block of each SVD chunk.  The blocks,
    concatenated in the order the sink got them, are the samples returned.
    The ball's SVDs are the ``with`` block of ``singular_gaps``, entered
    before the cusp samples are computed: they run in chunks, one worker per
    CPU of the process's affinity mask (``taskset`` limits them) and at most
    two chunks per worker ahead of the attracting loop, with the bytes of one
    call over the whole ball.  Without ``gap_min`` no SVD runs.
    """
    if gap_min is None and h1 is None:
        raise ValueError("no sample kind: give gap_min, h1 or both")
    if gap_min is not None and not gap_min > 0:
        raise ValueError("gap_min must be positive")
    if h1 is not None:
        u1, s1, _ = np.linalg.svd(h1 - np.eye(len(h1)))
        if (rank := _rank_cut(s1)) != 1:
            raise ValueError(f"h1 - id has rank {rank}, not 1: h1 is no transvection")
        line = projective_normalize(u1[:, 0])
    blocks = []

    def emit(kind, idx, vecs, kind_gaps, seen):
        v = projective_normalize(vecs)
        first = _first_copies(np.round(v / LIMIT_DEDUP_RES).astype(np.int64), seen)
        block = LimitSamples(v[first], kind_gaps[first], np.full(len(first), kind), idx[first])
        blocks.append(block)
        sink(block)

    index = np.arange(len(ball))
    attracting = ball.mats if gap_min is not None else ball.mats[:0]
    with singular_gaps(attracting, top=True) as chunks:
        if h1 is not None:
            seen = set()
            for rows in row_chunks(len(ball)):
                idx = index[rows]
                emit("cusp", idx, ball.mats[rows] @ line, np.zeros(len(idx)), seen)
        seen = set()
        for rows, gaps, tops in chunks:
            keep = gaps >= gap_min
            emit("attracting", index[rows][keep], tops[keep], gaps[keep], seen)
    columns = [(b.points, b.gaps, b.kinds, b.index) for b in blocks]
    return LimitSamples(*map(np.concatenate, zip(*columns)))


# --- log-Anosov certificate ------------------------------------------------------


@dataclass(frozen=True)
class AnosovCertificate:
    eps_hat: float
    c_hat: float


def _lower_hull(xs, ys):
    """Vertices of the lower convex hull, left to right.

    Points whose x lie within 1e-12 of the last vertex count as equal in x,
    and only the lower of the two is kept.
    """
    pts = sorted(zip(xs, ys))
    hull = []
    for p in pts:
        if hull and abs(hull[-1][0] - p[0]) < 1e-12:
            if p[1] >= hull[-1][1]:
                continue
            hull.pop()
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) < 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _hull_candidates(xs, ys):
    """Indices of the points that can be vertices of ``_lower_hull(xs, ys)``.

    In (x, y) order a lower-hull vertex is a prefix or a suffix minimum of y:
    its support line has slope <= 0 (no lower point to its left) or >= 0
    (none to its right).  The indices come in (x, y, index) order.

    Only the points left by a pre-filter are sorted.  The (finite) xs fall
    into ``HULL_BINS`` bins of equal width, and a point above the least y of
    every earlier bin and above the least y of every later bin is dropped: a
    point of an earlier (later) bin lies strictly left (right) of it and lower.
    The lowest point of those bins is never dropped, so a point that was kept
    fails the prefix (suffix) test among the kept points exactly when it fails
    it among all points.
    """
    if len(xs):
        lo, hi = xs.min(), xs.max()
        share = (xs - lo) / (hi - lo) if hi > lo else np.zeros(len(xs))  # in [0, 1], monotone
        bins = np.minimum((share * HULL_BINS).astype(np.intp), HULL_BINS - 1)
        least = np.full(HULL_BINS + 2, np.inf)  # a bin's least y, between two empty ends
        np.minimum.at(least, bins + 1, ys)
        before = np.minimum.accumulate(least)[bins]  # the least y of bins < bin
        after = np.minimum.accumulate(least[::-1])[::-1][bins + 2]  # and of bins > bin
        kept = np.flatnonzero((ys <= before) | (ys <= after))
        xs, ys = xs[kept], ys[kept]
    else:
        kept = np.arange(0)
    order = np.lexsort((ys, xs))
    y = ys[order]
    prefix = y <= np.minimum.accumulate(y)
    suffix = y <= np.minimum.accumulate(y[::-1])[::-1]
    return kept[order[prefix | suffix]]


def frobenius_distances(ball: WordBall) -> np.ndarray:
    """dist(i, m . i) = arccosh(||m||_F^2 / 2) of each word's Fuchsian matrix m.

    Bit for bit the per-row ``frobenius_distance`` of ``tests/oracles.py``.
    """
    if ball.fuchs is None:
        raise ValueError("ball was enumerated without Fuchsian matrices")
    fuchs = ball.fuchs
    q = (fuchs[:, 0] * fuchs[:, 0] + fuchs[:, 1] * fuchs[:, 1]
         + fuchs[:, 2] * fuchs[:, 2] + fuchs[:, 3] * fuchs[:, 3]) / 2.0
    # math.acosh, not np.arccosh: the two differ in the last bit on ~2.5% of inputs
    return np.array([math.acosh(x) for x in np.maximum(q, 1.0).tolist()])


def _hull_value(hull, x):
    """Value of the piecewise-linear lower minorant at x (clamped to its range).

    ``_lower_hull`` keeps its vertices at least 1e-12 apart in x, so no segment is vertical.
    """
    if x <= hull[0][0]:
        return hull[0][1]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x <= x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    return hull[-1][1]


def anosov_certificate(dists: np.ndarray, gaps: np.ndarray) -> AnosovCertificate:
    """Support-line certificate for the singular-value gap against displacement.

    The scatter is (dist(x0, gamma x0), mu_1 - mu_2) over the ball: ``dists``
    from ``frobenius_distances`` and ``gaps`` the collected chunks of
    ``singular_gaps`` (values only), in ball order.  eps_hat is the slope of
    the lower convex minorant at scale, read as the secant of the minorant
    between half and 0.95 of the maximal displacement (the far vertex alone is
    a single-word artifact); c_hat is the smallest intercept making
    gap >= eps_hat * dist - c_hat hold for every point.  A violated inequality
    family yields eps_hat <= 0.
    """
    keep = _hull_candidates(dists, gaps)
    hull = _lower_hull(dists[keep].tolist(), gaps[keep].tolist())
    if len(hull) < 2:
        eps = 0.0
    else:
        x_max = hull[-1][0]
        x_lo, x_hi = 0.5 * x_max, 0.95 * x_max
        if x_hi - x_lo < 1e-9:
            eps = 0.0
        else:
            eps = (_hull_value(hull, x_hi) - _hull_value(hull, x_lo)) / (x_hi - x_lo)
    c = float(np.max(eps * dists - gaps)) if len(dists) else 0.0
    return AnosovCertificate(eps_hat=float(eps), c_hat=c)


# --- Lyapunov exponents -----------------------------------------------------------


@dataclass
class LyapunovResult:
    exponents: np.ndarray
    stderr: np.ndarray
    per_batch: np.ndarray
    n_discarded: int

    @property
    def nonnegative(self):
        """The nonnegative half of the (symmetric) spectrum."""
        return self.exponents[: len(self.exponents) // 2]

    @property
    def nonnegative_pair(self):
        lam = self.nonnegative
        return float(lam[0]), float(lam[1]) if len(lam) > 1 else 0.0


def _fixed(x, bits):
    """The float ``x`` times 2^bits, rounded down to an int, exactly."""
    num, den = x.as_integer_ratio()
    return (num << bits) // den if bits >= 0 else num // (den << -bits)


def _half_log(s, bits):
    """½ log(s / 2^bits) of an int s > 0."""
    if -1000 < s.bit_length() - bits < 1000:
        num, den = (s, 1 << bits) if bits >= 0 else (s << -bits, 1)
        return 0.5 * math.log(num / den)  # int / int rounds once
    return 0.5 * (math.log(s) - bits * math.log(2.0))


def _block_mul(a, b, bits):
    """The product of block floats (X, e), each X 2^e with X an object array of ints,
    rounded down to ``bits`` bits in its largest entry."""
    (x, ex), (y, ey) = a, b
    z = x @ y
    shift = max(max(map(abs, z.flat)).bit_length() - bits, 0)
    return z >> shift, ex + ey + shift


def _super_step(u, m, frame, cache):
    """``m`` equal steps ``u`` of the frame transport in one: (log |diag R|, Q) of the QR
    of u^m F, for the frame F, with R's diagonal positive.

    A float transport of a long run of a parabolic step loses the frame's
    contracted directions, since cond(u^m) grows like a power of m, so the
    product is taken in block floating point on Python ints: each matrix is
    X 2^e with X rounded down to ``bits`` bits in its largest entry.  F, its
    columns' signs set so that each column's largest entry is positive, is
    taken by binary powers of u to u^m F, and Gram-Schmidt runs on the ints,
    its logs taken from exact sums of squares.  ``bits`` starts at
    ``RUN_BITS`` and is raised to a multiple of 64 past
    72 + n log2(n M) - j log2 |det u|, for X = u^j F (j = m) and the top
    power X = u^j, M the largest entry of X, so that the rounding stays 2^-64
    below the smallest singular value |det X| / (n M)^(n-1) of each, with 8
    bits to spare for the roundings of the chain.  The
    result depends on F only up to its columns' signs, to which |diag R| is
    blind.  ``cache`` keeps the powers of each step matrix.  A non-finite
    frame gives NaN logs, and a product with a zero column -inf ones; the
    frame is then returned as it came.
    """
    n = len(frame)
    if not np.isfinite(frame).all():
        return np.full(n, np.nan), frame.copy()
    lead = np.abs(frame).argmax(axis=0)
    f = (frame * np.sign(frame[lead, np.arange(n)])).tolist()
    entry = cache.setdefault(u.tobytes(), {})
    if not entry:
        e = math.frexp(np.abs(u).max())[1]  # det of u 2^-e, whose entries lie below 1
        det = abs(np.linalg.det(np.ldexp(u, -e)))
        entry.update(e=e, log2det=math.log2(det) + n * e if det > 0 else -math.inf)
    bits = RUN_BITS
    while True:
        powers = entry.setdefault(bits, [])
        for k in range(len(powers), m.bit_length()):
            powers.append(_block_mul(powers[-1], powers[-1], bits) if k else (
                np.array([[_fixed(x, bits - entry["e"]) for x in row] for row in u.tolist()],
                         dtype=object), entry["e"] - bits))
        g = np.array([[_fixed(x, bits) for x in row] for row in f], dtype=object), -bits
        for k in range(m.bit_length()):
            if m >> k & 1:
                g = _block_mul(powers[k], g, bits)
        # X = u^j F or u^j has cond(X) <= (n max|X|)^n / |det u|^j
        need = 72 + max(n * (max(map(abs, x.flat)).bit_length() + ex + math.log2(n))
                        - j * entry["log2det"] for (x, ex), j in ((g, m), (powers[k], 1 << k)))
        if not bits < need < math.inf:  # a singular u: its last log is -inf or noise
            break
        bits = 64 * math.ceil(need / 64)
    (x, ex), logs, q = g, np.full(n, -math.inf), []
    for j, c in enumerate(x.T.tolist()):
        for v in q:  # modified Gram-Schmidt on the ints
            d = sum(a * b for a, b in zip(v, c)) >> bits
            c = [a - (d * b >> bits) for a, b in zip(c, v)]
        s = sum(a * a for a in c)
        if s == 0:
            return logs, frame.copy()
        logs[j] = _half_log(s, -2 * ex)
        r = math.isqrt(s)
        q.append([(a << bits) // r for a in c])
    one = 1 << bits
    return logs, np.array([[a / one for a in v] for v in q]).T


def lyapunov_mc(
    rep_mats: Sequence[np.ndarray],
    sig: OrbifoldSignature,
    T: float,
    n_traj: int,
    seed: int,
) -> LyapunovResult:
    """Benettin frame transport along one random geodesic of the base orbifold,
    cut into ``n_traj`` batches.

    ``rep_mats`` is (rho(r_a), rho(r_b), rho(r_c)), the images of the mirror
    reflections of ``geodesic_sample``.  A crossing with code i folds the
    geodesic back by r_i, so the frame gains rho(r_i) on the left: a
    reflection is its own inverse.  Consecutive codes i, j of the geodesic
    are paired into one step rho(r_j) rho(r_i), an element of the rotation
    half, from a table of 3 single steps and 9 products; an odd last code is
    one single step.  Every step is followed by a QR, whose log |diag R| is
    the step's log growth.  Householder QR is exactly equivariant under
    column sign flips, so |diag R| does not depend on the signs of the
    frame's columns.  Time follows the diag(e^t, e^{-t}) convention, under
    which the geodesic of flow time ``T`` covers hyperbolic arc length 2T and
    the uniformizing representation itself has top exponent exactly 1.

    The geodesic is flowed in ``n_traj`` legs of equal flow time, one
    ``geodesic_sample`` call each, and every leg resumes at the last crossing
    of the one before, so the legs concatenate to one sample of flow time
    ``T`` bit for bit, and a trace shows one call per batch.  The sampler
    unfolds a deep cusp excursion in closed form, but records each of its
    crossings, and a leg that ends inside an excursion hands the rest of it to
    the next leg in its state.  A leg that holds no crossing is not flowed, so
    there are never more calls than crossings plus one, however large
    ``n_traj`` is.

    The steps are cut into ``n_traj`` batches of about equal flow time.  A
    cut falls only where a step starts a run of equal steps right after a
    run of length 1, so no cut splits a cusp excursion (a run of one pair
    step), at the candidate nearest each equal share of the counted flow
    time.  A cusp excursion makes many steps in little time, so equal step
    counts would leave batches of very unequal time.  Each batch is
    transported from the identity frame ``LYAP_WARMUP`` steps before its
    first step and counts only its own steps, from the flow time of the last
    crossing before its first step to that of its last; the first batch
    starts at step ``LYAP_WARMUP``, so the geodesic's first steps are a
    discarded transient.  The exponents are the counted log growth over the
    counted flow time of the kept batches, and the stderr is that ratio's
    batch-means error, which needs two batches.  A ``T`` that is not positive
    or whose arc length 2T is not finite or past ``LYAP_MAX_ARC`` (213,722,
    where a run at the crossing rates and peak bytes per crossing measured on
    (2, 3, inf) would pass 1 GiB; a deeper cusp excursion than those can still
    pass it), a negative ``seed``, ``n_traj`` below 2, or a geodesic too short
    for the warm-up or with fewer cut candidates than ``n_traj - 1``, is
    refused with ``ValueError``; fewer than two kept batches raise
    ``RuntimeError``.

    A cusp excursion is a run of one pair step u.  A float transport of a
    long run loses the frame's contracted directions (by up to 0.24 in the
    logs over the 31,883 steps of sym3-lyapunov's longest run), and one step
    per lock step made the longest batch set the run time.  So each maximal
    run of at least ``LYAP_RUN`` equal steps of a finite u among a batch's
    counted steps, a run starting where the step changes or the batch starts,
    is one op, a super step (``_super_step``: u^m F on Python ints); each
    other step, the warm-up's included, is one op.  A batch whose op is a
    super step takes it in Python at its lock step, and its lane of the
    stacked matmul and QR is overwritten by the super step's frame and logs.

    All batches are transported in lock step: each lock step is one stacked
    matmul and one stacked QR over the batches that still have ops, which,
    sorted by op count, longest first, are a prefix of the stack.  The QR
    calls the two gufuncs behind ``np.linalg.qr`` directly, in place and
    without the wrapper's copy and checks, so it gives that function's bits.
    Stacked matmul and QR act on each matrix as the 2-D calls do, so the
    results equal one-at-a-time transport with ``np.linalg.qr`` and the same
    super steps bit for bit.  The lock steps go in blocks of ``LYAP_BLOCK``:
    one gather fetches a block's step matrices, each step leaves its R in a
    stack of the block, and at the block's end one call takes log |diag R|
    of the whole stack and one reduction over its outer axis adds the rows,
    the logs so far first, in order, which is one ``+=`` per step bit for
    bit.  No block straddles the end of the warm-up, where the logs are
    reset.  A batch is discarded when some R of its steps, warm-up included,
    has a zero or non-finite diagonal entry, or a super step a -inf or NaN
    log, which is exactly when its log sum ends non-finite; the kept rows of
    ``per_batch`` stay in geodesic order.
    """
    end = 2.0 * T
    if not 0 < end < math.inf or seed < 0:
        raise ValueError("T must be positive, with a finite arc length 2T, and seed non-negative")
    if end > LYAP_MAX_ARC:
        raise ValueError(f"T={T:g}: an arc length 2T past {LYAP_MAX_ARC} would keep more than "
                         f"1 GiB of crossings at a typical rate")
    if n_traj < 2:
        raise ValueError(f"n_traj={n_traj}: a batch-means error needs two batches")
    mats = [np.asarray(m, dtype=float) for m in rep_mats]
    n = mats[0].shape[0]
    warm, block = LYAP_WARMUP, LYAP_BLOCK

    def leg_end(k):
        return min(end * k / n_traj, end)

    seq, k = np.random.SeedSequence(seed), 1
    leg = geodesic_sample(sig, seq, leg_end(k))
    codes, times = bytearray(leg.events), array("d", leg.times)
    while leg.next_time < end:
        # the next leg is the first to end past the next crossing
        k = max(k + 1, int(leg.next_time / end * n_traj))
        while leg_end(k) <= leg.next_time:
            k += 1
        leg = geodesic_sample(sig, seq, leg_end(k), start=leg)
        codes += leg.events
        times.extend(leg.times)
    codes = np.frombuffer(codes, dtype=np.uint8)
    odd = len(codes) // 2 * 2
    steps = np.append(3 + 3 * codes[:-1:2] + codes[1::2], codes[odd:])
    times = np.frombuffer(times)

    def step_end(k):
        """The flow time of the last crossing of each step in ``k``."""
        return times[np.minimum(2 * k + 1, len(codes) - 1)] / 2.0

    if len(steps) <= warm:
        raise ValueError(f"T={T} gives {len(steps)} pair steps, too few for the warm-up of {warm}")
    # the cut candidates: steps past the warm-up that start a run right after a run of one
    new_run = steps[1:] != steps[:-1]
    cands = np.flatnonzero(new_run[1:] & new_run[:-1]) + 2
    cands = cands[cands > warm]
    if len(cands) < n_traj - 1:
        raise ValueError(f"the geodesic of T={T} allows at most {len(cands) + 1} batches, "
                         f"not {n_traj}")
    # a cut at step k ends the previous batch's flow time at step_end(k - 1)
    at = step_end(cands - 1)
    begin = step_end(warm - 1)
    targets = begin + (step_end(len(steps) - 1) - begin) / n_traj * np.arange(1, n_traj)
    right = np.searchsorted(at, targets).clip(max=len(cands) - 1)
    left = (right - 1).clip(min=0)
    pick = np.where(targets - at[left] <= at[right] - targets, left, right)
    # distinct cuts: the b-th pick is at least the last one plus 1, and leaves a candidate
    # for each later target
    b = np.arange(n_traj - 1)
    pick = np.minimum(np.maximum.accumulate(pick - b) + b, len(cands) - n_traj + 1 + b)
    first = np.append(warm, cands[pick])  # each batch's first counted step
    stop = np.append(cands[pick], len(steps))
    spans = step_end(stop - 1) - step_end(first - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        # step 3 + 3i + j is the pair (i, j): rho(r_j) rho(r_i)
        table = np.stack(mats + [mats[j] @ mats[i] for i in range(3) for j in range(3)])
    # the runs of the counted steps: a run starts where the step changes or a batch starts,
    # and a long one of a finite step is one op, of its length; every other step is an op
    new_run = np.append(True, new_run)
    new_run[first] = True
    runs = np.flatnonzero(new_run[warm:]) + warm
    run_len = np.diff(np.append(runs, len(steps)))
    long = (run_len >= LYAP_RUN) & np.isfinite(table).all(axis=(1, 2))[steps[runs]]
    n_ops = np.where(long, 1, run_len)
    # the counted ops: the first step of each run, and each further step of a short run
    ops = np.repeat(runs - np.cumsum(n_ops) + n_ops, n_ops) + np.arange(n_ops.sum())
    count = np.repeat(np.where(long, run_len, 1), n_ops)
    # each batch transports its warm-up's steps one by one, then its counted ops: its op
    # j is the step first - warm + j in the warm-up, and then ops[lo - warm + j]
    lo, hi = np.searchsorted(ops, first), np.searchsorted(ops, stop)
    lengths = hi - lo + warm
    order = np.argsort(-lengths, kind="stable")
    warm_at, ops_at = (first - warm)[order], (lo - warm)[order]
    # at lock steps ends[k] <= j < ends[k - 1], exactly the first k batches have ops left
    ends = np.append(lengths[order], 0).tolist()
    frames = np.tile(np.eye(n), (n_traj, 1, 1))
    logs = np.zeros((n_traj, n))
    cache = {}  # the super steps' powers
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n_traj, 0, -1):
            frame, log = frames[:k], logs[:k]
            # prods[i]: the product, then R, of a block's lock step i; rows[0] holds the logs
            # so far, and rows[1 + i] the log |diag R| of lock step i
            prods = np.empty((block, k, n, n))
            rows = np.empty((block + 1, k, n))
            j = ends[k]
            while j < ends[k - 1]:
                if j == warm:
                    # every batch is past its warm-up: finite logs restart at 0, and a
                    # non-finite one keeps its batch discarded
                    np.copyto(logs, 0.0, where=np.isfinite(logs))
                stop = min(j + block, ends[k - 1])
                if j < warm:  # a block ends at the warm-up's end, where the reset falls
                    stop = min(stop, warm)
                at = np.arange(j, stop)[:, None]
                # the super steps of each lock step of the block: (lock step, batch, length)
                supers = [None] * (stop - j)
                if j < warm:
                    at = warm_at[:k] + at
                else:
                    lens = count[ops_at[:k] + at]
                    at = ops[ops_at[:k] + at]
                    for i, b in zip(*np.nonzero(lens > 1)):
                        supers[i] = (supers[i] or []) + [(i, b, int(lens[i, b]))]
                done = []
                for step, a, sup in zip(table[steps[at]], prods, supers):
                    if sup:
                        taken = [(i, b, *_super_step(step[b], m, frame[b], cache))
                                 for i, b, m in sup]
                    np.matmul(step, frame, out=a)
                    # Householder QR in place: R's upper triangle overwrites a, Q goes
                    # to frame
                    tau = _umath_linalg.qr_r_raw(a, signature="d->d")
                    _umath_linalg.qr_reduced(a, tau, signature="dd->d", out=frame)
                    if sup:  # the super step's batch takes its own frame
                        for _, b, _, q in taken:
                            frame[b] = q
                        done += taken
                block_rows, grown = rows[: stop - j + 1], rows[1 : stop - j + 1]
                np.abs(prods[: stop - j].diagonal(axis1=2, axis2=3), out=grown)
                np.log(grown, out=grown)
                for i, b, grow, _ in done:
                    grown[i, b] = grow
                block_rows[0] = log
                # a reduction over the outer axis adds the rows in order: one += per step
                np.add.reduce(block_rows, axis=0, out=log)
                j = stop
    counted = np.empty_like(logs)
    counted[order] = logs
    kept = np.isfinite(counted).all(axis=1)
    counted, spans = counted[kept], spans[kept]
    m = len(spans)
    if m < 2:
        raise RuntimeError(f"only {m} of {n_traj} batches kept: a batch-means error needs two")
    total = spans.sum()
    lam = counted.sum(axis=0) / total
    # the ratio estimator's batch-means error
    resid = counted - spans[:, None] * lam
    err = np.sqrt(m / (m - 1) * (resid * resid).sum(axis=0)) / total
    return LyapunovResult(
        exponents=lam,
        stderr=err,
        per_batch=counted / spans[:, None],
        n_discarded=n_traj - m,
    )


def sum_formula_report(result: LyapunovResult, chi: float, rhs_degrees) -> dict:
    """Compare the sum of nonnegative exponents with 2 * sum(degrees) / |chi|, the
    Eskin-Kontsevich-Moeller-Zorich sum formula when the Fuchsian top exponent is 1.
    The degrees are finite numbers: ``lyapunov`` refuses others before its run."""
    if chi == 0:
        raise ValueError("chi must be nonzero")
    lam_sum = float(np.sum(result.nonnegative))
    report = {
        "lambda_sum": lam_sum,
        "chi": chi,
        "evaluated": rhs_degrees is not None,
    }
    if rhs_degrees is None:
        report["note"] = "not evaluated (no degree data supplied)"
        return report
    rhs = 2.0 * float(sum(rhs_degrees)) / abs(chi)
    report["rhs"] = rhs
    report["abs_discrepancy"] = abs(lam_sum - rhs)
    report["rel_discrepancy"] = abs(lam_sum - rhs) / max(abs(rhs), 1e-300)
    return report


# --- rational limit points --------------------------------------------------------


def _rank(rows):
    """Rank over Q of a list of integer rows, by fraction-free elimination."""
    rows = list(rows)  # rows are replaced, never changed in place
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] != 0:
                rows[i] = [p[c] * x - rows[i][c] * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def _integral_vector(x):
    """The rational vector ``x`` times the lcm of its denominators, as Python ints."""
    exact = [as_exact(t) for t in x]
    if None in exact:
        raise ValueError(f"target coordinate {x[exact.index(None)]!r} is not rational")
    scale = math.lcm(*(f.denominator for f in exact))
    return [int(f * scale) for f in exact]


@dataclass(frozen=True)
class CuspWitness:
    """A word, as syllables (symbol, exponent) whose product left to right is
    the unipotent, and that unipotent as a tuple of rows of Python ints."""

    word: tuple
    unipotent: tuple


def rational_limit_classify(gen_mats, orders, v, L):
    """Search the word ball for a unipotent u with v in ker(u - id) & im(u - id).

    Such a u fixes the limit point [v].  Returns a CuspWitness or None
    (meaning: no witness within length L, no claim of nonexistence).  The
    rational vector ``v`` is searched as its integral multiple.

    Search order: a word ``((s_1, k_1), ..., (s_m, k_m))`` stands for the
    product ``g_{s_1}^{k_1} ... g_{s_m}^{k_m}`` and grows at its right end.
    Every reduced word is searched, by length, and within a length in the
    order of (parent word, generator in ``gen_mats``, sign +1 then -1); the
    witness is the first hit, so it has minimal word length.  The search
    reads ``enumerate_ball``'s levels from ``_ball_levels`` one at a time, on
    the step table of the transposed generators, as (w g)^T = g^T w^T, and
    stops at the first level that holds a witness.

    Arithmetic is exact: ``_step_table`` must find the table integral (every
    generator and its inverse, det +-1, as for hypergeometric monodromy
    groups), else a ``ValueError`` is raised before any level is built.  A
    float64 prefilter over each level decides (u - id) v = 0 and u != id,
    exactly while n * max|u - id| * max|v| < ``EXACT_LIMIT`` = 2**53; a level
    past that bound, here or in the engine, raises ``ArithmeticError``.
    ``_is_witness`` decides the rest, in Python ints, for the matrices it passes.
    """
    target = _integral_vector(np.ravel(np.asarray(v, dtype=object)).tolist())
    scale = max(map(abs, target))
    alphabet = list(gen_mats)
    steps, exact = _step_table({s: np.transpose(m) for s, m in gen_mats.items()}, alphabet)
    if not exact:
        raise ValueError("the exact search needs integral generators and inverses (det +-1)")
    levels = []  # (letter, exponent, rest) of each level so far
    for ell, (*syllables, X) in enumerate(_ball_levels(steps, exact, orders, L, alphabet)):
        levels.append(syllables)
        n = X.shape[1]
        D = X - np.eye(n)  # (u - id)^T for each word's u
        if n * max(1, int(np.abs(D).max())) * scale >= EXACT_LIMIT:
            raise ArithmeticError(f"level {ell}: (u - id) v could pass 2**53, beyond the "
                                  "integers float64 holds exactly")
        hits = ~np.any(np.array(target, dtype=float) @ D, axis=1) & np.any(D, axis=(1, 2))
        for k in np.flatnonzero(hits).tolist():
            d = np.array(D[k].T.astype(np.int64).tolist(), dtype=object)
            if _is_witness(d, target):
                letter, exponent, rest = (np.concatenate(a).tolist() for a in zip(*levels))
                word, i = [], len(rest) - len(X) + k
                while i > 0:  # the transposed product's syllables, leftmost first
                    word.append((alphabet[letter[i]], exponent[i]))
                    i = rest[i]
                u = (d + np.eye(n, dtype=int)).tolist()
                return CuspWitness(word=tuple(reversed(word)), unipotent=tuple(map(tuple, u)))
    return None


def _is_witness(d, v):
    """Whether d = u - id (Python ints) is nilpotent with v in im(d).

    The prefilter has already decided d v = 0 and d != 0 exactly; with these,
    u is a unipotent other than id and v lies in ker(u - id) & im(u - id).
    """
    power = d
    for _ in range(len(d) - 1):
        power = power @ d
    if any(power.ravel()):
        return False  # not unipotent
    cols = d.T.tolist()
    return _rank(cols + [v]) == _rank(cols)


# --- auxiliary representations ----------------------------------------------------


def sym_cube(g):
    """Third symmetric power of a 2x2 matrix in the weight-orthonormal basis.

    Basis (x^3, sqrt3 x^2 y, sqrt3 x y^2, y^3): rotations map to orthogonal
    matrices and diag(l, 1/l) to diag(l^3, l, 1/l, 1/l^3).
    """
    a, b, c, d = np.ravel(np.asarray(g, dtype=float))
    r3 = math.sqrt(3.0)
    return np.array(
        [
            [a**3, r3 * a * a * b, r3 * a * b * b, b**3],
            [r3 * a * a * c, a * a * d + 2 * a * b * c, b * b * c + 2 * a * b * d, r3 * b * b * d],
            [r3 * a * c * c, b * c * c + 2 * a * c * d, a * d * d + 2 * b * c * d, r3 * b * d * d],
            [c**3, r3 * c * c * d, r3 * c * d * d, d**3],
        ]
    )

