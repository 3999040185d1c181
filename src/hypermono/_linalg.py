"""Small shared linear-algebra helpers (null spaces, normalization, ranks, gaps)."""

from __future__ import annotations

import collections
import contextlib
import itertools
import os

import numpy as np

SIGN_TOL = 1e-12
RANK_RTOL = 1e-9  # singular values at or below RANK_RTOL * s[0] count as zero
SVD_CHUNK = 8192  # rows per chunk of row_chunks: one SVD call, one sink block, one write
# a discriminant of symplectic_gaps at or below this times t1^2 is taken in Python ints
COALESCE = 2.0**-20
# the 2x2 minors of a 4x4 matrix: rows i < j by columns k < l, each pair from this list
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def projective_normalize(v):
    """Unit Euclidean norm, first coordinate of absolute value > SIGN_TOL made positive.

    ``v`` is one vector (n,) or a stack of rows (N, n), each row normalized
    alone.  The norm is a stacked matmul on a C-contiguous copy, which gives
    ``np.linalg.norm`` of each row bit for bit; on a strided stack it does not.
    """
    v = np.asarray(v, dtype=float)
    rows = np.ascontiguousarray(v.reshape(-1, v.shape[-1]))
    norm = np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])
    if np.any(norm == 0):
        raise ValueError("cannot normalize the zero vector")
    rows = rows / norm[:, None]
    lead = rows[np.arange(len(rows)), np.argmax(np.abs(rows) > SIGN_TOL, axis=1)]
    rows[lead < 0] *= -1.0
    return rows.reshape(v.shape)


def _rank_cut(s):
    """Number of singular values ``s`` (nonincreasing) above ``RANK_RTOL * s[0]``.

    The count is 0 when ``s`` is empty or ``s[0]`` is 0.
    """
    if not s.size or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def numerical_rank(a):
    s = np.linalg.svd(np.asarray(a), compute_uv=False)
    return _rank_cut(s)


def null_space(a):
    """Orthonormal basis of the (numerical) kernel, columns of the result."""
    _, s, vt = np.linalg.svd(np.asarray(a, dtype=float))
    return vt[_rank_cut(s):].T.copy()


def row_chunks(n):
    """The slices of ``SVD_CHUNK`` rows, in order, that cover n rows."""
    return [slice(start, start + SVD_CHUNK) for start in range(0, n, SVD_CHUNK)]


@contextlib.contextmanager
def singular_gaps(mats, top):
    """alpha_1-gaps log s0 - log s1 of an (N, n, n) stack, as an ordered stream of chunks.

    ``with singular_gaps(mats, top) as chunks:`` gives an iterator of
    ``(rows, gaps, tops)``, one triple per chunk of ``row_chunks(N)`` in stack
    order: ``rows`` is the chunk's slice of the stack, and ``tops`` its top
    left-singular vectors ``u[:, :, 0]`` when ``top`` is true (a full SVD),
    else None (singular values only).  The two modes differ in the last bits of
    some gaps.  Each matrix's SVD is its own LAPACK call, so the bits are those
    of one ``np.linalg.svd`` over the whole stack.

    The chunks are computed ahead from the moment the block is entered, one
    ``np.linalg.svd`` call each, by a ``ThreadPoolExecutor`` with one worker
    per CPU of the process's affinity mask (numpy releases the GIL in the
    SVD).  The pool is given the first two chunks per worker on entry, and
    one more each time the consumer takes a chunk, so each worker has at most
    one chunk running and one queued; the consumer only waits for chunk i, in
    order.  One CPU or one chunk starts no thread, and imports no thread pool.
    ``certify`` takes this stream only on a float frame; on exact symplectic
    matrices it takes ``symplectic_gaps``, and ``limitset``, which needs the
    top vectors, always takes this one.
    An exception of a chunk is raised when the consumer reaches that chunk.
    Every exit from the block, before the first chunk, partway or at the end,
    with or without an exception, shuts the pool down once: the queued chunks
    are cancelled and every thread ends after its running chunk.  A chunk is
    freed once it has been yielded.
    """
    rows = row_chunks(len(mats))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(rows))

    def chunk(r):
        result = np.linalg.svd(mats[r], compute_uv=top)
        s = result[1] if top else result
        return r, np.log(s[:, 0]) - np.log(s[:, 1]), result[0][:, :, 0] if top else None

    if workers < 2:
        yield map(chunk, rows)
        return
    from concurrent.futures import ThreadPoolExecutor  # about 5 ms, paid only here

    pool, pending = ThreadPoolExecutor(workers), iter(rows)

    def stream():
        while futures:
            taken = futures.popleft().result()
            futures.extend(pool.submit(chunk, r) for r in itertools.islice(pending, 1))
            yield taken

    try:
        futures = collections.deque(pool.submit(chunk, r)
                                    for r in itertools.islice(pending, 2 * workers))
        yield stream()
    finally:
        pool.shutdown(cancel_futures=True)


def _exact_invariants(g):
    """(t1, t2) of ``symplectic_gaps`` for one 4x4 matrix of integer floats, in Python ints."""
    g = [[int(x) for x in row] for row in g.tolist()]
    t1 = sum(x * x for row in g for x in row)
    t2 = sum((g[i][k] * g[j][l] - g[i][l] * g[j][k]) ** 2 for i, j in _PAIRS for k, l in _PAIRS)
    return t1, t2


def symplectic_gaps(mats):
    """alpha_1-gaps log s0 - log s1 of an (N, 4, 4) stack of exact integer matrices that
    preserve ``STANDARD_J4`` exactly, one ``(rows, gaps)`` pair per chunk of
    ``row_chunks(N)``, in stack order, each computed when it is taken.  No SVD runs.

    ``STANDARD_J4`` is orthogonal, so the singular values of such a g pair as
    s0 >= s1 >= 1/s1 >= 1/s0, and g^T g has the palindromic characteristic
    polynomial x^4 - t1 x^3 + t2 x^2 - t1 x + 1: t1 = ||g||_F^2, and t2 the sum of
    the 36 squared 2x2 minors, taken from the entries (the same t2 as
    (t1^2 - ||g^T g||_F^2) / 2, which cancels).  The z = (s - 1/s)^2 of s0 and s1
    are the roots z+ >= z- of z^2 - u z + v, with u = t1 - 4 and v = t2 - 2 t1 + 2,
    and the gap is asinh(sqrt(z+) / 2) - asinh(sqrt(z-) / 2).  Each term keeps
    its relative accuracy, also at s1 = 1, where v is 0.

    While t1 < 2^52 and t2 < 2^53 the float64 sums are these integers exactly
    (each entry is then below 2^26, so every product and minor is exact), and so
    are u and v; only d = u^2 - 4 v rounds.  A row where d <= ``COALESCE`` t1^2
    (s0 near s1, where that rounding would show), or past those bounds, takes t1
    and t2 in Python ints, and its u, v and d are those integers rounded once.
    Then z+ = (u + sqrt(d)) / 2 and z- = v / z+.  A non-finite matrix raises
    ``np.linalg.LinAlgError``, as the SVD does.
    """
    for rows in row_chunks(len(mats)):
        chunk = mats[rows]
        g = np.ascontiguousarray(chunk.reshape(-1, 16).T).reshape(4, 4, -1)  # g[i, k]: one entry
        t1 = np.einsum("ijn,ijn->n", g, g)
        if not np.isfinite(t1).all():
            raise np.linalg.LinAlgError(f"non-finite matrix in rows {rows.start}..{rows.stop - 1}")
        t2, minor, product = np.zeros_like(t1), np.empty_like(t1), np.empty_like(t1)
        for i, j in _PAIRS:
            for k, l in _PAIRS:
                np.multiply(g[i, k], g[j, l], out=minor)
                minor -= np.multiply(g[i, l], g[j, k], out=product)
                minor *= minor
                t2 += minor
        u, v = t1 - 4.0, t2 - 2.0 * t1 + 2.0
        d = u * u - 4.0 * v
        for r in np.flatnonzero((d <= COALESCE * t1 * t1) | (t1 >= 2.0**52) | (t2 >= 2.0**53)):
            e1, e2 = _exact_invariants(chunk[r])
            eu, ev = e1 - 4, e2 - 2 * e1 + 2
            u[r], v[r], d[r] = float(eu), float(ev), float(eu * eu - 4 * ev)
        z_plus = (u + np.sqrt(d)) / 2.0
        z_minus = np.divide(v, z_plus, out=np.zeros_like(v), where=z_plus > 0)
        yield rows, np.arcsinh(np.sqrt(z_plus) / 2.0) - np.arcsinh(np.sqrt(z_minus) / 2.0)
