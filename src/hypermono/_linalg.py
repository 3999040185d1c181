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
