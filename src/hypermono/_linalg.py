"""Small shared linear-algebra helpers (null spaces, normalization, ranks, gaps)."""

from __future__ import annotations

import os
import threading

import numpy as np

SIGN_TOL = 1e-12
RANK_RTOL = 1e-9  # singular values at or below RANK_RTOL * s[0] count as zero
SVD_CHUNK = 8192  # matrices per np.linalg.svd call of singular_gaps


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


def singular_gaps(mats, top):
    """alpha_1-gaps log s0 - log s1 of an (N, n, n) stack, as an ordered stream of chunks.

    Returns a generator of ``(gaps, tops)``, one pair per chunk of
    ``SVD_CHUNK`` matrices in stack order: ``tops`` is the chunk's top
    left-singular vectors ``u[:, :, 0]`` when ``top`` is true (a full SVD),
    else None (singular values only).  The two modes differ in the last bits of
    some gaps.  Each matrix's SVD is its own LAPACK call, so the bits are those
    of one ``np.linalg.svd`` over the whole stack.

    The chunks are computed ahead from the moment of the call: one worker
    thread per further CPU of the process's affinity mask (numpy releases the
    GIL in the SVD) claims them in stack order, one ``np.linalg.svd`` call
    each.  The consumer takes chunk i in order; when no worker has claimed it,
    the consumer computes it itself, and while a worker is still on it, the
    consumer computes the next unclaimed chunk.  A stack of one chunk starts no
    thread.  An exception of a chunk is raised when the consumer reaches that
    chunk, after every thread has ended; closing the generator, or reaching its
    end, also ends every thread.
    """
    chunks = _gap_chunks(mats, top)
    next(chunks)  # runs to the first yield: the workers start now
    return chunks


def _gap_chunks(mats, top):
    n_chunks = -(-len(mats) // SVD_CHUNK)
    svds = [None] * n_chunks  # each chunk's np.linalg.svd, or the exception it raised
    done = [threading.Lock() for _ in range(n_chunks)]  # released once svds[i] is set
    for d in done:
        d.acquire()
    claims, lock = iter(range(n_chunks)), threading.Lock()

    def claim():
        with lock:  # each chunk goes to one thread, in stack order
            return next(claims, None)

    def run(i):
        try:
            svds[i] = np.linalg.svd(mats[i * SVD_CHUNK:(i + 1) * SVD_CHUNK], compute_uv=top)
        except Exception as exc:  # the consumer raises it in chunk order, and still gets done[i]
            svds[i] = exc
        done[i].release()

    def work():
        while (i := claim()) is not None:
            run(i)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = [threading.Thread(target=work) for _ in range(min(cpus or 1, n_chunks) - 1)]
    for t in threads:
        t.start()
    try:
        yield
        for i in range(n_chunks):
            while not done[i].acquire(blocking=False):
                if (j := claim()) is None:  # every chunk is claimed: wait for chunk i
                    done[i].acquire()
                    break
                run(j)
            svd, svds[i] = svds[i], None
            if isinstance(svd, Exception):
                raise svd
            s = svd[1] if top else svd
            yield np.log(s[:, 0]) - np.log(s[:, 1]), svd[0][:, :, 0] if top else None
    finally:
        with lock:  # no chunk is claimed after this; the workers end after their current one
            for _ in claims:
                pass
        for t in threads:
            t.join()
