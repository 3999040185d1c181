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
    """alpha_1-gaps log s0 - log s1 of an (N, n, n) stack, and its top left-singular vectors.

    Returns ``(gaps, tops)``: ``tops`` is the (N, n) array ``u[:, :, 0]`` when
    ``top`` is true (a full SVD), else None (singular values only).  The two
    modes differ in the last bits of some gaps.  The stack is cut into chunks of
    ``SVD_CHUNK`` matrices, taken by the calling thread and one worker per
    further CPU of the process's affinity mask (numpy releases the GIL in the
    SVD); each matrix's SVD is its own LAPACK call, so the bits are those of one
    ``np.linalg.svd`` over the whole stack.  A stack of one chunk starts no
    thread.  A ``LinAlgError`` of any chunk is raised after every thread ends.
    """
    gaps = np.empty(len(mats))
    tops = np.empty((len(mats), mats.shape[-1])) if top else None
    starts, lock = iter(range(0, len(mats), SVD_CHUNK)), threading.Lock()

    def work():
        while True:
            with lock:  # each chunk goes to one thread
                i = next(starts, None)
            if i is None:
                return
            chunk = slice(i, i + SVD_CHUNK)
            if top:
                u, s, _ = np.linalg.svd(mats[chunk])
                tops[chunk] = u[:, :, 0]
            else:
                s = np.linalg.svd(mats[chunk], compute_uv=False)
            gaps[chunk] = np.log(s[:, 0]) - np.log(s[:, 1])

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, -(-len(mats) // SVD_CHUNK)) - 1
    if workers < 1:
        work()
        return gaps, tops
    from concurrent.futures import ThreadPoolExecutor  # only a multi-chunk stack pays for it

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(work) for _ in range(workers)]
        work()
        for f in futures:
            f.result()
    return gaps, tops
