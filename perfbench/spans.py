"""In-memory spans around calls into hypermono's layers, patched in from outside.

``Tracer.patched()`` replaces each function in ``TARGETS`` by a wrapper that
records a span (name, start, end, parent span, job id), the counts its
counter reads off the call's arguments and result, and the time the wrapper
itself spent outside the call (the tracing overhead).  Each function is wrapped
where its caller looks it up: ``lyapunov_mc`` reaches ``geodesic_sample``
through the ``dynamics`` namespace, so that is where it is wrapped.  The
package's source is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from words import reduced_word_count


def _events(args, result):
    return {"events": len(result.events)}


def _ball(args, result):
    alphabet = args["alphabet"] or list(args["gen_mats"])
    orders = [args["orders"].get(s, math.inf) for s in alphabet]
    return {"words": len(result), "reduced_words": reduced_word_count(orders, args["L"])}


def _samples(args, result):
    return {"samples": len(result), "ball_words": len(args["ball"])}


def _lyapunov(args, result):
    lam = list(result.exponents)
    return {
        "kept": args["n_traj"] - result.n_discarded,
        "ntraj": args["n_traj"],
        "sym_resid": max(abs(a + b) for a, b in zip(lam, reversed(lam))),
    }


def _cusp_words(args, result):
    # the search examines every reduced word of length <= L only when it finds no witness
    orders = [args["orders"].get(s, math.inf) for s in args["gen_mats"]]
    return {"words": reduced_word_count(orders, args["L"]) if result is None else 0}


# (module, attribute, span name, counter)
TARGETS = (
    ("hypermono.monodromy", "build_rep", "monodromy.build_rep", None),
    ("hypermono.monodromy", "MonodromyRep.standardized", "monodromy.standardized", None),
    ("hypermono.fuchsian", "build_domain", "fuchsian.build_domain", None),
    ("hypermono.dynamics", "geodesic_sample", "fuchsian.geodesic_sample", _events),
    ("hypermono.dynamics", "enumerate_ball", "dynamics.enumerate_ball", _ball),
    ("hypermono.dynamics", "anosov_certificate", "dynamics.anosov_certificate", None),
    ("hypermono.dynamics", "limit_curve_samples", "dynamics.limit_curve_samples", _samples),
    ("hypermono.dynamics", "lyapunov_mc", "dynamics.lyapunov_mc", _lyapunov),
    ("hypermono.dynamics", "rational_limit_classify", "dynamics.rational_limit_classify", _cusp_words),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    job: str
    counts: dict = field(default_factory=dict)
    overhead: float = 0.0  # wrapper time outside the wrapped call: bookkeeping and counters

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, job=None):
        parent = self._open[-1] if self._open else None
        if job is None:
            job = self.spans[parent].job if parent is not None else ""
        s = Span(name, time.perf_counter(), math.nan, parent, job)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name) as s:
                called = time.perf_counter()
                result = fn(*args, **kwargs)
                returned = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                s.counts.update(counter(bound.arguments, result))
            s.overhead = (called - entered) + (time.perf_counter() - returned)
            return result

        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every function in TARGETS for the duration of the block."""
        saved = []
        try:
            for module, attr, name, counter in TARGETS:
                *path, leaf = attr.split(".")
                owner = importlib.import_module(module)
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def self_times(self, length=lambda s: s.duration):
        """Each span's length minus the length of its child spans."""
        lengths = [length(s) for s in self.spans]
        child = [0.0] * len(self.spans)
        for s, n in zip(self.spans, lengths):
            if s.parent is not None:
                child[s.parent] += n
        return [n - c for n, c in zip(lengths, child)]

    def job_spans(self, job, length=lambda s: s.duration):
        """(span, self time) pairs of one job."""
        return [(s, t) for s, t in zip(self.spans, self.self_times(length)) if s.job == job]
