"""Host speed, sampled with a short reference loop, to time jobs on a shared machine.

The benchmark's host is a small VM whose CPUs are shared with other tenants.
At times a fixed pure-Python loop runs up to twice as slowly, for seconds or
minutes, with no steal time reported: the core itself is slower.  A
wall-clock time then says as much about the neighbours as about the program.

``HostClock`` samples the speed of the CPU the program runs on.  While it is
active, a timer signal interrupts the process every ``PERIOD_S`` and runs a
fixed loop (``tick``, about a millisecond) between two bytecodes of whatever
runs, timing it.  ``NOMINAL_TICK_S`` over a tick's length is the host's speed
at that moment: 1 on a quiet host, 0.6 when the core runs at 60%.  The time
of an interval is then read as quiet-host seconds: its wall time minus the
ticks inside it, times the mean speed of those ticks.  When the host slows,
the job and the ticks slow together and the figure stays put; when the
program does more work, the ticks keep their length and the figure grows.
The ticks cost about 2% of the run and are subtracted.
"""

from __future__ import annotations

import bisect
import functools
import signal
import time
from fractions import Fraction
from itertools import accumulate
from statistics import fmean

NOMINAL_TICK_S = 0.0011  # a tick on the 2-vCPU host of README.md when it is quiet
PERIOD_S = 0.05


def tick():
    """About a millisecond of interpreter work: Fraction sums, dict and tuple churn."""
    table = {}
    for _ in range(3):
        total = Fraction(0)
        for i in range(1, 160):
            total += Fraction(i % 7 + 1, i)
            table[i % 64] = (total.numerator % 97, i * i)
    return len(table)


class HostClock:
    """Context manager: samples the host's speed while the block runs.

    Only one may be active in a process, and only in its main thread (it
    owns SIGALRM).  Read it after the block ends.
    """

    def __init__(self):
        self.starts = []  # perf_counter times of every tick, in order
        self.ends = []
        self._saved = None

    def __enter__(self):
        self._tick()  # so that every interval has a tick at or before it
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _tick(self, *signal_args):
        start = time.perf_counter()
        tick()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    @functools.cached_property
    def _spent(self):
        """_spent[k]: time spent in the first k ticks."""
        return [0.0, *accumulate(b - a for a, b in zip(self.starts, self.ends))]

    def _inside(self, start, end):
        """Index range of the ticks that ran wholly inside [start, end]."""
        i = bisect.bisect_left(self.starts, start)
        return i, max(i, bisect.bisect_right(self.ends, end))

    def busy(self, start, end):
        """Wall time of [start, end] (``perf_counter`` times) not spent ticking."""
        i, j = self._inside(start, end)
        return end - start - (self._spent[j] - self._spent[i])

    def speed(self, start, end):
        """Mean host speed over [start, end]; the last earlier tick's if none ran inside."""
        i, j = self._inside(start, end)
        if i == j:
            i, j = i - 1, i
        return fmean(NOMINAL_TICK_S / (b - a) for a, b in zip(self.starts[i:j], self.ends[i:j]))

    def seconds(self, start, end):
        """Time of [start, end] in quiet-host seconds."""
        return self.busy(start, end) * self.speed(start, end)
