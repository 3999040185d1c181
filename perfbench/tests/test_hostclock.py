import signal
import time

import pytest

from hostclock import NOMINAL_TICK_S, HostClock


def clock_with(ticks):
    clock = HostClock()
    clock.starts = [a for a, _ in ticks]
    clock.ends = [b for _, b in ticks]
    return clock


def test_host_at_half_speed_halves_the_reading():
    slow = 2 * NOMINAL_TICK_S
    clock = clock_with([(0.0, slow), (1.0, 1.0 + slow), (2.0, 2.0 + slow)])
    # the ticks at 1.0 and 2.0 ran inside [0.5, 2.5]; the one at 0.0 did not
    assert clock.busy(0.5, 2.5) == pytest.approx(2.0 - 2 * slow)
    assert clock.speed(0.5, 2.5) == pytest.approx(0.5)
    assert clock.seconds(0.5, 2.5) == pytest.approx((2.0 - 2 * slow) / 2)


def test_interval_without_ticks_reads_the_last_earlier_tick():
    clock = clock_with([(0.0, NOMINAL_TICK_S), (1.0, 1.0 + 4 * NOMINAL_TICK_S)])
    assert clock.busy(0.2, 0.3) == pytest.approx(0.1)
    assert clock.speed(0.2, 0.3) == pytest.approx(1.0)
    assert clock.speed(1.1, 1.2) == pytest.approx(0.25)


def test_ticks_run_during_the_block_and_are_subtracted():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) >= 4
    ticking = sum(b - a for a, b in zip(clock.starts, clock.ends) if start <= a and b <= end)
    assert clock.busy(start, end) == pytest.approx(end - start - ticking)
    assert 0 < clock.busy(start, end) < end - start
    assert clock.speed(start, end) > 0
