"""Checks of the reference-speed clock.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

import signal
import time

import pytest

from clock import PERIOD_S, RefClock


def test_probes_during_the_block_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    with RefClock() as clock:
        time.sleep(4 * PERIOD_S)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.python_s) == len(clock.numpy_s) >= 2
    assert clock.wall_s >= 4 * PERIOD_S
    probed = sum(clock.python_s) + sum(clock.numpy_s)
    assert clock.ref_s == pytest.approx((clock.wall_s - probed) * clock.speed)
    assert clock.speed > 0


def test_a_block_shorter_than_one_period_still_gets_a_speed():
    with RefClock() as clock:
        pass
    assert len(clock.python_s) == 1
    assert clock.speed > 0 and clock.ref_s >= 0.0
