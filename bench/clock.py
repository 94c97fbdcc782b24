"""Host seconds scaled to a fixed reference host speed.

A small shared host does not run at one speed: with other tenants busy,
the same run of the same inputs takes up to 1.6 times as long, in
phases from seconds to minutes, with no steal time and no hardware
counters visible in the guest.  Raw wall times then spread more across
runs than any regression worth catching.

:class:`RefClock` times a block and, while the block runs, probes the
host's speed every :data:`PERIOD_S` from a ``SIGALRM`` handler in the
same thread: a fixed pure-Python loop and a fixed series of small NumPy
calls — the two kinds of work the program does.  The block's time at
the reference speed is its wall time, less the probes, times the host's
speed relative to the reference (the geometric mean of the two probes'
mean speed ratios).  A slower program reads slower at any host speed;
a slower host does not.
"""

from __future__ import annotations

import math
import signal
import time
from typing import List, Optional

import numpy as np

__all__ = ["PERIOD_S", "RefClock", "probe"]

#: Seconds between two probes (about 1 % of the host's time goes to them).
PERIOD_S = 0.05
#: Probe times of the reference speed: those of a 2-vCPU Xeon VM
#: (Python 3.11, NumPy 2.4) in a quiet phase.  Any fixed values would
#: do; these make reference seconds close to that host's wall seconds.
REF_PYTHON_S = 0.45e-3
REF_NUMPY_S = 0.10e-3

_VECTOR = np.linspace(0.0, 1.0, 64)


def probe() -> "tuple[float, float]":
    """Seconds of the fixed pure-Python loop and of the NumPy calls.

    Keeps no object the garbage collector tracks, so probing does not
    move the program's collections.
    """
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += (i * i) ^ (total & 0xFFFF)
    middle = time.perf_counter()
    x = _VECTOR
    for _ in range(20):
        x = np.minimum(np.sqrt(x + 1.0), 3.0) * 0.5
    return middle - start, time.perf_counter() - middle


class RefClock:
    """Times a ``with`` block: ``wall_s``, ``speed`` and ``ref_s``.

    Only for the main thread (signal handlers run there); the previous
    ``SIGALRM`` handler is restored on exit.
    """

    def __init__(self) -> None:
        self.python_s: List[float] = []
        self.numpy_s: List[float] = []
        self.wall_s = self.speed = self.ref_s = math.nan
        self._previous: Optional[object] = None

    def _tick(self, signum, frame) -> None:
        python_s, numpy_s = probe()
        self.python_s.append(python_s)
        self.numpy_s.append(numpy_s)

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        work_s = self.wall_s - sum(self.python_s) - sum(self.numpy_s)
        if not self.python_s:
            # A block shorter than one period: probe right after it.
            self._tick(None, None)
        ratios = (
            sum(REF_PYTHON_S / s for s in self.python_s) / len(self.python_s),
            sum(REF_NUMPY_S / s for s in self.numpy_s) / len(self.numpy_s),
        )
        self.speed = math.sqrt(ratios[0] * ratios[1])
        self.ref_s = work_s * self.speed
