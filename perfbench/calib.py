"""The host's speed, read from a fixed loop, so that times can be scaled to it.

The shared hosts this benchmark runs on change speed by up to 1.7x, in
phases that last from tens of milliseconds to minutes, and CPU time
follows wall time through them. A time measured in one phase cannot be
compared with one from another. So the benchmark reads the host's speed
from a fixed pure-Python loop, `_loop`, and reports each time scaled to a
reference speed:

    ref_s = wall_s * mean(REFERENCE_S / loop time, over the readings
                          inside the interval and the nearest on each side)

`ref_s` is the time the interval would have taken on a host where the loop
takes REFERENCE_S. The loop uses no gmcat code, so a change to gmcat moves
`ref_s` exactly as it moves the wall time, while the host's phases cancel.
It does the kind of work gmcat spends its time on: tuple hashing and
comparison, dict lookups, small-object allocation and attribute access.

`Meter` reads the speed in the process that runs the gmcat code: a timer
runs the loop every PERIOD_S, so the readings cover the whole interval,
and the loop's own time is taken out of the interval's wall time. On a
2-core VM, averaging the speed over these readings halved the spread of a
pass's scaled time against two readings at the interval's ends. Readings
from another process, running beside the timed one on the other core,
made the spread wider than no scaling at all.
"""

import gc
import signal
import time

REFERENCE_S = 0.003   # the loop's time on the host the bounds were set on
PERIOD_S = 0.05       # Meter's interval between readings


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _loop():
    table = {}
    total = 0
    for i in range(5000):
        key = (i % 97, (i * 7) % 31, i & 3)
        cell = table.get(key)
        if cell is None:
            table[key] = _Cell(key, i)
        elif cell.key == key:
            total += cell.value
    return total


def _timed_loop():
    """(start, end) of one run of the loop, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return t0, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Reads the host's speed every PERIOD_S from a SIGALRM handler.

    Use it as a context manager around the code to time, and note each
    interval's perf_counter() ends. `times(t0, t1)` then gives the
    interval's wall time without the readings made inside it, and that
    time scaled to the reference speed.
    """

    def __init__(self):
        self.readings = []     # (start, end) of each run of the loop

    def _read(self, signum=None, frame=None):
        self.readings.append(_timed_loop())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._read()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._read()         # every interval has a reading after it
        return False

    def times(self, t0, t1):
        """(wall_s, ref_s) of the interval [t0, t1]."""
        inside = [(a, b) for a, b in self.readings if a >= t0 and b <= t1]
        before = [r for r in self.readings if r[1] <= t0][-1:]
        after = [r for r in self.readings if r[0] >= t1][:1]
        wall = t1 - t0 - sum(b - a for a, b in inside)
        speeds = [REFERENCE_S / (b - a) for a, b in before + inside + after]
        return wall, wall * sum(speeds) / len(speeds)
