"""Host-speed sampling, to take the shared host's drift out of timings.

The benchmark runs on a few cores of a shared host whose speed drifts
by a factor of up to 1.6 over seconds to minutes, the same for wall and
CPU time. Longer runs do not average that out. So while a timed
section runs, :class:`HostSpeed` runs a fixed probe -- a few
milliseconds of interpreter or array work that shares no code with
the program under test -- every ``PERIOD_S`` seconds from a
``SIGALRM`` handler, and records how long each probe took.
:meth:`HostSpeed.normalize` then turns a raw interval into *reference
seconds*: the interval minus the probes run inside it, each moment
scaled by the probe's reference time over its time nearest to that
moment. A change to the program changes the interval but not the
probes, so it shows in full; a slower host phase stretches both, and
cancels. Eight rounds of
the paper campaign that spanned a shift of the host from a slow to a
fast phase spread 0.42 of their median in wall-clock time and 0.04 in
reference seconds (interquartile range).

Python runs a signal handler between bytecodes only, so a probe never
lands inside a C call (numpy, the C kernel); it waits for it to end.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# about 2 MB of small Python objects, visited in a fixed shuffled order,
# beside a small numpy array: interpreter-bound work
_OBJECTS = [{"key": i, "items": [i]} for i in range(8192)]
_ORDER = np.random.default_rng(0).permutation(len(_OBJECTS)).tolist()
_DATA = np.arange(2048, dtype=np.float64)
# a 1 MB array, more than a core's L2 cache, gathered in a shuffled
# order, summed up and partly sorted: memory-bound array work
_ARRAY = np.random.default_rng(1).random(1 << 17)
_GATHER = np.random.default_rng(2).permutation(len(_ARRAY))
_OUT = np.empty_like(_ARRAY)  # preallocated: fresh 1 MB buffers would time page faults


def _python_unit() -> float:
    s = 0
    for j in _ORDER:
        o = _OBJECTS[j]
        s += o["key"] * o["items"][0] % 7
    x = _DATA
    for _ in range(20):
        x = np.sort(x[::-1] * 1.0001)
    return float(s)


def _array_unit() -> float:
    s = 0.0
    for _ in range(2):
        np.take(_ARRAY, _GATHER, out=_OUT)
        s += float(np.cumsum(_OUT, out=_OUT)[-1])
        s += float(np.argsort(_ARRAY[:16384])[0])
    return s


#: probe kind -> (unit of work, its time in a fast phase of the 2-core
#: Xeon VM the benchmark was defined on)
PROBES = {"python": (_python_unit, 0.0025), "array": (_array_unit, 0.0022)}


def probe(kind: str) -> float:
    """Seconds of one fixed unit of work, run once untimed first so
    that what the program left in the caches does not count, and with
    the garbage collector off so that the program's heap does not."""
    unit = PROBES[kind][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        unit()
        t = time.perf_counter()
        unit()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probes of one kind (a key of ``PROBES``): the one whose work is
    most like the timed program's, so that the host's slow phases slow
    both alike."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.ref_s = PROBES[kind][1]
        self.starts: list[float] = []
        self.durations: list[float] = []  # of the timed unit: the host's speed
        self.costs: list[float] = []  # of the whole probe: time taken from the program
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.durations.append(probe(self.kind))
        self.costs.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._tick(None, None)

    def probe_time(self, a: float, b: float) -> float:
        """Seconds of probing that started inside ``[a, b)``."""
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        return sum(self.costs[lo:hi])

    def normalize(self, a: float, b: float) -> float:
        """The interval ``[a, b)`` in reference seconds, probes excluded.

        Each moment counts at the host speed of the nearest probe in
        time: the median of that probe and its two neighbours, so that
        one disturbed probe does not set a stretch on its own.
        """
        starts, n = self.starts, len(self.starts)
        lo = max(0, bisect.bisect_right(starts, a) - 1)
        hi = min(n, bisect.bisect_left(starts, b) + 1)
        total = 0.0
        for k in range(lo, hi):
            near_lo = -math.inf if k == 0 else (starts[k - 1] + starts[k]) / 2
            near_hi = math.inf if k == n - 1 else (starts[k] + starts[k + 1]) / 2
            program = _overlap(a, b, near_lo, near_hi) - _overlap(a, b, starts[k], starts[k] + self.costs[k])
            total += program * self.ref_s / statistics.median(self.durations[max(0, k - 1) : k + 2])
        return total


def _overlap(a: float, b: float, c: float, d: float) -> float:
    return max(0.0, min(b, d) - max(a, c))
