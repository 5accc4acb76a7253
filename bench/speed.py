"""Machine-speed calibration, so that timings do not follow the host's load.

On a shared host the same work runs up to 1.7 times slower for milliseconds
to minutes at a time, and process CPU time slows with it (the cores are
shared below the operating system). A fixed stdlib-only kernel, timed right
before and right after a stretch of requests, slows much the same way: over
six-second windows of a four-minute probe on a loaded 2-core VM, the time of
each workload's requests varied by 8-10 % (coefficient of variation) and its
ratio to the adjacent kernel runs by 2-4 %.

The host also takes the CPU away from the process now and then: on a busy
host, 0.6 ms sandwich requests came back after 2-6 ms of wall time with
under 1 ms of CPU time, often enough to set the tail. The library is
single-threaded and does no I/O, so on a core of its own a request's wall
time would equal its CPU time; a request's latency is therefore taken as its
CPU time, and the kernel is timed in CPU time too. Throughput still counts
wall time, in which such gaps are a small share.

A ``Clock`` runs the kernel at the start, again whenever ``every_s`` of
request time has passed since its last run, and at the end. Each request's
times are scaled by ``KERNEL_REF_S`` over the mean of the kernel times that
bracket it, which gives them in seconds at a fixed reference speed: the
speed at which one kernel run takes ``KERNEL_REF_S``. The kernel does not
touch the library, so a faster library still shows as shorter times.
"""

from __future__ import annotations

from fractions import Fraction
from time import process_time

# median kernel time on the machine the benchmark was written on (2-core
# x86-64 VM, Python 3.11); it sets the scale only, runs are compared with
# each other
KERNEL_REF_S = 0.003
_BIG = 3**2000
_M1279 = (1 << 1279) - 1


def _pick(a: int, b: int) -> int:
    return a + b if a > b else b - a


def kernel() -> int:
    """Fixed work like the library's: Fraction sums, small-integer
    arithmetic, Python calls, big-integer products and remainders, and
    Lucas-Lehmer squarings. In a four-minute probe on a loaded host, this
    mix followed each workload's own requests more closely than any single
    kind of work did, or the mix without the squarings."""
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i * i)
    s = 0
    for i in range(1, 3000):
        s += (i * i * 7919) % (i + 13) // 3
    for i in range(8000):
        s = _pick(s, i) % 1000
    for i in range(1, 301):
        s += (_BIG * i) % 1000003
    x = 4
    for _ in range(200):
        x = x * x - 2
        x = (x & _M1279) + (x >> 1279)
        if x >= _M1279:
            x -= _M1279
    return s + x % 7 + f.numerator % 7


def kernel_s() -> float:
    """CPU time of one kernel run."""
    started = process_time()
    kernel()
    return process_time() - started


class Clock:
    """Scales the times of a sequence of requests to the reference speed."""

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.points: list[tuple[int, float]] = []  # (requests before, kernel s)
        self.times: list[tuple[float, ...]] = []
        self._since = 0.0

    def calibrate(self) -> None:
        self.points.append((len(self.times), kernel_s()))
        self._since = 0.0

    def record(self, *times: float) -> None:
        """Times of one request; the first is its wall time."""
        if not self.points:
            self.calibrate()
        self.times.append(times)
        self._since += times[0]
        if self._since >= self.every_s:
            self.calibrate()

    def scaled(self) -> list[tuple[float, ...]]:
        """Every request's times at the reference speed."""
        if not self.points or self.points[-1][0] != len(self.times):
            self.calibrate()
        out = []
        for (start, before), (end, after) in zip(self.points, self.points[1:]):
            factor = KERNEL_REF_S / ((before + after) / 2)
            out += [tuple(t * factor for t in times) for times in self.times[start:end]]
        return out
