"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a shared host whose speed drifts: a fixed piece of
Python work can take 27 ms in one stretch of seconds and 45 ms in the
next, as other guests load the host's cores and caches.  To tell that
drift from a change to operadlab, a run times a fixed kernel about every
EVERY_S of CPU time, also in the middle of long calls into operadlab
(from a SIGPROF handler), and after timed calls; it scales each call's
time by how fast the kernel ran during it and right before and after
it.

The kernel is the benchmark's own code, not operadlab's, and its input is
a constant: no change to the program can move it.  It does the kind of
work operadlab does, in the same interpreter: exact rational elimination
on sparse dictionary rows, and sums of terms keyed by tuples.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
from fractions import Fraction
from time import perf_counter, thread_time

# median CPU seconds of one kernel() on the reference machine (2 vCPUs,
# x86-64, Python 3.11); a scaled time is in seconds of that machine
REFERENCE_S = 0.0157
# CPU seconds between two kernel timings, kernel included
EVERY_S = 0.25
# a timed call is followed by a kernel timing unless one ended less than
# this many CPU seconds before, so each call has a timing right after it
# or shares one with its neighbours
GAP_S = 0.05
ROWS, COLS = 16, 18


def _matrix() -> list:
    rng = random.Random(20160922)
    rows = []
    for _ in range(ROWS):
        row = {}
        for c in rng.sample(range(COLS), 6):
            row[c] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        rows.append(row)
    return rows


def _eliminate(rows: list) -> int:
    """Rank of the rows, by reduction to echelon form."""
    rows = [dict(r) for r in rows]
    rank = 0
    for col in range(COLS):
        pivot = next((i for i in range(rank, len(rows)) if rows[i].get(col)), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        prow = {c: v * inv for c, v in rows[rank].items()}
        rows[rank] = prow
        for i in range(len(rows)):
            f = rows[i].get(col) if i != rank else None
            if not f:
                continue
            row = rows[i]
            for c, v in prow.items():
                s = row.get(c, 0) - f * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        rank += 1
    return rank


def _combine(n: int) -> int:
    """Sum of products of two sums of tuple-keyed terms."""
    left = {(i, i % 7, (i * 3) % 5): Fraction(i % 5 + 1, i % 3 + 1) for i in range(n)}
    right = {(i % 11, i % 4): Fraction(1 - 2 * (i % 2)) for i in range(n // 4)}
    out: dict = {}
    for (a, b, c), x in left.items():
        for (d, e), y in right.items():
            key = (a + d, b * e, c)
            out[key] = out.get(key, 0) + x * y
    return len(out)


MATRIX = _matrix()
RANK = _eliminate(MATRIX)
TERMS = _combine(64)


def kernel() -> None:
    if _eliminate(MATRIX) != RANK or _combine(64) != TERMS:
        raise AssertionError("calibration kernel gave another answer")


class Calibration:
    """Kernel timings of one run, on the CPU-time axis of the thread.

    The benchmark and operadlab run on one thread, so its CPU time is the
    process's.  The process clock would do as well, but the kernel reads
    it only to scheduler-tick precision (4 ms on the reference machine)
    while a process-wide CPU timer such as ITIMER_PROF is armed.

    Between :meth:`start` and :meth:`stop` a SIGPROF timer times the
    kernel every EVERY_S of CPU time, wherever the process is, so long
    calls into operadlab get timings from inside them.  :meth:`inside`
    gives the time those timings took within an interval, which the
    caller takes off the interval; :meth:`factor` gives the interval's
    scale to the reference machine."""

    def __init__(self):
        self.starts: list = []  # thread_time() at each kernel start
        self.cpu: list = []  # its CPU seconds
        self.wall: list = []  # its wall seconds
        self._end = float("-inf")  # thread_time() at the last kernel end
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        # the kernel makes no reference cycles; a collection of the
        # program's heap inside it would time the heap, not the machine
        enabled = gc.isenabled()
        gc.disable()
        try:
            w0, t0 = perf_counter(), thread_time()
            kernel()
            t1 = self._end = thread_time()
            self.starts.append(t0)
            self.cpu.append(t1 - t0)
            self.wall.append(perf_counter() - w0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)
        self.sample()

    def follow(self) -> None:
        """Called after each timed call."""
        if thread_time() - self._end >= GAP_S:
            self.sample()

    def inside(self, t0: float, t1: float) -> tuple[float, float]:
        """(CPU, wall) seconds of the kernel timings that started in
        [t0, t1).  A timing runs whole, between two bytecodes of the
        interrupted code, so it lies wholly inside or outside."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return sum(self.cpu[lo:hi]), sum(self.wall[lo:hi])

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed of the reference machine relative to this one over
        [t0, t1): from the timings inside it and the nearest one on each
        side."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        near = self.cpu[max(lo - 1, 0):hi + 1]
        return sum(REFERENCE_S / c for c in near) / len(near)
