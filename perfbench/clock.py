"""Speed-calibrated timing for a shared, noisy CPU.

On a host whose cores are shared with other tenants, the same Python code
can run 50 % slower for tens of seconds at a time, which no amount of
repetition inside a short run averages away.  Two things slow a process
there: waiting for a CPU, and running slower while on one.  Process CPU
time (``time.process_time``) leaves out the first; ``CalibratedClock``
corrects for the second by sampling the momentary speed of the interpreter
while a unit runs: every ``PERIOD_S`` a SIGALRM handler times a fixed
reference loop in CPU time.  CPU time is then converted to *reference
seconds*: each stretch of CPU time between two samples is scaled by
``REF_LOOP_S`` over the mean CPU duration of the loop at its ends, and the
time spent in the handler itself is left out.  On an uncontended core,
where the loop takes about ``REF_LOOP_S``, a reference second is a second
of CPU time.  The reference loop is fixed benchmark code, so a change to
the library moves only the measured work, never the scale.
"""

from __future__ import annotations

import bisect
import signal
from time import process_time

PERIOD_S = 0.02
REF_ITERATIONS = 600
REF_LOOP_S = 0.0003
# Small sets, as the library's simplicial and poset code handles: the loop
# allocates, hashes and inserts them, which slows down under the same kinds
# of contention as that code, while an integer-only loop does not.
_POOL = [frozenset(range(i % 5, i % 5 + 2 + i % 4)) for i in range(256)]


def reference_loop() -> float:
    """Run the fixed reference loop; return its CPU duration in seconds."""
    start = process_time()
    table = {}
    m = 0x9E3779B1
    for _ in range(REF_ITERATIONS):
        m = (m * 1103515245 + 12345) & 0xFFFFFFFF
        table[_POOL[m & 255] | {m & 15}] = (m, m >> 3)
    return process_time() - start


def speed(samples: int = 25) -> float:
    """Reference seconds per CPU second now, from the median of samples."""
    loops = sorted(reference_loop() for _ in range(samples))
    return REF_LOOP_S / loops[len(loops) // 2]


class CalibratedClock:
    """Samples interpreter speed between ``start()`` and ``stop()`` and maps
    ``process_time`` readings taken in between to reference seconds."""

    def __init__(self):
        self._marks: list[tuple[float, float, float]] = []  # (begin, end, loop_s)
        self._ends: list[float] = []
        self._cum: list[float] = []
        self._previous = None

    def _sample(self, *_):
        begin = process_time()
        loop_s = reference_loop()
        self._marks.append((begin, process_time(), loop_s))

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # cumulative reference time at the end of each sample; flat while
        # the handler runs
        total = 0.0
        for j, (_, end, loop_s) in enumerate(self._marks):
            if j:
                prev_end, prev_loop = self._marks[j - 1][1], self._marks[j - 1][2]
                begin = self._marks[j][0]
                total += (begin - prev_end) * 2 * REF_LOOP_S / (prev_loop + loop_s)
            self._ends.append(end)
            self._cum.append(total)

    def reference(self, t: float) -> float:
        """Reference seconds elapsed from the first sample to ``t``."""
        j = bisect.bisect_right(self._ends, t) - 1
        if j < 0:
            return 0.0
        if j == len(self._marks) - 1:
            return self._cum[j]
        begin_next, loop_next = self._marks[j + 1][0], self._marks[j + 1][2]
        t = min(t, begin_next)
        scale = 2 * REF_LOOP_S / (self._marks[j][2] + loop_next)
        return self._cum[j] + (t - self._ends[j]) * scale
