"""Host-speed reference for the omegacount benchmark.

On a virtual machine that shares its hardware, the speed of the host
swings by up to a factor of two over seconds to minutes, so the wall
time of a fixed piece of work does not repeat from run to run.
`RefSampler` times a fixed pure-Python task, `reference_task`, every
REF_EVERY_S seconds of a run from a SIGALRM handler.  The handler runs in the benchmark's own thread,
between two bytecodes of whatever runs at the time, so the samples fall
inside the timed library calls as well as between them and see the host
as those calls saw it.  The time spent in the handler is kept in
`spent_s`, so a caller can take it out of the call it interrupted.

The end-to-end `wall_ref` is the mean timed time of a pass divided by the
mean sample.  Means, not medians: when the host spends a share p of a run
slow by a factor k, both means grow by the same factor 1 + p(k - 1), and
the ratio stays put whatever p is.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array

REF_EVERY_S = 0.1
REF_STEPS = 9


def _successor(state: int, counter: int, delta: int, step: int) -> tuple[int, int]:
    return (state * 31 + delta + step) % 97, counter + delta


def reference_task() -> int:
    """A fixed piece of work of the kinds the library does, in three equal
    parts: a breadth-first frontier of (state, counter) tuples kept in sets
    with one call per successor, a list of step-like tuples built and read,
    and a dict keyed by (state name, letter) pairs.  A mix, because no one
    loop slows down on this host exactly as the library does.  It calls no
    library code, so a change to the library does not change it.  About
    5 ms on a 2.0 GHz Xeon."""
    frontier = {(0, 0)}
    total = 0
    for step in range(REF_STEPS):
        nxt = set()
        for state, counter in frontier:
            for delta in (-1, 0, 1):
                if 0 <= counter + delta <= 20:
                    nxt.add(_successor(state, counter, delta, step))
        frontier = nxt
        total += len(frontier)
    steps = [(i, (i % 97, i % 13), "a") for i in range(6000)]
    for s in steps[::3]:
        total += s[1][0]
    table = {}
    for i in range(3000):
        table[("q%d" % (i % 500), i % 7)] = (i, (i % 13,))
    return total + len(table)


class RefSampler:
    """Samples reference_task's time through a run, on a SIGALRM timer."""

    def __init__(self, every_s: float = REF_EVERY_S):
        self.every_s = every_s
        self.samples = array("d")   # reference_task times, seconds
        self.spent_s = 0.0          # time inside the handler, in total
        self._busy = False
        self._running = False
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:              # an alarm that came during a sample
            return
        self._busy = True
        start = time.perf_counter()
        # a collection the sample's allocations would set off is the
        # library's garbage, not the sample's time: leave it to the library
        collecting = gc.isenabled()
        gc.disable()
        reference_task()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self._busy = False
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        """Stop the timer; safe to call again, or without start()."""
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.samples:
            self.sample()

    def mean_s(self) -> float | None:
        return statistics.fmean(self.samples) if self.samples else None
