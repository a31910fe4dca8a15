"""Host speed sampled while a pass runs.

The benchmark runs on a few vCPUs of a shared host, and the host runs
a vCPU up to twice as slowly for stretches of a fraction of a second
to minutes (NOTES.md, finding (c)).  A wall-clock timing therefore
mixes the program's cost with the host's phase.  This module measures
the phase in the same process, on the same vCPU, while the program
runs: every ``INTERVAL_S`` a ``SIGALRM`` handler times one call of a
fixed pure-Python kernel.  The handler runs on the main thread between
bytecodes, so it holds the vCPU the program holds.

``slowdown(samples)`` compares the kernel times of an interval with
``REFERENCE_S``.  A timing divided by the slowdown of its own interval
reads in seconds at the reference speed, whatever phase the host was
in; ``run.py`` reports those and prints the raw timings beside them.

Only ``signal`` and ``time`` are imported, so ``child.py`` can start
sampling before ``import repro.cli`` and cover the cold start too.
"""

import signal
import time

#: Seconds between samples.  The kernel takes about 2% of it.
INTERVAL_S = 0.01

#: The reference speed: about the kernel's time in the handler on the
#: development host (x86_64, Python 3.11) in a calm phase, so that
#: normalised timings read close to wall seconds there.  It is a fixed
#: unit; changing it rescales every normalised timing.
REFERENCE_S = 160e-6

#: Samples above this multiple of the median are dropped: the kernel
#: was preempted or interrupted, which says nothing about speed.
OUTLIER_FACTOR = 3.0


def kernel():
    """A fixed pure-Python loop: dict updates and integer arithmetic."""
    table = {}
    total = 0
    for i in range(800):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += key * 3
    return total


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` on the main thread."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def _tick(self, signum, frame):
        # The next SIGALRM can arrive while the handler still runs.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, t_start, t_end):
        """Kernel seconds of the samples taken in ``[t_start, t_end)``."""
        return [dt for t, dt in self.samples if t_start <= t < t_end]


def slowdown(samples):
    """How many times slower than the reference the host ran.

    The harmonic mean of the kernel times over ``REFERENCE_S``: with
    samples evenly spaced in time, the work a program gets done is the
    time integral of the host's speed, the mean of ``REFERENCE_S / dt``.
    An arithmetic mean would overstate the slowdown whenever the host
    switches phases within the interval.
    """
    if not samples:
        return 1.0
    ordered = sorted(samples)
    cap = OUTLIER_FACTOR * ordered[len(ordered) // 2]
    kept = [dt for dt in ordered if dt <= cap]
    return len(kept) / sum(REFERENCE_S / dt for dt in kept)
