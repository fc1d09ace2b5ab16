"""The machine's speed, sampled while the program runs.

The benchmark runs on a few cores of a shared host, and the load of its
other tenants moves the speed of pure-Python code by a quarter and more,
both within seconds and over minutes: a fixed loop timed in 10-s windows
took from 23 to 39 ms over one hour.  A median over the rounds of one run
removes bursts, but not a drift that lasts the whole run, so two runs of
the same code minutes apart can differ by more than any useful bound.

So every timed interval is also measured in reference seconds.  While an
operation runs, a timer interrupts it every ``PERIOD_S`` and times one
call of ``reference()``, a fixed pure-Python loop of the benchmark's own
(tuple keys, dict updates, integer arithmetic mod a prime, the kind of work
the program does); a few calls more are timed just before and just after
the interval.  The interval's wall time, less the time the samples took
inside it, is scaled by ``NOMINAL_S / r``, where ``r`` is the median of the
samples nearest in time (see ``Interval``): the time the interval would
have taken on a machine where ``reference()`` takes ``NOMINAL_S``.  Load
that slows the program slows the reference loop in about the same
proportion, so the ratio stays; a change to the program moves the numerator
only.

Python runs a signal handler between bytecodes of the main thread, so the
samples fall inside the program's own loops, about evenly in time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.025         # one reference sample per 25 ms of an operation
NOMINAL_S = 0.001        # reference seconds: reference() takes this long
BRACKET = 3              # samples just before and just after an interval
LOCAL = 4                # a slice is scaled by the samples this near to it


def reference():
    """A fixed piece of pure-Python work, about 1 ms on a 2-vCPU host."""
    table = {}
    acc = 1
    for i in range(2200):
        key = (i % 7, i % 11, i % 13)
        acc = (acc * 31 + i) % 32003
        table[key] = (table.get(key, 0) + acc) % 32003
    return len(table)


class Sampler:
    """Reference samples ``(end, duration)`` in the order they were taken."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference()
            end = time.perf_counter()
            self.samples.append((end, end - start))
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def bracket(self):
        for _ in range(BRACKET):
            self.sample()

    def mark(self):
        return len(self.samples)

    def spent(self, first, last):
        """Time the samples ``first..last-1`` took."""
        return sum(d for _, d in self.samples[first:last])

    def reference_s(self, first, last):
        """Median sample among ``first..last-1``."""
        return statistics.median(d for _, d in self.samples[first:last])


class Interval:
    """One timed interval: ``with Interval(sampler) as iv: ...`` then
    ``iv.elapsed_s`` (its wall time), ``iv.wall_s`` (less the samples taken
    inside it) and ``iv.seconds`` (``wall_s`` in reference seconds).

    The samples inside cut the interval into slices; each slice is scaled by
    the median of the ``2 * LOCAL + 1`` samples nearest to it (the brackets
    included), so that the load can change while the interval runs."""

    def __init__(self, sampler):
        self.sampler = sampler

    def __enter__(self):
        s = self.sampler
        self._around = s.mark()
        s.bracket()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        s = self.sampler
        s.bracket()
        around = s.samples[self._around:]
        durations = [d for _, d in around]
        # the samples that lie inside, each with its index in ``around``;
        # the last slice ends at ``end``, next to the first sample after it
        cuts = [(i, e - d, e) for i, (e, d) in enumerate(around) if e - d >= self._start and e <= end]
        cuts.append((next(i for i, (e, _) in enumerate(around) if e > end), end, end))
        begin = self._start
        self.wall_s = self.seconds = 0.0
        for i, cut_start, cut_end in cuts:
            local = statistics.median(durations[max(0, i - LOCAL):i + LOCAL + 1])
            self.wall_s += cut_start - begin
            self.seconds += scaled(cut_start - begin, local)
            begin = cut_end
        self.elapsed_s = end - self._start
        return False


def scaled(wall_s, reference_s):
    """``wall_s`` in reference seconds, at the median sample ``reference_s``."""
    return wall_s * NOMINAL_S / reference_s
