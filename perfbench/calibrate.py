"""Scale measured times to a reference machine speed.

On a shared machine the same pass can take 30% longer a minute later,
because other tenants compete for the cores; CPU time rises with wall time,
so it cannot tell the two apart.  The benchmark therefore measures the
speed of the machine while it measures ``folmod``: :class:`SpeedSampler`
interrupts the pass every ``INTERVAL_S`` seconds with a timer signal and
times one run of :func:`reference_task`.  A measured interval ``dt`` then
counts as ``dt * REFERENCE_S * mean(1 / r)`` reference seconds, where the
``r`` are the task times sampled in that interval: the time the interval
would take on a machine that runs the task in exactly ``REFERENCE_S``.
The sampling time is taken out of ``dt`` first.

The task does the kind of work ``folmod`` does (``Fraction`` arithmetic,
tuple keys, dictionaries, sorting) and does not use ``folmod``, so no
change to ``folmod`` can move it.  On the 2-core machine this was tuned on,
a trial that timed a longer version of the task before and after each of
89 runs of one k=5 geodesic, over four minutes, cut the quartile spread of
the times from 26% unscaled to 4% scaled.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from statistics import median
from time import perf_counter
from typing import Callable, List, Optional, Tuple

REFERENCE_S = 0.004
"""Seconds the reference task takes on the reference machine, by definition."""

INTERVAL_S = 0.1

REPEATS = 9
"""Runs of the task behind one stand-alone speed measurement."""


def reference_task() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        key = (i % 31, i % 37)
        table[key] = table.get(key, Fraction(0)) + f
    for _, value in sorted(table.items()):
        acc -= value
    return acc


def reference_seconds() -> float:
    """Median seconds of ``REPEATS`` runs of the reference task."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        reference_task()
        times.append(perf_counter() - start)
    return median(times)


class SpeedSampler:
    """Times the reference task on a timer signal while it is running.

    ``on_sample(seconds)`` is called after each sample with the seconds the
    sample took, so a tracer can leave them out of the call they interrupted.
    """

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None):
        self.samples: List[Tuple[float, float]] = []  # (start, seconds)
        self._on_sample = on_sample
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        reference_task()
        took = perf_counter() - start
        self.samples.append((start, took))
        if self._on_sample is not None:
            self._on_sample(took)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unscaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` not spent sampling."""
        return end - start - sum(took for at, took in self.samples if start <= at < end)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``.

        An interval too short to hold a sample is scaled by the samples of
        the whole run.
        """
        inside = [took for at, took in self.samples if start <= at < end]
        speeds = inside or [took for _, took in self.samples] or [reference_seconds()]
        return self.unscaled(start, end) * REFERENCE_S * sum(1 / r for r in speeds) / len(speeds)
