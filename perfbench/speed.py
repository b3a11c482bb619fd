"""A speed probe: how fast this machine runs fixed Python work right now.

On a shared host the same code runs up to 1.7 times slower in some minutes
than in others, so raw times of two runs of identical code can differ by more
than any useful regression bound.  The probe times a fixed piece of
pure-Python work (the dict-of-exponent-tuples arithmetic, tuple comparisons
and string building that zeroone spends its time on) every `INTERVAL_S`
seconds from a SIGALRM handler, so it samples the machine's speed during an
invocation as well as between invocations.  A time measured over [t0, t1] is
scaled by ``REFERENCE_S / median(probe times within WINDOW_S of [t0, t1])``:
the time the same work would have taken at the reference speed.

The probe's own time is kept out of every measured interval: measure with
`clock`, which stops while the probe runs.  Garbage collection is off during a
probe, so its time does not depend on the size of the program's heap.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from itertools import combinations
from time import perf_counter

INTERVAL_S = 0.2
WINDOW_S = 1.0
# About the median probe time on a 2-core x86-64 VM with CPython 3.11,
# where it read 3 to 5 ms; it only fixes the scale of the reported times.
REFERENCE_S = 0.0035

_rng = random.Random(1)
_LEFT = {tuple(_rng.randrange(4) for _ in range(6)): _rng.randrange(1, 9) for _ in range(30)}
_RIGHT = {tuple(_rng.randrange(4) for _ in range(6)): _rng.randrange(1, 9) for _ in range(30)}
_WORD = tuple(_rng.sample(range(1, 10), 9))
_PATTERNS = frozenset(tuple(_rng.sample(range(1, 6), 5)) for _ in range(8))


def work() -> int:
    """The fixed work a probe times: a polynomial product, a pattern scan, text."""
    product: dict[tuple[int, ...], int] = {}
    for a, x in _LEFT.items():
        for b, y in _RIGHT.items():
            key = tuple(s + t for s, t in zip(a, b))
            product[key] = product.get(key, 0) + x * y
    found = 0
    for idxs in combinations(range(len(_WORD)), 5):
        values = [_WORD[i] for i in idxs]
        found += tuple(sum(1 for u in values if u <= v) for v in values) in _PATTERNS
    text = " + ".join(f"{c}*x^{e}" for e, c in sorted(product.items()))
    return len(text) + found


class Probe:
    """Periodic speed samples, taken while the block it guards runs."""

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        """perf_counter without the time the probe itself took."""
        return perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        work()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time near [start, end].

        `start` and `end` are perf_counter readings, not `clock` readings.
        """
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        # A probe is taken on entry and on exit, so the closest ones exist.
        near = self.times[lo:hi] or self.times[max(0, lo - 1):lo + 1]
        return REFERENCE_S / statistics.median(near)
