"""Machine-speed calibration for the benchmark's end-to-end times.

On the shared 2-core virtual machine the baseline was measured on, other
tenants change this process's speed by up to 1.8x, in swings that last from
about a second to minutes; raw wall times of 30-second runs spread by up to
23% between runs, and their medians moved by up to 21% from one set of ten
runs to the next (BASELINE.md).  So every end-to-end time is reported on a
reference scale: the op's wall time times CAL_REF_S over the mean time of a
fixed calibration loop measured at the op's boundaries (and, within an
oracle pass, between its calls).  The loop runs no ``adl`` code, so no change
to the package can move it.  CAL_REF_S is about what the loop takes on that
machine when it is quiet, so reference seconds read close to quiet-machine
wall seconds.  The wall-clock figures stay on each run's detail line.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

CAL_REF_S = 0.010


@dataclass(frozen=True)
class _Pair:
    a: tuple
    b: tuple

    def __post_init__(self) -> None:
        if len(self.a) > 64:
            raise ValueError("unreachable")


def _common_prefix(u: tuple, v: tuple) -> int:
    n = 0
    for x, y in zip(u, v):
        if x != y:
            break
        n += 1
    return n


def calibration_loop() -> int:
    """Fixed pure-Python work in roughly the mix of the package's hot paths:
    tuple label paths and sets, frozen dataclass construction, Mersenne
    Twister walks and Fraction arithmetic."""
    acc = 0
    for i in range(1000):
        u = (i % 4, (i >> 2) % 3, (i >> 4) % 3, (i >> 6) % 3)
        v = (i % 4, (i >> 3) % 3, 1)
        k = _common_prefix(u, v)
        path = [u[:j] for j in range(len(u), k, -1)] + [v[:j] for j in range(k, len(v) + 1)]
        acc += len(set(path)) + len(_Pair(u, v).a)
    for i in range(120):
        rng = random.Random(i)
        cur = (rng.randrange(4),)
        for _ in range(5):
            if rng.random() >= 0.5:
                cur = cur + (rng.randrange(3),)
        acc += len(cur)
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, 3 * i + 1) * Fraction(2, i + 5)
    return acc + (total > 0)


class SpeedGauge:
    """Calibration samples taken next to the timed ops of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def mark(self) -> int:
        """Index of the latest sample, to pass to :meth:`scale` after the op."""
        return len(self.samples) - 1

    def scale(self, raw_s: float, since: int) -> float:
        """``raw_s`` wall seconds spent after sample ``since`` in reference
        seconds; the caller has taken a sample right after the op."""
        return raw_s * CAL_REF_S / statistics.fmean(self.samples[since:])
