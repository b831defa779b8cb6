"""Summary statistics the benchmark reports: medians and tail percentiles.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it; a percentile with fewer samples past it is one or two outliers,
not a tail.  ``tail_percentile`` picks the highest percentile of a fixed
ladder that meets the rule, so a workload with a fixed sample count always
reports the same percentile.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


class TooFewSamples(ValueError):
    """A percentile was requested that too few samples lie beyond."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def samples_beyond(n: int, pct: float) -> int:
    """Samples that lie beyond the ``pct`` percentile of ``n`` samples
    (nearest-rank definition)."""
    rank = math.ceil(pct / 100.0 * n)
    return n - rank


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail with fewer than
    ``MIN_BEYOND`` samples beyond it."""
    n = len(values)
    if n == 0:
        raise TooFewSamples("percentile of no samples")
    beyond = samples_beyond(n, pct)
    if pct > 50.0 and beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {n} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)`` for the highest ladder percentile that has at least
    ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_LADDER:
        if samples_beyond(len(values), pct) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    raise TooFewSamples(
        f"{len(values)} samples: no tail percentile has {MIN_BEYOND} "
        f"samples beyond it")


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------

#: Seconds ``calibration_sample`` takes at the reference speed.  This sets
#: the unit of every reported time; it is about the sample's median on the
#: shared 2-core x86_64 machine the bounds were set on (Python 3.11), so
#: reported times read close to wall times there.
CALIBRATION_REF_S = 0.0022


def _calibration_loop() -> float:
    """A fixed piece of interpreter work (strings, a dict, a sort) that uses
    no code of the program under test."""
    start = time.perf_counter()
    table = {}
    words = []
    for i in range(3000):
        word = "tok%d_%s" % (i % 211, "ab" * (i % 5))
        table[word] = table.get(word, 0) + len(word)
        words.append(word.upper())
    words.sort()
    return time.perf_counter() - start


def calibration_sample() -> float:
    """Median of three calibration loops (about 5 ms)."""
    return statistics.median([_calibration_loop() for _ in range(3)])


def speed(samples: Sequence[float]) -> float:
    """The reference calibration time over the mean of ``samples``: below 1
    when the machine ran slower than the reference.  A time measured
    between the samples, multiplied by it, is in reference-speed seconds."""
    return CALIBRATION_REF_S / statistics.fmean(samples)


#: Seconds between two samples of a started ``Sampler``.
SAMPLE_EVERY_S = 0.2


class Sampler:
    """Calibration samples, and the time taking them took (``seconds``),
    which is to be left out of the measured time.  ``sample()`` takes one;
    between ``start()`` and ``stop()`` one is also taken on every
    ``SIGALRM`` of an interval timer, so work that runs for seconds is
    scaled by the speed the machine ran at throughout it."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.seconds = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_sample())
        self.seconds += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
