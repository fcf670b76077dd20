"""Machine-speed normalisation for timings on a host whose speed drifts.

On the 2-core VM this benchmark was sized on, a fixed piece of work can
take twice as long from one minute to the next. Which kind of code slows
down also changes: at one moment small-ufunc code ran at twice its best
time while plain float arithmetic ran at its best. Raw wall times from
runs made minutes apart differ by more than any regression worth
catching.

The benchmark takes a *slowness* sample right before every request
(every replayed trip for ``stream``, before and after every set-up).
Three small kernels run, one per kind of code the program runs:

* small ufunc chains between scalar steps, the width-4 EKF tick;
* ufunc chains over a 4 x 128 array, the fleet-width batch;
* plain float arithmetic, the streaming filter and the simulator.

Slowness is the geometric mean of each kernel's time divided by its
reference time. Each request's time is divided by the median slowness of
the ``WINDOW`` samples around it. The result is the time the request
would take at reference speed. A single sample jitters by tens of
percent, and the drift is slower than the window.

Over 150 s of drift, dividing fleet passes by slowness cut their
block-to-block variation from 19% to 6% (coefficient of variation).
Dividing by any single kernel left 8-11%. For ``upload`` it cut the
variation from 10% to 6.5%. The samples run outside every timed region.
Raw wall times are kept in each run's context.
"""

from __future__ import annotations

import math
import time

import numpy as np

__all__ = ["REFERENCE_KERNEL_MS", "SpeedProbe", "slowness"]

#: Kernel times [ms] that define the reference speed: each kernel's
#: fast-state time on the reference box (p10 of 200 runs). They are fixed,
#: so numbers stay comparable across commits.
REFERENCE_KERNEL_MS = {"dispatch": 3.5, "wide": 0.95, "scalar": 3.4}
#: Neighbouring samples whose median sets one request's scale.
WINDOW = 9

_SMALL = np.linspace(0.0, 1.0, 16)
_WIDE = np.linspace(0.0, 1.0, 512).reshape(4, 128)


def _dispatch() -> float:
    """Small ufunc chains between scalar steps: the width-4 EKF tick mix."""
    x = _SMALL
    acc = 0.0
    for i in range(1500):
        x = np.sqrt(x * x + 1.0) - 1.0
        acc += math.sqrt(i + acc % 7.0)
    return acc + float(x[0])


def _wide() -> float:
    """Ufunc chains over a 4 x 128 array: the fleet-width batch mix."""
    x = _WIDE
    for _ in range(300):
        x = np.sqrt(x * x + 1.0) - 1.0
    return float(x[0, 0])


def _scalar() -> float:
    """Plain float arithmetic: the streaming filter and simulator mix."""
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i + acc % 7.0)
    return acc


KERNELS = {"dispatch": _dispatch, "wide": _wide, "scalar": _scalar}


def slowness() -> float:
    """Run every kernel once; the geometric mean of time ÷ reference time."""
    log_sum = 0.0
    for name, fn in KERNELS.items():
        t0 = time.perf_counter_ns()
        fn()
        took_ms = (time.perf_counter_ns() - t0) / 1e6
        log_sum += math.log(took_ms / REFERENCE_KERNEL_MS[name])
    return math.exp(log_sum / len(KERNELS))


class SpeedProbe:
    """Slowness samples of one run, and the reference-speed scale they imply."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take one :func:`slowness` sample; return its index."""
        self.samples.append(slowness())
        return len(self.samples) - 1

    def factor_at(self, i: int) -> float:
        """1 ÷ the median slowness in a centred window of ``WINDOW`` samples
        around sample ``i``, truncated at the ends. It is final once
        :attr:`settled` has passed ``i``."""
        half = WINDOW // 2
        return 1.0 / float(np.median(self.samples[max(0, i - half) : i + half + 1]))

    def settled(self, i: int) -> bool:
        """Whether every sample of ``i``'s window has been taken."""
        return len(self.samples) > i + WINDOW // 2

    def overall_factor(self) -> float:
        """1 ÷ the median of every sample."""
        return 1.0 / float(np.median(self.samples))
