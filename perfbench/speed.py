"""A fixed speed probe, to take the machine's own speed changes out of timings.

On a shared host the same op can take 1.5 to 1.8 times as long for stretches
of seconds to minutes, as other tenants come and go; a 25-second run then
reads 20-30% slower or faster than the next.  The probe is a fixed piece of
exact arithmetic of the kinds matconj spends its time on (61-bit modular
products and Fraction elimination), run with :mod:`exact` rather than
matconj, so a change to matconj cannot move it.  The benchmark runs it
before every op, outside the timed interval.

The probe slows down more than the ops do: across speed changes, the log of
an op's time moved with the log of the probe's time at slopes of 0.6 to 0.9
on the recover and fuzz workloads.  Each op's time is therefore multiplied
by (``NOMINAL_MS`` / local probe median) ** ``EXPONENT``, and times read as
on a machine where the probe takes ``NOMINAL_MS``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import exact

NOMINAL_MS = 3.0  # the probe's median time on a 2.0 GHz Xeon vCPU
EXPONENT = 0.8
WINDOW = 2  # probes on each side of an op that enter its local median

_P = (1 << 61) - 1
_rng = random.Random(0)
_GFP = [[_rng.randrange(_P) for _ in range(12)] for _ in range(12)]
_QQ = [[Fraction(_rng.randint(-5, 5), _rng.randint(1, 5)) for _ in range(6)]
       for _ in range(6)]


def probe_ms() -> float:
    t0 = time.perf_counter_ns()
    exact.matmul(_GFP, _GFP, _P)
    exact.matmul(_GFP, _GFP, _P)
    exact.inverse(_QQ, None)
    return (time.perf_counter_ns() - t0) / 1e6


def scales(probes: list[float]) -> list[float]:
    """Per-op factor (NOMINAL_MS / median of the probes around the op) ** EXPONENT."""
    return [scale(probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(probes))]


def scale(probes: list[float]) -> float:
    return (NOMINAL_MS / statistics.median(probes)) ** EXPONENT
