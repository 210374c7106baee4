"""Machine-speed calibration: two fixed reference kernels, timed between the
benchmark's operations, so that a run's times can be scaled to one
reference speed.

The benchmark may run on a shared machine whose speed changes by tens of
percent from one minute to the next, and the interpreter and the memory
system do not slow down by the same factor.  One sample times both
kernels; neither touches modzeta, so a change to the program cannot move
them:

* ``python``: float, dict and ``Fraction`` work in the interpreter, like
  the exact cocycle algebra and the per-term series loops;
* ``numpy``: in-place vector arithmetic streaming over 8 MB of arrays,
  twice the L2 cache of the machine in BASELINE.md, like the direct
  lattice sums.

A run's speed factor is the geometric mean, over the two kernels, of the
median sample time divided by the kernel's reference time.  run.py divides
every time it reports by the factor, so a figure reads "seconds at the
reference speed": the speed at which the kernels take ``PY_REF_S`` and
``NP_REF_S``.
"""
from __future__ import annotations

import contextlib
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The kernels' times at the reference speed: about their fastest times on a
# 2-vCPU Xeon VM (Python 3.11, numpy 2.4).  They only set the scale.
PY_REF_S = 0.019
NP_REF_S = 0.0058

_PY_N = 80_000
_NP_N = 500_000
_a = _buf = None


def _python() -> float:
    acc, table, frac = 0.0, {}, Fraction(0)
    for i in range(_PY_N):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
        if i % 40 == 0:
            frac += Fraction(i, i + 7)
    return acc + float(frac)


def _numpy() -> float:
    global _a, _buf
    if _a is None:  # allocated once: no page faults inside a sample
        _a = np.random.default_rng(0).random(_NP_N)
        _buf = np.empty_like(_a)
    out = 0.0
    for _ in range(4):
        np.multiply(_a, _a, out=_buf)
        np.add(_buf, 1.0, out=_buf)
        np.sqrt(_buf, out=_buf)
        out += float(_buf.sum())
    return out


class Speed:
    """Calibration samples of one process, and the factor they give."""

    def __init__(self):
        self.python: list[float] = []
        self.numpy: list[float] = []

    def sample(self, k: int = 1) -> float:
        """Time `k` samples of both kernels; return the seconds they took."""
        t_start = perf_counter()
        for _ in range(k):
            t0 = perf_counter()
            _python()
            t1 = perf_counter()
            _numpy()
            self.python.append(t1 - t0)
            self.numpy.append(perf_counter() - t1)
        return perf_counter() - t_start

    def add(self, samples: dict):
        self.python.extend(samples["python"])
        self.numpy.extend(samples["numpy"])

    def samples(self) -> dict:
        return {"python": self.python, "numpy": self.numpy}

    def factor(self) -> float:
        """How many times slower than the reference speed this run was
        (1.0 before the first sample)."""
        if not self.python:
            return 1.0
        return math.sqrt(statistics.median(self.python) / PY_REF_S * statistics.median(self.numpy) / NP_REF_S)


@contextlib.contextmanager
def sampling_every(speed: Speed, interval_s: float | None):
    """Take a calibration sample every `interval_s` seconds while the body
    runs, from a SIGALRM handler, so that the samples fall inside one long
    call.  Yields a function that gives the seconds spent sampling, which
    the caller takes out of the body's time.  None takes no samples."""
    spent = 0.0
    if interval_s is None:
        yield lambda: spent
        return

    def handler(signum, frame):
        nonlocal spent
        spent += speed.sample()

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
    try:
        yield lambda: spent
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
