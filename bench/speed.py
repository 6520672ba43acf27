"""The machine's speed, read from fixed loops that use no symtest code.

The benchmark's 2-core virtual machine changes speed every few seconds and
sometimes stays fast or slow for minutes, by up to 2x (README.md, "Machine
notes and steadiness").  A wall time alone then shows the machine more
than the program.  So the worker runs ``probe`` after every replication:
eight short loops, one for each kind of work the workloads do (an RBF Gram
and a GEMM, the arccos of an SO(3) Gram, dense linear algebra, batched 3x3
QR as in Haar draws, standard normal draws, a pass over arrays larger than
a core's L2 cache, many small numpy calls, and plain Python).  The kinds do not all speed up and slow down together, so
the probe's slowdown is the geometric mean over the loops of each loop's
time divided by its time at the nominal speed.  The worker probes after
each config's part of a replication; a part's time divided by the mean
slowdown of the probes just before and just after it (``per_interval``) is
its time at the nominal speed, and the timing metrics report the sums of
these over each replication's parts.

The loops never change, so a change to the program moves the replication
times and not the slowdowns.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Each loop's time in ms at the nominal speed: its median over 150 s on the
# 2-core Xeon (2.0 GHz) virtual machine of README.md, one BLAS thread, with
# the probes interleaved with replications of the three workloads ("stream"
# from a shorter run, scaled to the speed of the others).
NOMINAL_MS = {"gram": 1.30, "arccos": 0.85, "linalg": 1.10, "qr": 0.85,
              "normals": 0.98, "stream": 1.12, "calls": 0.94, "python": 0.91}

_rng = np.random.default_rng(0)
_POINTS = _rng.standard_normal((100, 4))
_COS = _rng.uniform(-1.0, 1.0, (100, 100))
_M = _rng.standard_normal((64, 64))
_SPD = _M @ _M.T + 64.0 * np.eye(64)
_SMALL = _rng.standard_normal((64, 3, 3))
_BIG = _rng.standard_normal(1 << 19)  # 4 MB each, 8 MB in all
_BIG_OUT = np.empty_like(_BIG)


def _gram():
    for _ in range(2):
        d2 = np.sum((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2, axis=2)
        k = np.exp(-d2 / 16.0)
        float((k @ k).sum())


def _arccos():
    for _ in range(24):
        float(np.arccos(_COS).sum())


def _linalg():
    np.linalg.eigh(_SPD)
    np.linalg.solve(_SPD, _M)


def _qr():
    for _ in range(6):
        np.linalg.qr(_SMALL)


def _normals():
    gen = np.random.default_rng(1)
    for _ in range(2):
        gen.standard_normal(20000)


def _stream():
    np.multiply(_BIG, 1.0001, out=_BIG_OUT)


def _calls():
    x = np.ones(8)
    for _ in range(250):
        x = np.sqrt(x * 1.0001 + 0.0)


def _python():
    s = 0
    for i in range(10000):
        s += i * i


_LOOPS = {"gram": _gram, "arccos": _arccos, "linalg": _linalg, "qr": _qr,
          "normals": _normals, "stream": _stream, "calls": _calls, "python": _python}


def probe():
    """Run the loops once; return the geometric mean of their slowdowns."""
    logs = []
    for name, loop in _LOOPS.items():
        t0 = time.perf_counter()
        loop()
        logs.append(math.log((time.perf_counter() - t0) * 1e3 / NOMINAL_MS[name]))
    return math.exp(sum(logs) / len(logs))


def per_interval(probes):
    """The slowdown of each interval between two consecutive ``probes``.

    A timed part that ran between ``probes[i]`` and ``probes[i + 1]`` gets
    their mean.
    """
    return [(a + b) / 2 for a, b in zip(probes, probes[1:])]
