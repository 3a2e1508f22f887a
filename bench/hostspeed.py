"""A gauge of the host's speed, to take its drift out of the timings.

The reference machine is a shared virtual machine whose speed drifts by 10
to 30 % over tens of seconds and between minutes, the same for wall time and
process CPU time.  Timed raw, runs of the same code a few minutes apart
differ by as much as a change worth measuring.  So the benchmark runs a
fixed probe after every operation, and scales each round's times by how
fast the probe ran during that round.  The probe mixes the kinds of work the
workloads do: a small FFT, vectorised arithmetic and an interpreter loop.

Timings are reported at the reference speed: the time an operation would
have taken had the probe run in ``REFERENCE_S``.  The probe is the
benchmark's own code, so a change to hypoel cannot move it.

Set-up is different work: starting an interpreter and importing modules.
Its speed drifts too, and the arithmetic probe does not follow it.  So
set-up is scaled by ``START_PROBE`` instead, a fresh interpreter that only
imports numpy, started before each set-up sample.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

# bound before any tracer wraps numpy.fft, so the probe never shows in a trace
from numpy.fft import fft2 as _fft2

#: median probe time on the reference machine (Python 3.11.7, numpy 2.4.6, 2 vCPUs)
REFERENCE_S = 0.76e-3

#: an interpreter that imports numpy and says it is ready, and about its median
#: start-to-ready time on the reference machine
START_PROBE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
REFERENCE_START_S = 0.15

_GRID = np.random.default_rng(0).standard_normal((128, 128))
_LINE = np.random.default_rng(1).standard_normal(20_000)


def probe() -> float:
    """Wall time of one fixed piece of work, in seconds."""
    start = time.perf_counter()
    _fft2(_GRID)
    y = _LINE * _LINE
    y = y * _LINE + 3.0 * y - _LINE
    np.log1p(np.abs(y)).sum()
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - start


def factor(probes: list[float]) -> float:
    """What to multiply times by to bring them to the reference speed."""
    return REFERENCE_S / statistics.median(probes)
