"""Machine-speed calibration: a fixed kernel timed between the timed work.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
10-40 % over seconds to minutes, with the same drift in user and system CPU
time (no steal shows in the guest), so raw times of identical runs spread
past any useful bound. Dividing the times of a run by calibration samples
taken between its commands (or imports) removes much of that drift.

The kernel is the explicit scheme's inner step on a 6401-point grid (numpy
calls on L2-resident arrays, as in the lattice and scheme marches) followed by
an interpreted Python loop (as in imports and per-level bookkeeping). Of the
kernels tried (array sweeps, small and large FFTs, a growing lattice march),
these two tracked the scheme, lattice and mollifier commands best over 25-70 s
windows. In two sets of ten runs per workload (``baseline.json``) scaling
took the spread of wall times from 0.32 and 0.24 to 0.10 and 0.13 on
``sharpness-table``, from 0.19 and 0.32 to 0.10 and 0.06 on ``audit-suite``,
and did not help ``rates-nonlinear`` (raw 0.11 and 0.17, scaled 0.10 and
0.19). The
kernel uses numpy only, never ``cltlab``, so a change to the program cannot
move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A typical sample's time on the machine ``baseline.json`` describes. Only a
# unit: scaled times read as seconds at that machine's typical speed.
REFERENCE_S = 0.3

COVER = 0.5  # calibration time per second of timed work, at least

_GRID, _STEPS = 6_401, 9_000
_PY_STEPS = 2_200_000


def sample() -> float:
    """Seconds the fixed kernel takes now."""
    start = perf_counter()
    u = np.abs(np.linspace(-8.0, 8.0, _GRID))
    d, alt = np.empty(_GRID - 2), np.empty(_GRID - 2)
    for _ in range(_STEPS):
        np.subtract(u[2:], u[1:-1], out=d)
        d -= u[1:-1]
        d += u[:-2]
        np.multiply(d, 0.1, out=alt)
        d *= 0.4
        np.maximum(d, alt, out=d)
        u[1:-1] += d
    acc = 0
    for i in range(_PY_STEPS):
        acc += i % 7
    return perf_counter() - start


def samples_after(seconds: float) -> list[float]:
    """Samples taken after ``seconds`` of work: at least one, and ``COVER`` of its time."""
    taken = [sample()]
    while sum(taken) < COVER * seconds:
        taken.append(sample())
    return taken


def scaled(seconds: float, samples) -> float:
    """``seconds`` at the reference speed, given the calibration samples around them."""
    samples = list(samples)
    return seconds * REFERENCE_S * len(samples) / sum(samples)
