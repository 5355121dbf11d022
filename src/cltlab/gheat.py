"""Monotone explicit scheme for the G-heat (Barenblatt) terminal-value problem.

The value under volatility uncertainty solves, in the viscosity sense,

    d/dt u + (1/2) * sup_{sigma_under <= sigma <= sigma_bar} sigma^2 * u'' = 0

backwards from the terminal data. Because ``sigma -> sigma^2 * p`` is linear
in ``sigma^2``, the sup over the volatility interval sits at an endpoint:
``sup sigma^2 p = max(sigma_bar^2 * p, sigma_under^2 * p)``. The scheme
applies that endpoint reduction to its second difference at every point.

The scheme is explicit time marching with a centered second difference.
Under the CFL condition ``tau * sigma_bar^2 / h^2 <= 1`` every update is a
max of convex combinations of neighbouring values, hence monotone, which
certifies convergence to the viscosity solution and a discrete comparison
principle. Dirichlet boundaries are frozen at the terminal function; with a
half width of at least ``8 * sigma_bar`` the induced bias is Gaussian-tail
negligible at the origin. Reported values always go through
:func:`richardson_value`, which marches no finer than the requested grid:
it marches ``4h``, ``2h`` and ``h`` at one CFL ratio, and when their two
gaps show order 2 it returns the extrapolated value with the size of the
correction as its error bar; otherwise, or when the rounded time steps do
not nest, it pairs ``h`` with (h/2, tau/4) and returns that value with the
difference as its error bar.

Only :func:`cltlab.rates.error_curve` with ``sigma_under < sigma_bar``
marches its finest level ``h`` in a forked child, beside its lattice rows
and the ``4h`` and ``2h`` marches (see :mod:`cltlab.rates`). Every other
caller of :func:`richardson_value` marches all its levels in process: the
``4h`` and ``2h`` marches, all it could overlap with ``h``, cost about 1/7
of the ``h`` march (1/64 + 1/8 of its point-updates).

With ``n`` steps of ``tau = 1/n``, one step is one level of the discrete
sup-recursion over two trinomial laws on ``{-s, 0, s}``, ``s = h * sqrt(n)``
(so each step moves by ``h``), whose end weights are
``tau * sigma^2 / (2 h^2)`` at ``sigma = sigma_bar`` and at
``sigma = sigma_under``. Up to rounding and the frozen boundary the two
agree; the test suite pins that identity.

Degenerate bounds need no special handling in the march: ``sigma_under = 0``
only flattens the negative-curvature branch of the endpoint reduction.

With ``sigma_under < sigma_bar`` time levels are sequential; each level's
stencil sweep is a pure per-point map, vectorized in a fixed order.
Terminal data that is even on the grid (an exact palindrome) is marched on
``x >= 0`` only, with a ghost cell at ``-h`` mirrored from ``+h`` before
every step, and stored levels are rebuilt by reflection, so the stored
field is then exactly even. Other data is marched on the whole grid.

With ``sigma_under == sigma_bar`` the scheme is the linear heat step
``u += a * d2u`` with frozen ends, and the sine basis diagonalizes it. So
each stored level is built in closed form, with no time loop
(:func:`_heat_levels`): one FFT of the data, then one inverse FFT per
stored level, whatever the number of steps. The ``(h/2, tau/4)`` pair of
:func:`richardson_value` is then as cheap as any other equal-volatility
solve. It is also the more accurate: against a long-double march of
``abs`` at ``h = 0.005`` (40,000 steps) every stored level is within
6.4e-15, where the float64 march drifts to 2.1e-13. Even data gives
exactly even levels here too, and ``sigma_bar = 0`` leaves the terminal
data in place bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, LabError
from .fields import GridSpec, ValueField
from .payoffs import Payoff

CFL_TOL = 1e-12
ORDER_TOL = 0.1  # largest |p - 2| of an observed order that is extrapolated
MAX_STORED_LEVELS = 257  # time levels kept by store="levels"


class CFLViolatedError(LabError, ValueError):
    """Time step too large for the spatial step (monotonicity lost)."""


class DegenerateGridError(LabError, ValueError):
    """Fewer than three interior points."""


class NotConvexError(LabError, ValueError):
    """Analytic shortcut requested for a payoff without a convexity certificate."""


@dataclass(frozen=True)
class GHeatProblem:
    """Terminal-value problem on horizon 1 with volatility in [sigma_under, sigma_bar]."""

    sigma_under: float
    sigma_bar: float
    payoff: Payoff

    def __post_init__(self):
        if not 0.0 <= self.sigma_under <= self.sigma_bar:
            raise ValueError("need 0 <= sigma_under <= sigma_bar")
        if not math.isfinite(self.sigma_bar):
            raise ValueError("sigma_bar must be finite")


@dataclass(frozen=True)
class SchemeSpec:
    """Explicit-scheme resolution: spatial step, time step, half width."""

    h: float
    tau: float
    half_width: float

    def __post_init__(self):
        if self.h <= 0 or self.tau <= 0 or self.half_width <= 0:
            raise ValueError("h, tau and half_width must be positive")

    def cfl_ratio(self, sigma_bar: float) -> float:
        return self.tau * sigma_bar**2 / self.h**2

    def scaled(self, factor: float) -> "SchemeSpec":
        """Spatial step times ``factor`` at fixed CFL ratio."""
        return SchemeSpec(self.h * factor, self.tau * factor**2, self.half_width)

    def steps(self) -> int:
        """Time steps marched: ``tau`` shrinks so that they land on ``t = 0``."""
        return math.ceil(1.0 / self.tau - 1e-9)


def default_spec(prob: GHeatProblem, h: float = 1.0 / 400.0) -> SchemeSpec:
    """Default resolution: CFL ratio 1 and half width ``8 * sigma_bar``."""
    sb = prob.sigma_bar
    tau = h * h / sb**2 if sb > 0 else 0.5
    return SchemeSpec(h=h, tau=tau, half_width=max(8.0 * sb, 1.0))


def solve_gheat(
    prob: GHeatProblem,
    spec: SchemeSpec,
    store: str = "levels",
) -> ValueField:
    """Explicit scheme from the terminal data, backwards to ``t = 0``.

    With ``sigma_under < sigma_bar`` the scheme is marched step by step.
    With equal bounds it is linear, and every stored level is built in
    closed form by :func:`_heat_levels`, with no time loop.

    ``store="levels"`` keeps a strided subset of at most
    ``MAX_STORED_LEVELS`` time levels (always including the initial and
    terminal ones) for regularity audits; ``store="final"`` keeps only the
    initial time. The origin value is identical either way.
    """
    if store not in ("levels", "final"):
        raise ValueError(f"unknown store mode {store!r}")
    if spec.half_width + 1e-12 < 8.0 * prob.sigma_bar:
        raise GridTooSmallError(
            f"half width {spec.half_width} below 8*sigma_bar = {8.0 * prob.sigma_bar}"
        )
    x = GridSpec(spec.h, spec.half_width).points()
    if x.size - 2 < 3:
        raise DegenerateGridError("need at least 3 interior points")
    terminal = np.asarray(prob.payoff(x), dtype=float)

    lam = spec.cfl_ratio(prob.sigma_bar)
    if lam > 1.0 + CFL_TOL:
        raise CFLViolatedError(f"tau*sigma_bar^2/h^2 = {lam} exceeds 1")
    steps = spec.steps()
    tau = 1.0 / steps  # lands exactly on t = 0; only shrinks the ratio
    a_hi = tau * prob.sigma_bar**2 / (2.0 * spec.h**2)
    a_lo = tau * prob.sigma_under**2 / (2.0 * spec.h**2)

    if store == "levels":
        stride = -(-(steps + 1) // MAX_STORED_LEVELS)
        ks = [*range(0, steps, stride), steps]
    else:
        ks = [0]
    even = np.array_equal(terminal, terminal[::-1])
    if prob.sigma_under == prob.sigma_bar:
        values = _heat_levels(terminal, a_hi, [steps - k for k in ks], even)
    else:
        values = _march(terminal, a_hi, a_lo, steps, ks, even)
    return ValueField(
        mode="grid",
        n=steps,
        h=spec.h,
        times=np.array(ks) / steps,
        xs=[x] * len(ks),
        values=values,
    )


def _march(terminal, a_hi, a_lo, steps, ks, even) -> list[np.ndarray]:
    """Levels ``ks`` of the nonlinear scheme, marched one step at a time."""
    # even data stays even: march x >= 0 with a mirrored ghost cell at -h
    u = terminal[terminal.size // 2 - 1 :].copy() if even else terminal.copy()

    def full(w):
        return np.concatenate((w[:1:-1], w[1:])) if even else w.copy()

    keep = set(ks)
    kept = {steps: terminal}
    right, mid, left = u[2:], u[1:-1], u[:-2]
    d = np.empty(mid.size)
    alt = np.empty(mid.size)
    for k in range(steps - 1, -1, -1):
        if even:
            u[0] = u[2]
        np.subtract(right, mid, out=d)
        d -= mid
        d += left
        np.multiply(d, a_lo, out=alt)
        d *= a_hi
        np.maximum(d, alt, out=d)
        mid += d
        if k in keep:
            kept[k] = full(u)
    return [kept[k] for k in ks]


def _heat_levels(terminal, a, ms, even) -> list[np.ndarray]:
    """The linear scheme ``u += a * D2 u`` after ``m`` steps, for each ``m`` in ``ms``.

    The frozen ends fix the straight line through them, whose second
    difference is zero, so only the remainder ``w``, zero at both ends,
    evolves. On ``M + 1`` points the sine modes ``sin(pi j i / M)``
    diagonalize the step with factors ``mu_j = 1 - 4 a sin^2(pi j / 2M)``.
    One real FFT of the odd extension of ``w`` (length ``2M``) gives its
    coefficients, and one inverse FFT per level rebuilds ``w`` after ``m``
    steps. ``mu_j ** m`` is ``+-exp(m * log1p(-e_j))`` with
    ``e_j = 1 - |mu_j|`` formed without cancellation, since a plain power
    drifts by about 3e-11 at ``m`` = 160,000. Even data takes its
    ``x >= 0`` half and mirrors it, so every level is an exact palindrome.
    ``a = 0`` leaves the data in place, bit for bit.
    """
    out = np.empty((len(ms), terminal.size))
    size = terminal.size - 1  # M
    line = terminal[0] + (terminal[-1] - terminal[0]) * (np.arange(size + 1) / size)
    odd = np.zeros(2 * size)
    odd[1:size] = terminal[1:-1] - line[1:-1]
    odd[size + 1 :] = -odd[size - 1 : 0 : -1]
    coef = np.fft.rfft(odd).imag
    angle = np.pi / (2 * size) * np.arange(size + 1)
    down = 4.0 * a * np.sin(angle) ** 2
    flips = down > 1.0  # mu_j < 0
    up = 2.0 * (1.0 - 2.0 * a) + 4.0 * a * np.cos(angle) ** 2  # 1 - |mu_j| if mu_j < 0
    log_abs_mu = np.log1p(-np.where(flips, up, down))
    sign = np.where(flips, -1.0, 1.0)
    spectrum = np.zeros(size + 1, dtype=complex)
    w = np.empty(2 * size)
    lo = terminal.size // 2 if even else 0
    for row, m in zip(out, ms):
        if m == 0 or a == 0.0:
            row[:] = terminal
            continue
        power = np.exp(m * log_abs_mu)
        if m % 2:
            power *= sign
        np.multiply(coef, power, out=spectrum.imag)
        np.fft.irfft(spectrum, 2 * size, out=w)
        np.add(line[lo:], w[lo : size + 1], out=row[lo:])
        row[0], row[-1] = terminal[0], terminal[-1]  # frozen, not rebuilt
        if even:
            row[:lo] = row[: lo : -1]
    return list(out)


def scheme_origin(prob: GHeatProblem, spec: SchemeSpec) -> float:
    """Origin value of the scheme at ``spec``, storing only the initial time."""
    return solve_gheat(prob, spec, store="final").origin_value()


def richardson_value(
    prob: GHeatProblem,
    spec: SchemeSpec,
    origin_h: float | Callable[[], float] | None = None,
) -> tuple[float, float]:
    """Origin value with an error bar, marching no grid finer than ``spec``.

    Marches ``4h``, ``2h`` and ``h`` at the CFL ratio of ``spec``. When the
    gaps ``g1 = v(4h) - v(2h)`` and ``g2 = v(2h) - v(h)`` share a sign and
    the observed order ``log2(g1 / g2)`` is within ``ORDER_TOL`` of 2, it
    returns the extrapolation ``v(h) + (v(h) - v(2h)) / 3`` with bar
    ``|g2| / 3``, the size of the correction, which estimates the error of
    the ``h`` field itself to leading order. When both gaps are exactly zero
    it returns ``v(h)`` with bar 0. Otherwise it returns ``v(h/2)``
    with bar ``|v(h/2) - v(h)|``. It goes to that pair without the ``4h``
    and ``2h`` marches when their step counts do not nest in that of ``h``
    (``tau`` is rounded to land on ``t = 0``, which would change the CFL
    ratio between levels) or when the ``4h`` grid is degenerate. That march
    at ``h/2`` costs about 8x the ``h`` march when ``sigma_under <
    sigma_bar``; with equal bounds every level is a closed form, and it costs
    about as little as the others.

    A caller that has already marched ``spec`` (with either ``store`` mode)
    passes that field's origin value as ``origin_h``; the ``h`` march is
    then skipped and the result is unchanged. ``origin_h`` may also be a
    callable with no arguments, called where the ``h`` march would be (after
    ``4h`` and ``2h``): a value marched elsewhere in the meantime.
    """
    v4 = v2 = None
    n = spec.steps()
    if all(spec.scaled(f).steps() * f * f == n for f in (2.0, 4.0)):
        try:
            v4, v2 = scheme_origin(prob, spec.scaled(4.0)), scheme_origin(prob, spec.scaled(2.0))
        except DegenerateGridError:  # fewer than three interior points at 4h
            pass
    if origin_h is None:
        v1 = scheme_origin(prob, spec)
    else:
        v1 = origin_h() if callable(origin_h) else origin_h
    if v4 is not None:
        g1, g2 = v4 - v2, v2 - v1
        if g1 == g2 == 0.0:  # the three levels agree exactly
            return v1, 0.0
        if g2 != 0.0 and g1 / g2 > 0.0 and abs(math.log2(g1 / g2) - 2.0) <= ORDER_TOL:
            return v1 + (v1 - v2) / 3.0, abs(g2) / 3.0
    fine = scheme_origin(prob, spec.scaled(0.5))
    return fine, abs(fine - v1)


def convex_oracle(prob: GHeatProblem) -> float:
    """Analytic origin value for convex terminal data.

    For convex data the constant control at ``sigma_bar`` attains the sup,
    so the value is the plain heat expectation ``E payoff(sigma_bar W)``.
    Every certified convex catalogue entry has a closed form: ``abs`` and
    ``abs_pow`` at beta 1 give ``sigma_bar * sqrt(2/pi)``, and a convex
    ``piecewise_linear`` is constant, since its ends are flat. Refuses
    payoffs without a convexity certificate.
    """
    payoff = prob.payoff
    if not payoff.convex:
        raise NotConvexError(f"payoff {payoff.kind!r} is not certified convex")
    if payoff.kind == "piecewise_linear":
        return payoff(0.0)
    if payoff.kind in ("abs", "abs_pow"):
        return prob.sigma_bar * math.sqrt(2.0 / math.pi)
    raise ValueError(f"no closed form for convex payoff {payoff.kind!r}")
