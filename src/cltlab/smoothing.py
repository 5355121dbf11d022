"""Space-time mollification and regularity audits.

The kernel is the standard smooth bump ``exp(-1/(1 - r^2))`` written in the
shifted variables ``(2t + 1, x)``, so its support is exactly
``{(t, x) : -1 < t < 0, |x| < 1}`` and it is even in ``x``. The width-eps
copy ``eps**-3 * kernel(t/eps**2, x/eps)`` lives in
``{-eps^2 < t < 0, |x| < eps}`` and integrates to one, which means
convolving a surface against it samples the surface up to ``eps^2`` into the
future; mollified output is therefore restricted to times ``<= 1 - eps^2``
and to the x-range shrunk by ``eps``.

Everything here verifies bounds on sampled surfaces and solved fields; the
main computation paths never run through this module. Derivative bounds of
the mollified surface carry kernel-dependent constants, so across a list of
widths only uniform boundedness of the scaled quantities is checked, not a
specific constant; the sole explicit-constant check is the sup bound
``|smoothed - original| <= 2 * eps**beta + a`` for surfaces that are
Holder-beta in space with constant 1 and Holder-beta/2 in time with additive
slack ``a``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LabError
from .fields import ValueField
from .recursion import FLOAT_ROUNDING

FP_SLACK = FLOAT_ROUNDING  # rounding envelope granted on exact inequalities
HYPOTHESIS_LINES = 160  # strided times and points per axis in the hypothesis audit
HYPOTHESIS_TOL = 1e-9  # excess the hypothesis audit forgives
VERIFY_LINES = 64  # strided lines per axis for the derivative moduli
REGULARITY_POINTS = 512  # strided points per level in the regularity audit
REGULARITY_LEVELS = 150  # strided levels in the regularity audit
PAIR_BLOCK = 1 << 14  # pair differences per block; cache-sized beats whole matrices
DERIV_BLOCK = 256  # centre rows per block of the derivative pass


class ResolutionTooCoarseError(LabError, ValueError):
    """Surface grid too coarse for the requested mollifier width."""


class DomainTooSmallError(LabError, ValueError):
    """Surface domain too small to contain the kernel support."""


class HypothesisViolatedError(LabError, ValueError):
    """Surface fails its declared regularity."""


def _bump(r2: np.ndarray) -> np.ndarray:
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    return out


def kernel_shape(t, x) -> np.ndarray:
    """Unnormalized bump with support ``{-1 < t < 0, |x| < 1}``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    return _bump((2.0 * t + 1.0) ** 2 + x**2)


@functools.lru_cache(maxsize=1)
def _kernel_mass() -> float:
    # midpoint rule; the bump is smooth with all derivatives vanishing at the
    # support boundary, so the rule converges faster than any power of the mesh
    m = 2048
    dt, dx = 1.0 / m, 2.0 / m
    ts = -1.0 + (np.arange(m) + 0.5) * dt
    xs = -1.0 + (np.arange(m) + 0.5) * dx
    vals = kernel_shape(ts[:, None], xs[None, :])
    return float(vals.sum() * dt * dx)


@dataclass(frozen=True)
class MollifierSpec:
    """Scaled kernel of width ``epsilon`` in space and ``epsilon**2`` in time."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    def kernel(self, t, x) -> np.ndarray:
        e = self.epsilon
        return kernel_shape(np.asarray(t) / e**2, np.asarray(x) / e) / (
            _kernel_mass() * e**3
        )


@dataclass
class SampledSurface:
    """Values on a uniform rectangular (t, x) grid with declared regularity.

    ``beta`` is the spatial Holder exponent (constant 1) and ``slack`` the
    additive temporal allowance ``a`` in
    ``|u(t, x) - u(s, x)| <= |t - s|**(beta/2) + a``.
    """

    times: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    beta: float
    slack: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size, self.xs.size):
            raise ValueError("values must be shaped (len(times), len(xs))")
        for axis in (self.times, self.xs):
            if axis.size < 2:
                raise ValueError("grids need at least 2 points per axis")
            steps = np.diff(axis)
            if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
                raise ValueError("grids must be uniform and increasing")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])


def surface_from_function(
    fn, *, x_half_width: float, dt: float, dx: float, beta: float, slack: float = 0.0
) -> SampledSurface:
    """Sample ``fn(t, x)`` on [0, 1] x [-L, L] at resolution (dt, dx)."""
    nt = round(1.0 / dt)
    nx = round(x_half_width / dx)
    times = np.arange(nt + 1) / nt
    xs = (np.arange(2 * nx + 1) - nx) * (x_half_width / nx)
    vals = np.asarray(fn(times[:, None], xs[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (times.size, xs.size)).copy()
    return SampledSurface(times, xs, vals, beta=beta, slack=slack)


def surface_from_field(
    field: ValueField,
    *,
    x_half_width: float,
    dt: float,
    dx: float,
    beta: float,
    slack: float,
) -> SampledSurface:
    """Resample a solved field onto a uniform surface grid.

    Time uses the field's piecewise-constant extension; space interpolates
    linearly, which preserves a Lipschitz certificate exactly (use beta = 1
    surfaces for field-derived inputs).
    """
    nt = round(1.0 / dt)
    nx = round(x_half_width / dx)
    times = np.arange(nt + 1) / nt
    xs = (np.arange(2 * nx + 1) - nx) * (x_half_width / nx)
    vals = np.empty((times.size, xs.size))
    for i, t in enumerate(times):
        lvl = field.level_index(t)
        vals[i] = np.interp(xs, field.xs[lvl], field.values[lvl])
    return SampledSurface(times, xs, vals, beta=beta, slack=slack)


def mollify(surface: SampledSurface, spec: MollifierSpec) -> SampledSurface:
    """Discrete convolution with the scaled kernel by tensor quadrature.

    Requires grid resolution at most ``eps/16`` in x and ``eps**2/16`` in t.
    The kernel weights are normalized to unit discrete mass, so constants are
    preserved exactly and the sup norm never grows. Output lives on times
    ``[t0, t_end - eps^2]`` and the x-grid shrunk by ``ceil(eps/dx)`` points
    per side. The sum over kernel cells is a valid correlation computed with
    real FFTs from ``scipy.fft``, which is imported on the first call, so
    importing this module loads no part of scipy.
    """
    e = spec.epsilon
    dt, dx = surface.dt, surface.dx
    if dt > e * e / 16.0 + 1e-12:
        raise ResolutionTooCoarseError(f"need dt <= eps^2/16, got {dt}")
    if dx > e / 16.0 + 1e-12:
        raise ResolutionTooCoarseError(f"need dx <= eps/16, got {dx}")
    p_count = math.ceil(e * e / dt - 1e-9)
    q_count = math.ceil(e / dx - 1e-9)
    nt, nx = surface.values.shape
    if p_count >= nt or 2 * q_count >= nx:
        raise DomainTooSmallError("surface smaller than the kernel support")

    t_off = -np.arange(p_count + 1) * dt
    x_off = (np.arange(2 * q_count + 1) - q_count) * dx
    weights = spec.kernel(t_off[:, None], x_off[None, :]) * (dt * dx)
    weights /= weights.sum()

    # Kernel time support is (-eps^2, 0), so row r draws on times t_r..t_r+eps^2.
    out = _valid_correlation(surface.values, weights)
    return SampledSurface(
        times=surface.times[: nt - p_count],
        xs=surface.xs[q_count : nx - q_count],
        values=out,
        beta=surface.beta,
        slack=surface.slack,
    )


def _valid_correlation(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``out[r, c] = sum_{p, q} values[r + p, c + q] * weights[p, q]`` by real FFTs.

    The product of the transforms of ``values`` and of the flipped
    ``weights``, both zero-padded to the next fast length of the full
    correlation, is the full correlation; the valid part starts at
    ``weights.shape - 1`` on each axis.
    """
    from scipy import fft  # here, so that importing cltlab loads no scipy module

    s1, s2 = values.shape, weights.shape
    shape = [fft.next_fast_len(a + b - 1, True) for a, b in zip(s1, s2)]
    spectrum = fft.rfftn(values, shape) * fft.rfftn(weights[::-1, ::-1], shape)
    full = fft.irfftn(spectrum, shape)
    return full[s2[0] - 1 : s1[0], s2[1] - 1 : s1[1]].copy()


def _strided(n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, cap).round().astype(int))


def _holder_excess(coords, values, exponent: float, slack: float) -> float:
    """Worst excess of a Holder-type modulus over pairs along axis 0.

    Returns the largest ``|values[i] - values[j]|`` minus
    ``|coords[i] - coords[j]|**exponent + slack``, floored at zero. Further
    axes of ``values`` are lines compared at the same pair. Pair rows are
    formed a block at a time, about ``PAIR_BLOCK`` differences per block.
    """
    worst = 0.0
    rows = max(1, PAIR_BLOCK // values.size)
    line_axes = (1,) * (values.ndim - 1)
    for i in range(0, coords.size, rows):
        bound = np.abs(coords[:, None] - coords[None, i : i + rows]) ** exponent + slack
        diff = np.abs(values[:, None] - values[None, i : i + rows])
        excess = diff - bound.reshape(*bound.shape, *line_axes)
        worst = max(worst, float(np.max(excess)))
    return worst


def audit_surface_hypotheses(surface: SampledSurface) -> tuple[float, float]:
    """Worst excesses over the surface's declared spatial and temporal moduli.

    Spatial: ``|u(t,x) - u(t,y)| <= |x-y|**beta``; temporal:
    ``|u(t,x) - u(s,x)| <= |t-s|**(beta/2) + a`` with ``beta`` and ``a``
    the surface's ``beta`` and ``slack``, checked on at most
    ``HYPOTHESIS_LINES`` strided times and points. Raises
    :class:`HypothesisViolatedError` when either excess exceeds
    ``HYPOTHESIS_TOL``.
    """
    rows = _strided(surface.times.size, HYPOTHESIS_LINES)
    cols = _strided(surface.xs.size, HYPOTHESIS_LINES)
    vsub = surface.values[np.ix_(rows, cols)]
    spatial = _holder_excess(surface.xs[cols], vsub.T, surface.beta, 0.0)
    temporal = _holder_excess(
        surface.times[rows], vsub, surface.beta / 2.0, surface.slack
    )
    if spatial > HYPOTHESIS_TOL or temporal > HYPOTHESIS_TOL:
        raise HypothesisViolatedError(
            f"declared moduli violated: spatial excess {spatial}, temporal {temporal}"
        )
    return spatial, temporal


def _max_core_derivatives(u: np.ndarray, dt: float, dx: float) -> float:
    """Largest ``|d2t| + |d4x| + |dt d2x|`` over interior rows, two columns in.

    Centre rows go a block of ``DERIV_BLOCK`` at a time, each with a one-row
    halo, so no whole-surface derivative array is ever formed.
    """
    block_max = []
    for r0 in range(1, u.shape[0] - 1, DERIV_BLOCK):
        w = u[r0 - 1 : r0 + DERIV_BLOCK + 1]
        mid = w[1:-1]
        d2t = (w[2:, 2:-2] - 2.0 * mid[:, 2:-2] + w[:-2, 2:-2]) / dt**2
        d4x = (
            mid[:, 4:] - 4.0 * mid[:, 3:-1] + 6.0 * mid[:, 2:-2] - 4.0 * mid[:, 1:-3]
            + mid[:, :-4]
        ) / dx**4
        d2x = (w[:, 3:-1] - 2.0 * w[:, 2:-2] + w[:, 1:-3]) / dx**2
        dt_d2x = (d2x[2:] - d2x[:-2]) / (2.0 * dt)
        block_max.append(np.max(np.abs(d2t) + np.abs(d4x) + np.abs(dt_d2x)))
    return float(np.max(block_max))


@dataclass(frozen=True)
class SmoothingRow:
    eps: float
    sup_gap: float
    sup_bound: float
    sup_ok: bool
    scaled_derivatives: float
    scaled_temporal_modulus: float
    scaled_spatial_modulus: float


@dataclass(frozen=True)
class SmoothingReport:
    rows: tuple[SmoothingRow, ...]
    sup_ok: bool
    derivative_scaling_ok: bool
    temporal_scaling_ok: bool
    spatial_scaling_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.sup_ok
            and self.derivative_scaling_ok
            and self.temporal_scaling_ok
            and self.spatial_scaling_ok
        )


def _scaling_ok(values, ratio_cap=10.0, floor=1e-6) -> bool:
    # genuinely present scaled quantities are kernel-constant sized, O(0.1)
    # and up; anything below the floor is finite-difference/FFT noise around
    # an absent quantity (e.g. time moduli of a time-constant surface)
    lo, hi = min(values), max(values)
    if hi <= floor:
        return True
    return hi <= ratio_cap * max(lo, 1e-300)


def verify_smoothing_bounds(surface: SampledSurface, eps_list) -> SmoothingReport:
    """Check the mollification estimates on one surface across widths.

    Per width: (i) the explicit-constant sup bound
    ``|smoothed - original| <= 2 eps**beta + a`` on the common domain;
    (ii) the scaled derivative size
    ``eps^4 (|d2t| + |d4x| + |dt d2x|) / (eps**beta + a)``; (iii) the scaled
    temporal and spatial moduli of the first time derivative and second space
    derivative. The derivative quantities carry kernel-dependent constants,
    so the report only demands that each family stays within a factor 10
    across the width list. ``beta`` and ``a`` are the surface's declared
    ``beta`` and ``slack``, which are audited first.
    """
    beta, a = surface.beta, surface.slack
    audit_surface_hypotheses(surface)
    rows = []
    for eps in eps_list:
        sm = mollify(surface, MollifierSpec(eps))
        nt_out, nx_out = sm.values.shape
        q_trim = (surface.xs.size - nx_out) // 2
        base = surface.values[:nt_out, q_trim : q_trim + nx_out]
        sup_gap = float(np.max(np.abs(sm.values - base)))
        sup_bound = 2.0 * eps**beta + a
        denom = eps**beta + a

        u, dt, dx = sm.values, sm.dt, sm.dx
        scaled_deriv = eps**4 * _max_core_derivatives(u, dt, dx) / denom

        # first time and second space derivatives at strided interior points
        lines = _strided(nt_out - 2, VERIFY_LINES) + 1
        cols = _strided(nx_out - 2, VERIFY_LINES) + 1
        t_sub = sm.times[lines]
        f1 = (u[lines + 1][:, cols] - u[lines - 1][:, cols]) / (2.0 * dt)
        at = u[lines]
        f2 = (at[:, cols + 1] - 2.0 * at[:, cols] + at[:, cols - 1]) / dx**2
        t_gap = np.abs(t_sub[:, None] - t_sub[None, :])
        temporal = 0.0
        for i in range(lines.size):
            num = np.max(np.abs(f1 - f1[i]) + np.abs(f2 - f2[i]), axis=1)
            temporal = max(temporal, float(np.max(num / (t_gap[i] ** (beta / 2.0) + a + 1e-300))))
        x_sub = sm.xs[cols]
        x_gap = np.abs(x_sub[:, None] - x_sub[None, :])
        np.fill_diagonal(x_gap, np.inf)
        spatial = 0.0
        for i in range(cols.size):
            num = np.max(
                np.abs(f1 - f1[:, i][:, None]) + np.abs(f2 - f2[:, i][:, None]), axis=0
            )
            spatial = max(spatial, float(np.max(num / x_gap[i] ** beta)))

        rows.append(
            SmoothingRow(
                eps=float(eps),
                sup_gap=sup_gap,
                sup_bound=sup_bound,
                sup_ok=sup_gap <= sup_bound * (1.0 + 1e-9) + FP_SLACK,
                scaled_derivatives=scaled_deriv,
                scaled_temporal_modulus=eps**2 * temporal,
                scaled_spatial_modulus=eps**2 * spatial,
            )
        )
    return SmoothingReport(
        rows=tuple(rows),
        sup_ok=all(r.sup_ok for r in rows),
        derivative_scaling_ok=_scaling_ok([r.scaled_derivatives for r in rows]),
        temporal_scaling_ok=_scaling_ok([r.scaled_temporal_modulus for r in rows]),
        spatial_scaling_ok=_scaling_ok([r.scaled_spatial_modulus for r in rows]),
    )


@dataclass(frozen=True)
class RegularityReport:
    spatial_excess: float
    temporal_excess: float
    slack: float
    passed: bool
    levels_checked: int
    points_checked: int


def regularity_audit(
    field: ValueField,
    beta: float,
    sigma_bar: float,
    slack: float,
) -> RegularityReport:
    """Audit a solved field against its Holder certificates.

    Spatial: ``|v(t,x) - v(t,y)| <= |x-y|**beta`` within every stored level.
    Temporal: ``|v(t,x) - v(s,x)| <= sigma_bar**beta * |t-s|**(beta/2)`` at
    shared points of level pairs. Checks are exhaustive up to
    ``REGULARITY_LEVELS`` levels and ``REGULARITY_POINTS`` points per level
    (strided beyond them). Excess is reported raw; the verdict grants the
    documented float-rounding envelope on top of ``slack``, so ``slack = 0``
    means "no violation beyond rounding".
    """
    strided_by_size: dict[int, np.ndarray] = {}

    def point_index(size: int) -> np.ndarray:
        if size not in strided_by_size:
            strided_by_size[size] = _strided(size, REGULARITY_POINTS)
        return strided_by_size[size]

    spatial = 0.0
    points_checked = 0
    for pts, vals in zip(field.xs, field.values):
        idx = point_index(pts.size)
        spatial = max(spatial, _holder_excess(pts[idx], vals[idx], beta, 0.0))
        points_checked += idx.size

    levels = _strided(field.times.size, REGULARITY_LEVELS)
    temporal = 0.0
    for ai in range(levels.size):
        i = levels[ai]
        xi, vi = field.xs[i], field.values[i]
        for bi in range(ai + 1, levels.size):
            j = levels[bi]
            xj, vj = field.xs[j], field.values[j]
            if xi.size <= xj.size:
                off = (xj.size - xi.size) // 2
                a_v, b_v = vi, vj[off : off + xi.size]
                a_x, b_x = xi, xj[off : off + xi.size]
            else:
                off = (xi.size - xj.size) // 2
                a_v, b_v = vi[off : off + xj.size], vj
                a_x, b_x = xi[off : off + xj.size], xj
            if a_x.size == 0 or np.max(np.abs(a_x - b_x)) > 1e-9:
                continue  # no shared points to compare
            idx = point_index(a_x.size)
            bound = sigma_bar**beta * abs(field.times[j] - field.times[i]) ** (
                beta / 2.0
            )
            diff = float(np.max(np.abs(a_v[idx] - b_v[idx])))
            temporal = max(temporal, diff - bound)

    worst = max(spatial, temporal)
    return RegularityReport(
        spatial_excess=spatial,
        temporal_excess=temporal,
        slack=slack,
        passed=worst <= slack + FP_SLACK,
        levels_checked=int(levels.size),
        points_checked=points_checked,
    )
