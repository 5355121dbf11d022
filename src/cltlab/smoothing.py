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

The audits do each comparison once, in whole-array passes: a Lipschitz
(``beta = 1``) audit of a line is one running-minimum scan, within a few
ulps of the pairwise ``|.|`` form (:func:`_holder_excess` bounds the gap),
and a field's levels share batches of such lines; other exponents form
each pair ``j >= i`` once, and levels on equal points share one bound
matrix. Every level must be a non-empty centred stretch of the widest
level's points, as the solvers' levels are, so the temporal audit centres
the strided levels in the rows of one matrix and a level meets every
larger one in one pass over a block of columns. NaN or infinite values
are refused, since they would drop out of every max.

A surface stores each distinct time row once, indexed by time, and no
array in the checks is as tall as the surface. Per width, the correlation
runs by overlap-save on ``numpy.fft``, one slab of ``CHUNK_ROWS`` output
rows at a time in buffers made once. Each chunk, with a one-row halo on
either side, feeds the sup gap, the derivative maxima (swept in
cache-sized blocks of ``DERIV_BLOCK`` rows) and the rows around the
strided lines of the derivative moduli, and is then dropped. A halo row
has the bits of the chunk that owns it, so the checks see exactly the
array that :func:`mollify` gathers. A surface whose times all read one
stored row is constant in time, and so is its mollification: one direct sum
of the row with the kernel summed over time, whose time differences are 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LabError
from .fields import TIME_LOOKUP_TOL, ValueField
from .recursion import FLOAT_ROUNDING

FP_SLACK = FLOAT_ROUNDING  # rounding envelope granted on exact inequalities
HYPOTHESIS_LINES = 160  # strided times and points per axis in the hypothesis audit
HYPOTHESIS_TOL = 1e-9  # excess the hypothesis audit forgives
VERIFY_LINES = 64  # strided times, and least strided points, of the derivative moduli
REGULARITY_POINTS = 512  # strided points per level in the regularity audit
REGULARITY_LEVELS = 150  # strided levels in the regularity audit
PAIR_BLOCK = 1 << 14  # pair differences per block; cache-sized beats whole matrices
LEVEL_BATCH = 32  # levels per spatial-audit batch; bounds its scan buffers (0.5 MB) and pair blocks
DERIV_BLOCK = 32  # surface rows per block of the derivative pass
CHUNK_ROWS = 256  # mollified rows per overlap-save slab of the correlation


class ResolutionTooCoarseError(LabError, ValueError):
    """Surface grid too coarse for the requested mollifier width."""


class DomainTooSmallError(LabError, ValueError):
    """Surface domain too small to contain the kernel support."""


class HypothesisViolatedError(LabError, ValueError):
    """Surface fails its declared regularity."""


class NonFiniteValuesError(LabError, ValueError):
    """Audited values hold a NaN or an infinity."""


def _check_finite(values: np.ndarray, what: str) -> None:
    # min and max carry any NaN or infinity out without a temporary array;
    # a NaN pair would drop out of the audits' max with 0 and pass them
    if values.size and not (math.isfinite(np.min(values)) and math.isfinite(np.max(values))):
        raise NonFiniteValuesError(f"{what} holds a NaN or an infinity")


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


def _kernel_mass() -> float:
    # with s = 2t + 1 and polar coordinates in (s, x), the mass is
    # pi * int_0^1 r exp(-1/(1 - r^2)) dr = (pi/2) E_2(1) = (pi/2)(1/e - E_1(1))
    e1 = 0.21938393439552027368  # the exponential integral E_1(1)
    return 0.5 * math.pi * (math.exp(-1.0) - e1)


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

    ``values[row_index[i]]`` is the row of ``times[i]``. Without an index,
    ``values`` shaped ``(len(times), len(xs))`` holds every row, and
    ``(1, len(xs))`` is constant in time, the all-zero index. ``beta`` is
    the spatial Holder exponent (constant 1) and ``slack`` the additive
    temporal allowance ``a`` in ``|u(t, x) - u(s, x)| <= |t - s|**(beta/2) + a``.
    """

    times: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    beta: float
    slack: float = 0.0
    row_index: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        for axis in (self.times, self.xs):
            if axis.size < 2:
                raise ValueError("grids need at least 2 points per axis")
            steps = np.diff(axis)
            if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
                raise ValueError("grids must be uniform and increasing")
        nt, nx = self.times.size, self.xs.size
        if self.row_index is None and self.values.shape in ((nt, nx), (1, nx)):
            self.row_index = np.arange(nt) if self.values.shape[0] == nt else np.zeros(nt, int)
        index = self.row_index = np.asarray(self.row_index)
        if not (self.values.shape[1:] == (nx,) and index.shape == (nt,) and index.dtype.kind in
                "iu" and 0 <= index.min() <= index.max() < len(self.values)):
            raise ValueError("values must be shaped (len(times), len(xs)) or (1, len(xs)), "
                             "or hold len(xs)-point rows that row_index maps each time to")

    @property
    def constant_in_time(self) -> bool:
        return not self.row_index.any()

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])


def _surface_grid(x_half_width: float, dt: float, dx: float):
    """Times on [0, 1] and points on [-L, L] with steps at most (dt, dx)."""
    nt = math.ceil(1.0 / dt - 1e-9)  # the realized steps never exceed dt and dx
    nx = math.ceil(x_half_width / dx - 1e-9)
    return np.arange(nt + 1) / nt, (np.arange(2 * nx + 1) - nx) * (x_half_width / nx)


def surface_from_function(
    fn, *, x_half_width: float, dt: float, dx: float, beta: float, slack: float = 0.0
) -> SampledSurface:
    """Sample ``fn(t, x)`` on [0, 1] x [-L, L] with steps at most (dt, dx).

    A result of one row, such as ``phi(x)``, is a time-constant surface.
    """
    times, xs = _surface_grid(x_half_width, dt, dx)
    return SampledSurface(times, xs, fn(times[:, None], xs[None, :]), beta=beta, slack=slack)


def surface_from_field(
    field: ValueField,
    *,
    x_half_width: float,
    dt: float,
    dx: float,
    beta: float,
    slack: float,
) -> SampledSurface:
    """Resample a solved field onto a uniform surface grid, steps at most (dt, dx).

    Time uses the field's piecewise-constant extension; space interpolates
    linearly, which preserves a Lipschitz certificate exactly (use beta = 1
    surfaces for field-derived inputs). Each stored level that some row
    reads is interpolated once, into one stored row of the surface; a level
    that does not span the surface's points raises
    :class:`DomainTooSmallError`, since interpolation would clamp it.
    """
    times, xs = _surface_grid(x_half_width, dt, dx)
    # every row's level as field.level_index finds it
    lvl = np.maximum(np.searchsorted(field.times, times + TIME_LOOKUP_TOL, side="right") - 1, 0)
    levels, row_index = np.unique(lvl, return_inverse=True)
    for k in levels.tolist():
        pts = field.xs[k]
        if pts.size == 0 or pts[0] > xs[0] or pts[-1] < xs[-1]:
            span = f"[{pts[0]:g}, {pts[-1]:g}]" if pts.size else "no points"
            t, end = field.times[k], f"[{xs[0]:g}, {xs[-1]:g}]"
            raise DomainTooSmallError(f"level at t = {t:g} spans {span}, not {end}")
    vals = np.empty((levels.size, xs.size))
    for row, k in zip(vals, levels.tolist()):
        row[:] = np.interp(xs, field.xs[k], field.values[k])
    return SampledSurface(times, xs, vals, beta=beta, slack=slack, row_index=row_index)


def _kernel_weights(surface: SampledSurface, spec: MollifierSpec) -> np.ndarray:
    """The width's kernel on the surface grid, normalized to unit discrete mass.

    Row ``p`` holds time offset ``-p * dt`` and column ``q`` space offset
    ``(q - q_count) * dx``: the kernel's time support is ``(-eps^2, 0)``, so
    row ``r`` of the correlation draws on times ``t_r .. t_r + eps^2``.
    Requires grid resolution at most ``eps/16`` in x and ``eps**2/16`` in t,
    and a surface that leaves at least 3 x 5 mollified points, the
    derivative stencils' extent.
    """
    e = spec.epsilon
    dt, dx = surface.dt, surface.dx
    if dt > e * e / 16.0 + 1e-12:
        raise ResolutionTooCoarseError(f"need dt <= eps^2/16, got {dt}")
    if dx > e / 16.0 + 1e-12:
        raise ResolutionTooCoarseError(f"need dx <= eps/16, got {dx}")
    p_count = math.ceil(e * e / dt - 1e-9)
    q_count = math.ceil(e / dx - 1e-9)
    nt, nx = surface.times.size, surface.xs.size
    if nt - p_count < 3 or nx - 2 * q_count < 5:
        raise DomainTooSmallError(
            f"surface leaves {nt - p_count} x {nx - 2 * q_count} mollified points, need 3 x 5"
        )
    t_off = -np.arange(p_count + 1) * dt
    x_off = (np.arange(2 * q_count + 1) - q_count) * dx
    weights = spec.kernel(t_off[:, None], x_off[None, :]) * (dt * dx)
    weights /= weights.sum()
    return weights


def _fast_len(n: int) -> int:
    """The smallest 5-smooth integer ``>= n``, a length pocketfft transforms fast."""
    best, p5 = 1 << (n - 1).bit_length(), 1  # a power of two to start from
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 times the least power of two that reaches n
            best, p35 = min(best, p35 << (-(-n // p35) - 1).bit_length()), 3 * p35
        p5 *= 5
    return best


def _correlation_chunks(values: np.ndarray, row_index: np.ndarray, weights: np.ndarray):
    """``out[r, c] = sum_{p, q} u[r + p, c + q] * weights[p, q]``, streamed,
    where ``u[i] = values[row_index[i]]``.

    Yields ``(lo, hi, block)`` per chunk of ``CHUNK_ROWS`` output rows:
    the rows ``lo:hi`` partition ``out``, and ``block`` holds rows
    ``max(lo - 1, 0):min(hi + 1, len(out))``, a one-row halo on each side
    where there is a row. Each chunk is an overlap-save slab: the FFT of
    the input rows it draws on times the flipped kernel's, padded in x only
    to the surface width (wrap-around reaches only the ``q - 1`` dropped
    columns). A slab transforms along x each stored row its input rows read
    once, gathers them, and carries nothing to the next slab. A row is
    computed in one slab only, so a halo row has its owner's bits. The
    transforms run in place in arrays made once per call, and ``block`` is
    a view that holds only until the next chunk is asked for.
    """
    (p, q), nt, nx = weights.shape, row_index.size, values.shape[1]
    rows, cols = nt - p + 1, nx - q + 1
    shape = (_fast_len(min(CHUNK_ROWS, rows) + p - 1), _fast_len(nx))
    kernel = np.fft.rfft2(weights[::-1, ::-1], shape)
    slab = np.empty_like(kernel)
    buffers = np.empty((2, CHUNK_ROWS + 2, shape[1]))  # taking the chunks in turn

    def correlate(lo: int, buf: np.ndarray):  # out rows lo:lo + n into buf[1 : 1 + n]
        n = min(CHUNK_ROWS, rows - lo)
        stored, gather = np.unique(row_index[lo : lo + n + p - 1], return_inverse=True)
        spectra = np.fft.rfft(values[stored], shape[1], axis=1)
        np.take(spectra, gather, axis=0, out=slab[: n + p - 1], mode="clip")  # clip: no buffer
        slab[n + p - 1 :] = 0.0
        np.fft.fft(slab, axis=0, out=slab)
        # the data's spectrum stays the first operand: complex products do not commute bitwise
        np.multiply(slab, kernel, out=slab)
        np.fft.ifft(slab, axis=0, out=slab)
        np.fft.irfft(slab[p - 1 : p - 1 + n], shape[1], axis=1, out=buf[1 : 1 + n])

    correlate(0, buffers[0])
    for i, lo in enumerate(range(0, rows, CHUNK_ROWS)):
        now, later = buffers[i % 2], buffers[1 - i % 2]
        hi = min(lo + CHUNK_ROWS, rows)
        if hi < rows:  # the next chunk, and the halo rows the two share
            correlate(hi, later)
            now[1 + hi - lo], later[0] = later[1], now[hi - lo]
        yield lo, hi, now[int(lo == 0) : 1 + hi - lo + (hi < rows), q - 1 : q - 1 + cols]


def _mollified(surface: SampledSurface, spec: MollifierSpec):
    """The width's output times and points, kernel shape and chunk stream.

    A surface constant in time is mollified as its row correlated once
    with the kernel summed over time: its one chunk ``(0, 1)`` holds that
    row three times, as its own equal neighbours in time.
    """
    weights = _kernel_weights(surface, spec)
    (p, q), nt, nx = weights.shape, surface.times.size, surface.xs.size
    grid = surface.times[: nt - p + 1], surface.xs[q // 2 : nx - q // 2], (p, q)
    if not surface.constant_in_time:
        return *grid, _correlation_chunks(surface.values, surface.row_index, weights)
    row = np.correlate(surface.values[surface.row_index[0]], weights.sum(axis=0), "valid")
    return *grid, iter([(0, 1, np.repeat(row[None], 3, axis=0))])


def mollify(surface: SampledSurface, spec: MollifierSpec) -> SampledSurface:
    """Discrete convolution with the scaled kernel by tensor quadrature.

    The kernel weights are normalized to unit discrete mass, so constants
    are preserved exactly and the sup norm never grows. Output lives on
    times ``[t0, t_end - eps^2]`` and the x-grid shrunk by ``ceil(eps/dx)``
    points per side, in one row for a surface constant in time. The streamed
    correlation's chunks are gathered, which the checks never do.
    """
    times, xs, _, chunks = _mollified(surface, spec)
    # past the halo below; a block holds only until the next chunk
    values = np.concatenate([block[int(lo > 0) :][: hi - lo].copy() for lo, hi, block in chunks])
    return SampledSurface(times, xs, values, beta=surface.beta, slack=surface.slack)


def _strided(n: int, cap: int) -> np.ndarray:
    # linspace(0, n - 1, cap) rounded; its points step by (n - 1)/(cap - 1) > 1 past the cap
    if n <= cap or cap == 1:
        return np.arange(min(n, cap))
    return (np.arange(cap) * ((n - 1) / (cap - 1))).round().astype(int)


def _holder_excess(coords, values, exponent: float, slack: float) -> float:
    """Worst excess of a Holder-type modulus over pairs along axis 0.

    Returns the largest ``|values[i] - values[j]|`` minus
    ``|coords[i] - coords[j]|**exponent + slack``, floored at zero, over
    the pairs ``j >= i`` of the ascending ``coords`` (non-ascending ones
    raise ``ValueError``); the diagonal keeps a negative ``slack`` visible.
    Further axes of ``values`` are lines compared at the same pair. For
    ``exponent == 1`` the coordinates may also be shaped like ``values``,
    each line on its own ones.

    For ``exponent == 1`` the pair excess is ``max(a_j - a_i, b_j - b_i)``
    with ``a = v - x`` and ``b = -v - x``, so the worst pair is one scan:
    ``max_j (a_j - min_{i <= j} a_i)``, and the same for ``b``, minus
    ``slack``, in O(n) per line. Float subtraction rounds monotonically, so
    this is bit for bit the all-pairs max of ``(v_j - x_j) - (v_i - x_i)``
    minus ``slack``. In exact arithmetic that is the ``|.|`` form; in
    floats the two differ. With ``u = 2**-53``, ``A = max|v| + max|x|`` and
    ``s = |slack|``, the scan rounds ``v - x`` at both ends of a pair (up to
    ``2uA``), their difference (``2uA``) and the slack subtraction
    (``u (2A + s)``), so it lies within ``6uA + us`` of the exact excess.
    The ``|.|`` form rounds the two differences (``2uA``), the bound plus
    slack (``u (2 max|x| + s)``) and the excess (``u (2A + s)``), so it lies
    within ``6uA + 2us``. Taking the max over pairs and flooring at zero
    widen neither gap, so the forms differ by at most ``12uA + 3us`` plus
    terms in ``u**2``, below ``2**-49 * (A + s)``.

    Other exponents form the pairs ``j >= i``, a block of pair rows at a
    time, about ``PAIR_BLOCK`` differences per block.
    """
    if np.any(np.diff(coords, axis=0) < 0):
        raise ValueError("Holder coordinates must ascend")
    line_axes = (1,) * (values.ndim - 1)
    if exponent == 1:
        x = coords if coords.shape == values.shape else coords.reshape(-1, *line_axes)
        line, run_min = np.empty_like(values), np.empty_like(values)
        worst = 0.0
        for sign in (1.0, -1.0):
            np.subtract(np.multiply(values, sign, out=line), x, out=line)
            np.minimum.accumulate(line, axis=0, out=run_min)
            worst = max(worst, float(np.max(np.subtract(line, run_min, out=line))))
        return max(0.0, worst - slack)
    worst = 0.0
    rows = max(1, PAIR_BLOCK // values.size)
    for i in range(0, coords.size, rows):
        bound = np.abs(coords[i:, None] - coords[None, i : i + rows]) ** exponent + slack
        diff = np.abs(values[i:, None] - values[None, i : i + rows])
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
    ``HYPOTHESIS_TOL``, and :class:`NonFiniteValuesError` on a NaN or an
    infinity anywhere in the surface.
    """
    _check_finite(surface.values, "the surface")
    rows = _strided(1 if surface.constant_in_time else surface.times.size, HYPOTHESIS_LINES)
    cols = _strided(surface.xs.size, HYPOTHESIS_LINES)
    vsub = surface.values[np.ix_(surface.row_index[rows], cols)]
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
    halo, through three block arrays allocated once per call, so no
    chunk-sized derivative array is ever formed; at 32 rows a block's
    arrays stay in cache, which beats larger and smaller blocks on surfaces
    about 1,250 columns wide. Every element sees the operations of the
    written formulas in their order, so the block arrays change no bit.
    """
    core_buf, term_buf = np.empty((2, DERIV_BLOCK, u.shape[1] - 4))
    d2x_buf = np.empty((DERIV_BLOCK + 2, u.shape[1] - 4))
    block_max = []
    for r0 in range(1, u.shape[0] - 1, DERIV_BLOCK):
        w = u[r0 - 1 : r0 + DERIV_BLOCK + 1]
        mid = w[1:-1]
        k = mid.shape[0]
        core, term, d2x = core_buf[:k], term_buf[:k], d2x_buf[: k + 2]
        # d2t = (w[+1] - 2 mid + w[-1]) / dt^2
        np.multiply(mid[:, 2:-2], 2.0, out=core)
        np.subtract(w[2:, 2:-2], core, out=core)
        core += w[:-2, 2:-2]
        core /= dt**2
        np.abs(core, out=core)
        # d4x = (m[+2] - 4 m[+1] + 6 m - 4 m[-1] + m[-2]) / dx^4; d2x is free
        np.multiply(mid[:, 3:-1], 4.0, out=term)
        np.subtract(mid[:, 4:], term, out=term)
        term += np.multiply(mid[:, 2:-2], 6.0, out=d2x[:k])
        term -= np.multiply(mid[:, 1:-3], 4.0, out=d2x[:k])
        term += mid[:, :-4]
        term /= dx**4
        core += np.abs(term, out=term)
        # d2x = (w[+1] - 2 w + w[-1]) / dx^2, halo rows included
        np.multiply(w[:, 2:-2], 2.0, out=d2x)
        np.subtract(w[:, 3:-1], d2x, out=d2x)
        d2x += w[:, 1:-3]
        d2x /= dx**2
        # dt d2x = (d2x[+1] - d2x[-1]) / (2 dt)
        np.subtract(d2x[2:], d2x[:-2], out=term)
        term /= 2.0 * dt
        core += np.abs(term, out=term)
        block_max.append(np.max(core))
    return float(np.max(block_max))


def _derivative_modulus(coords, f1, f2, exponent: float, a: float) -> float:
    """Worst ``(|f1[i] - f1[j]| + |f2[i] - f2[j]|) / (|c_i - c_j|**exponent + a)``.

    Rows ``i`` and ``j`` run along axis 0 and the numerator takes its max
    over the remaining axis. The ``1e-300`` guard sends the diagonal to 0
    and rounds away in every other denominator. Both sides are symmetric in
    ``i`` and ``j``, so a block of rows ``i`` meets the rows ``j >= i`` only,
    about ``PAIR_BLOCK`` differences per block.
    """
    worst = 0.0
    rows = max(1, PAIR_BLOCK // f1.size)
    for i in range(0, coords.size, rows):
        num = np.abs(f1[i:, None] - f1[None, i : i + rows])
        num += np.abs(f2[i:, None] - f2[None, i : i + rows])
        gap = np.abs(coords[i:, None] - coords[None, i : i + rows])
        worst = max(worst, float(np.max(np.max(num, axis=2) / (gap**exponent + a + 1e-300))))
    return worst


@dataclass(frozen=True)
class SmoothingRow:
    eps: float
    kernel_points: tuple[int, int]
    modulus_lines: tuple[int, int]  # strided times and points of the derivative moduli
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


def _scaling_ok(values) -> bool:
    # genuinely present scaled quantities are kernel-constant sized, O(0.1)
    # and up, and must stay within a factor 10; anything below 1e-6 is
    # rounding noise around an absent quantity (e.g. the d4x of a constant
    # phi); a one-row surface's time moduli are exactly 0 and need no floor
    lo, hi = min(values), max(values)
    if hi <= 1e-6:
        return True
    return hi <= 10.0 * max(lo, 1e-300)


def _smoothing_row(surface: SampledSurface, eps: float) -> SmoothingRow:
    """The checks of :func:`verify_smoothing_bounds` at one width.

    The mollified surface streams past in chunks: each feeds the sup gap,
    the derivative maxima and the rows around the strided lines, and only
    those rows are kept.
    """
    beta, a = surface.beta, surface.slack
    times, xs, (p, q), chunks = _mollified(surface, MollifierSpec(eps))
    q_trim = q // 2  # ceil(eps / dx)
    dt, dx = float(times[1] - times[0]), float(xs[1] - xs[0])  # of the output grid

    # first time and second space derivatives at strided interior lines (one
    # for a one-row output, whose row is every row), columns at most
    # ceil(q_trim / 4) apart
    lines = _strided(times.size - 2, 1 if surface.constant_in_time else VERIFY_LINES) + 1
    cols = _strided(xs.size - 2, max(VERIFY_LINES, -(-(xs.size - 3) // -(-q_trim // 4)) + 1)) + 1
    near = lines + np.arange(-1, 2)[:, None]
    kept = np.empty((*near.shape, xs.size))
    gaps, derivs = [], []
    for lo, hi, block in chunks:
        start = max(lo - 1, 0)
        gap = surface.values[surface.row_index[lo:hi], q_trim : q_trim + xs.size]
        gap = np.subtract(block[lo - start : hi - start], gap, out=gap)
        gaps.append(np.max(np.abs(gap, out=gap)))
        if block.shape[0] > 2:
            derivs.append(_max_core_derivatives(block, dt, dx))
        inside = (near >= start) & (near < start + block.shape[0])
        kept[inside] = block[near[inside] - start]
    sup_gap = float(np.max(gaps))
    sup_bound = 2.0 * eps**beta + a

    below, at, above = kept
    f1 = (above[:, cols] - below[:, cols]) / (2.0 * dt)
    f2 = (at[:, cols + 1] - 2.0 * at[:, cols] + at[:, cols - 1]) / dx**2

    return SmoothingRow(
        eps=eps,
        kernel_points=(p, q),
        modulus_lines=(lines.size, cols.size),
        sup_gap=sup_gap,
        sup_bound=sup_bound,
        sup_ok=sup_gap <= sup_bound * (1.0 + 1e-9) + FP_SLACK,
        scaled_derivatives=eps**4 * float(np.max(derivs)) / (eps**beta + a),
        scaled_temporal_modulus=eps**2 * _derivative_modulus(times[lines], f1, f2, beta / 2.0, a),
        scaled_spatial_modulus=eps**2 * _derivative_modulus(xs[cols], f1.T, f2.T, beta, 0.0),
    )


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
    audit_surface_hypotheses(surface)
    rows = [_smoothing_row(surface, float(eps)) for eps in eps_list]
    return SmoothingReport(
        rows=tuple(rows),
        sup_ok=all(r.sup_ok for r in rows),
        derivative_scaling_ok=_scaling_ok([r.scaled_derivatives for r in rows]),
        temporal_scaling_ok=_scaling_ok([r.scaled_temporal_modulus for r in rows]),
        spatial_scaling_ok=_scaling_ok([r.scaled_spatial_modulus for r in rows]),
    )


def _spatial_excess(field: ValueField, beta: float) -> tuple[float, int]:
    """The spatial audit's worst excess and the points it checked.

    A Lipschitz scan reads each line's own points, so levels of any size
    share a batch, each padded at the top with its first point (adding
    exactly 0); other exponents share one bound matrix per run of one size.
    """
    sizes = [x.size for x in field.xs]
    strided = {n: _strided(n, REGULARITY_POINTS) for n in set(sizes)}
    groups = itertools.groupby(range(len(sizes)), key=lambda k: 0 if beta == 1 else sizes[k])
    spatial, points_checked = 0.0, 0
    for members in (list(g) for _, g in groups):
        for b in range(0, len(members), LEVEL_BATCH):
            batch = members[b : b + LEVEL_BATCH]
            idxs = [strided[sizes[k]] for k in batch]
            rows = max(idx.size for idx in idxs)
            lines = np.empty((2, len(batch), rows))  # points and values
            for line, k, idx in zip(lines.transpose(1, 0, 2), batch, idxs):
                line[:, rows - idx.size :] = field.xs[k][idx], field.values[k][idx]
                line[:, : rows - idx.size] = line[:, rows - idx.size, None]
            x = lines[0].T if beta == 1 else lines[0, 0]
            spatial = max(spatial, _holder_excess(x, lines[1].T, beta, 0.0))
            points_checked += sum(idx.size for idx in idxs)
    return spatial, points_checked


def _pair_bounds(times: np.ndarray, beta: float, sigma_bar: float) -> np.ndarray:
    """``sigma_bar**beta * |t_i - t_j|**(beta/2)`` for all pairs of ``times``:
    one scalar power per distinct gap, since numpy's array power rounds
    some inputs otherwise."""
    gaps, pair_gap = np.unique(np.abs(times[:, None] - times).ravel(), return_inverse=True)
    bounds = sigma_bar**beta * np.array([g ** (beta / 2.0) for g in gaps.tolist()])
    return bounds[pair_gap].reshape(times.size, times.size)


def _temporal_excess(
    field: ValueField, levels: np.ndarray, beta: float, sigma_bar: float
) -> tuple[float, int]:
    """Worst temporal excess over all pairs of ``levels``, and the pairs compared.

    The levels, smallest first, sit centred in the rows of one matrix.
    Every level is the centred stretch of the widest one (checked by
    :func:`regularity_audit`), so a pair shares the smaller level's points,
    at that level's columns in both rows.
    """
    order = sorted(levels, key=lambda k: (field.xs[k].size, k))
    sizes = np.array([field.xs[k].size for k in order], dtype=int)
    width = sizes[-1]
    offsets = (width - sizes) // 2
    bound = _pair_bounds(field.times[order], beta, sigma_bar)
    matrix = np.zeros((len(order), width))
    for p, k in enumerate(order):
        matrix[p, offsets[p] : offsets[p] + sizes[p]] = field.values[k]
    diffs = np.zeros((len(order), len(order)))  # [p, q]: max |v_q - v_p| at p's strided points
    buf = np.empty(len(order) * min(width, REGULARITY_POINTS))
    for p in range(len(order) - 1):
        size, offset = sizes[p], offsets[p]
        if p == 0 or size != sizes[p - 1]:  # the levels of one size read one block
            first, idx = p, _strided(size, REGULARITY_POINTS)
            block = matrix[p:, offset : offset + size]
            if idx.size < size:  # take keeps the gathered rows contiguous
                block = np.take(block, idx, axis=1)
        rest = block[p - first + 1 :]  # a view of one block only, so two are never alive
        diff = np.subtract(rest, block[p - first], out=buf[: rest.size].reshape(rest.shape))
        np.max(np.abs(diff, out=diff), axis=1, out=diffs[p, p + 1 :])
    excess = np.subtract(diffs, bound, out=diffs)[np.triu_indices(len(order), 1)]
    return float(np.max(excess, initial=0.0)), excess.size


@dataclass(frozen=True)
class RegularityReport:
    spatial_excess: float
    temporal_excess: float
    slack: float
    passed: bool
    spatial_levels_checked: int
    temporal_levels_checked: int
    temporal_pairs_checked: int  # level pairs compared: all of them
    points_checked: int  # by the spatial audit


def regularity_audit(
    field: ValueField,
    beta: float,
    sigma_bar: float,
    slack: float,
) -> RegularityReport:
    """Audit a solved field against its Holder certificates.

    Spatial: ``|v(t,x) - v(t,y)| <= |x-y|**beta`` within every stored
    level, at up to ``REGULARITY_POINTS`` strided points per level; for
    ``beta = 1`` a level is one running-minimum scan (see
    :func:`_holder_excess` for its rounding bound). Temporal:
    ``|v(t,x) - v(s,x)| <= sigma_bar**beta * |t-s|**(beta/2)`` at the
    shared points of every pair of up to ``REGULARITY_LEVELS`` strided
    levels. Each level must be the centred stretch ``widest[off : off + n]``
    of the widest level's ``W`` points, ``W - n`` even and ``n > 0``, as
    the solvers' cones and grids are, so that every pair shares the smaller
    level's points; ``ValueError`` names the first level that is not. The
    report counts the levels of each audit and the level pairs compared.
    Excess is reported raw; the verdict grants the documented float-rounding
    envelope on top of ``slack``, so ``slack = 0`` means "no violation
    beyond rounding". A NaN or an infinity in any stored level raises
    :class:`NonFiniteValuesError`.
    """
    widest = max(field.xs, key=np.size)
    for k, (xs, values) in enumerate(zip(field.xs, field.values)):
        off, odd = divmod(widest.size - xs.size, 2)
        if not xs.size or odd or not np.array_equal(xs, widest[off : off + xs.size]):
            raise ValueError(f"level {k} is not a centred stretch of the widest level's points")
        _check_finite(values, f"level {k}")

    spatial, points_checked = _spatial_excess(field, beta)
    levels = _strided(field.times.size, REGULARITY_LEVELS)
    temporal, pairs = _temporal_excess(field, levels, beta, sigma_bar)
    worst = max(spatial, temporal)
    return RegularityReport(
        spatial_excess=spatial,
        temporal_excess=temporal,
        slack=slack,
        passed=worst <= slack + FP_SLACK,
        spatial_levels_checked=len(field.xs),
        temporal_levels_checked=int(levels.size),
        temporal_pairs_checked=pairs,
        points_checked=points_checked,
    )
