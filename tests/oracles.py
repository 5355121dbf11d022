"""Independent oracles for the test suite.

Everything here deliberately avoids the package's solver code paths:
expectation by exhaustive product enumeration, exact convolution of lattice
laws, exact-rational expectations under the law of a lattice walk, textbook
Gaussian closed forms, Gauss-Hermite quadrature, seeded
sample pairs for the payoff certificates, a plain march of one volatility
policy for the scheme, a long-double march of the linear scheme, all-pairs
Holder excesses for the regularity audits, row-by-row resampling of
fields, and whole-array FFTs, derivatives and per-line moduli for the
mollification checks.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)  # mean of |N(0, 1)|
TWO_OVER_ROOT_PI = 2.0 / math.sqrt(math.pi)  # mean of |N(0, 2)|


def enumerate_value(dist, payoff, n: int) -> float:
    """E payoff(sum of n iid draws / sqrt(n)) over all |support|^n outcomes."""
    root = math.sqrt(n)
    support, probs = dist.support, dist.probs
    total = 0.0
    for combo in itertools.product(range(len(support)), repeat=n):
        p = 1.0
        s = 0.0
        for i in combo:
            p *= probs[i]
            s += support[i]
        total += p * payoff(s / root)
    return total


def convolution_value(dist, payoff, n: int) -> float:
    """Same expectation via n-fold pmf convolution on an integer lattice."""
    offsets = [round(x) for x in dist.support]
    if any(abs(o - x) > 1e-12 for o, x in zip(offsets, dist.support)):
        raise ValueError("convolution oracle needs integer support")
    reach = max(abs(o) for o in offsets)
    base = np.zeros(2 * reach + 1)
    for o, p in zip(offsets, dist.probs):
        base[o + reach] = p
    pmf = base.copy()
    for _ in range(n - 1):
        pmf = np.convolve(pmf, base)
    half = (pmf.size - 1) // 2
    points = (np.arange(pmf.size) - half) / math.sqrt(n)
    return float(np.dot(pmf, payoff(points)))


@functools.lru_cache(maxsize=8)
def _hermgauss(nodes: int):
    # scipy's rule stays stable into the thousands of nodes, unlike the
    # eigenvalue route in numpy.polynomial
    from scipy.special import roots_hermite

    return roots_hermite(nodes)


def gauss_hermite_expectation(payoff, sigma: float, nodes: int = 256) -> float:
    """``E payoff(sigma * W)`` by Gauss-Hermite quadrature."""
    if nodes < 64:
        raise ValueError("use at least 64 nodes")
    z, w = _hermgauss(nodes)
    vals = payoff(sigma * math.sqrt(2.0) * z)
    return float(np.dot(w, vals) / math.sqrt(math.pi))


def binomial_abs_mean(n: int) -> float:
    """E |S_n| / sqrt(n) for a fair +-1 walk, from the binomial pmf.

    The sum runs in exact integers and is divided by ``2**n`` once, so it
    neither overflows nor rounds at any depth.
    """
    total, comb = 0, 1  # comb = C(n, k)
    for k in range(n + 1):
        total += comb * abs(n - 2 * k)
        comb = comb * (n - k) // (k + 1)
    return total / 2**n / math.sqrt(n)


@functools.lru_cache(maxsize=16)
def _walk_law(probs, offsets, n: int):
    """Integer weights of ``S_n`` on ``n * offsets[0] + g * t`` and their denominator."""
    ratios = [Fraction(p) for p in probs]
    den = max(r.denominator for r in ratios)  # every denominator is a power of two
    weights = [int(r * den) for r in ratios]
    lo = offsets[0]
    g = math.gcd(*(o - lo for o in offsets)) or 1
    width = (offsets[-1] - lo) // g
    size = (sum(weights).bit_length() * n) // 8 + 1  # bytes per coefficient
    base = sum(w << (8 * size * ((o - lo) // g)) for o, w in zip(offsets, weights))
    raw = (base**n).to_bytes(size * (width * n + 1), "little")
    coeffs = [
        int.from_bytes(raw[t * size : (t + 1) * size], "little") for t in range(width * n + 1)
    ]
    return g, coeffs, den**n


def law_expectation(dist, payoff, n: int, step: float) -> Fraction:
    """``E payoff(S_n h)``, ``h = step / sqrt(n)``, as an exact rational.

    ``S_n`` sums n draws of ``dist`` in lattice units. The float probabilities
    are taken as exact fractions, so the law of ``S_n`` is the n-th power of
    an integer polynomial, taken as one big-integer power by Kronecker
    substitution. The payoff is evaluated in floats at ``j * h``, the points
    the solvers price, and its values enter exactly.
    """
    offsets = tuple(round(s / step) for s in dist.support)
    g, coeffs, den = _walk_law(dist.probs, offsets, n)
    j = n * offsets[0] + g * np.arange(len(coeffs))
    ratios = [float(v).as_integer_ratio() for v in payoff(j * (step / math.sqrt(n)))]
    scale = max(d for _, d in ratios)  # a power of two
    total = sum(c * num * (scale // d) for c, (num, d) in zip(coeffs, ratios))
    return Fraction(total, den * scale)


def sup_recursion_value(dists, payoff, n: int, step: float, window=None) -> float:
    """Origin value of the sup-recursion over ``dists``, one point at a time.

    Plain-Python backward recursion on the lattice ``step * Z`` scaled by
    ``1/sqrt(n)``: every level keeps a dict from lattice index to value.
    With ``window`` a level recomputes only ``|j| <= window`` and every
    other point keeps its terminal value.
    """
    root = math.sqrt(n)
    laws = [([round(s / step) for s in d.support], d.probs) for d in dists]
    reach = max(abs(o) for offs, _ in laws for o in offs)
    terminal = {
        j: float(payoff(j * step / root)) for j in range(-n * reach, n * reach + 1)
    }
    values = terminal
    for k in range(n - 1, -1, -1):
        w = k * reach if window is None else min(k * reach, window)
        values = {
            **terminal,
            **{
                j: max(
                    sum(p * values[j + o] for o, p in zip(offs, probs))
                    for offs, probs in laws
                )
                for j in range(-w, w + 1)
            },
        }
    return values[0]


def sampled_pairs(count: int, seed: int, x_range=(-4.0, 4.0)):
    """``count`` seeded uniform pairs ``(x, y)`` from ``x_range``, gaps above 1e-9."""
    xy = np.random.default_rng(seed).uniform(*x_range, size=(count, 2))
    keep = np.abs(xy[:, 0] - xy[:, 1]) > 1e-9
    return xy[keep, 0], xy[keep, 1]


def policy_march(terminal, a_lo, a_hi, steps: int, policy):
    """Backward march of ``u + a * d2u`` under a per-point weight policy.

    ``d2u`` is the plain second difference on the interior; the two end
    values stay frozen. ``policy(k, d2u)`` gives the weights of step ``k``
    (counted down to 0); they are clipped into ``[a_lo, a_hi]``, so every
    callable is an admissible policy.
    """
    u = np.array(terminal, dtype=float)
    for k in range(steps - 1, -1, -1):
        d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
        u[1:-1] += np.clip(policy(k, d2), a_lo, a_hi) * d2
    return u


def long_double_heat_march(terminal, a, ms):
    """Levels of the linear scheme ``u += a * d2u`` after each ``m`` in ``ms`` steps.

    The march runs in ``np.longdouble`` (64-bit significand on x86-64) with
    the two end values frozen; the levels come back as float64.
    """
    u = np.array(terminal, dtype=np.longdouble)
    a = np.longdouble(a)
    levels = {}
    for m in range(max(ms) + 1):
        if m in ms:
            levels[m] = u.astype(float)
        u[1:-1] += a * (u[2:] - 2 * u[1:-1] + u[:-2])
    return [levels[m] for m in ms]


def strided(n: int, cap: int) -> np.ndarray:
    """``range(n)``, or ``cap`` evenly spread indices of it with both ends kept."""
    if n <= cap:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, cap).round().astype(int))


def pair_excess(coords, lines, exponent: float) -> float:
    """Worst ``|f(x) - f(y)| - |x - y|**exponent`` over every pair ``(x, y)``
    of ``coords`` and every line ``f`` of ``lines``, floored at 0."""
    bound = np.abs(coords[:, None] - coords[None, :]) ** exponent
    worst = 0.0
    for line in lines:
        worst = max(worst, float(np.max(np.abs(line[:, None] - line[None, :]) - bound)))
    return worst


def holder_excess(coords, lines, exponent: float) -> float:
    """:func:`pair_excess`, with an exponent-1 pair ``x <= y`` evaluated as
    ``max((s f(y) - y) - (s f(x) - x) for s in (1, -1))``: the same number
    in exact arithmetic, and the form the audit's scan rounds."""
    if exponent != 1:
        return pair_excess(coords, lines, exponent)
    ordered = coords[:, None] >= coords[None, :]  # [y, x] with x <= y
    worst = 0.0
    for line in lines:
        for a in (line - coords, -line - coords):
            gain = a[:, None] - a[None, :]
            worst = max(worst, float(np.max(gain[ordered])))
    return worst


def regularity_excess(field, beta: float, sigma_bar: float, points: int, levels: int):
    """Spatial and temporal excess of a field, with the counts checked.

    Spatial: every pair of the (at most ``points``) strided points of every
    level, against ``|x - y|**beta``. Temporal: every pair of the (at most
    ``levels``) strided levels, at the strided points of the middle stretch
    of the larger level that matches the smaller one in size, against
    ``sigma_bar**beta * |t - s|**(beta/2)``. Every level is taken to hold
    points, each pair's stretches to be equal. Returns ``(spatial,
    temporal, spatial_levels, temporal_levels, temporal_pairs,
    points_checked)``, where ``temporal_pairs`` counts the pairs compared.
    """
    spatial, points_checked = 0.0, 0
    for xs, vs in zip(field.xs, field.values):
        idx = strided(xs.size, points)
        spatial = max(spatial, holder_excess(xs[idx], [vs[idx]], beta))
        points_checked += idx.size
    temporal, pairs = 0.0, 0
    ks = strided(field.times.size, levels)
    for a, i in enumerate(ks):
        for j in ks[a + 1 :]:
            ni, nj = field.xs[i].size, field.xs[j].size
            m = min(ni, nj)
            oi, oj = (ni - m) // 2, (nj - m) // 2
            idx = strided(m, points)
            vi = field.values[i][oi : oi + m][idx]
            vj = field.values[j][oj : oj + m][idx]
            bound = sigma_bar**beta * abs(field.times[j] - field.times[i]) ** (beta / 2.0)
            temporal = max(temporal, float(np.max(np.abs(vi - vj))) - bound)
            pairs += 1
    return spatial, temporal, len(field.xs), int(ks.size), pairs, points_checked


def field_rows(field, times, xs):
    """``field`` resampled one time at a time: the last level stored at or
    before ``t`` plus the 1e-12 lookup tolerance, interpolated linearly at ``xs``."""
    rows = np.empty((times.size, xs.size))
    for i, t in enumerate(times):
        level = max((k for k, s in enumerate(field.times) if s <= t + 1e-12), default=0)
        rows[i] = np.interp(xs, field.xs[level], field.values[level])
    return rows


def derivative_modulus(coords, f1, f2, exponent: float, a: float) -> float:
    """Worst ``(|f1[i] - f1[j]| + |f2[i] - f2[j]|) / (|c_i - c_j|**exponent + a)``,
    one line ``i`` of axis 0 at a time against all of them, the numerator's
    max taken over axis 1, with the ``1e-300`` guard on the diagonal."""
    worst = 0.0
    for i in range(coords.size):
        num = np.max(np.abs(f1 - f1[i]) + np.abs(f2 - f2[i]), axis=1)
        gap = np.abs(coords - coords[i])
        worst = max(worst, float(np.max(num / (gap**exponent + a + 1e-300))))
    return worst


def whole_array_derivatives(u, dt, dx):
    """First time and second space derivatives, and the core derivative sum."""
    d2t = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / dt**2
    d4x = (
        u[:, 4:] - 4.0 * u[:, 3:-1] + 6.0 * u[:, 2:-2] - 4.0 * u[:, 1:-3] + u[:, :-4]
    ) / dx**4
    d2x = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2
    d1t = (u[2:, :] - u[:-2, :]) / (2.0 * dt)
    dt_d2x = (d2x[2:, :] - d2x[:-2, :]) / (2.0 * dt)
    core = np.abs(d2t[:, 2:-2]) + np.abs(d4x[1:-1, :]) + np.abs(dt_d2x[:, 1:-1])
    return d1t, d2x, core


def smoothing_row(surface, eps: float, u, lines_cap: int) -> dict:
    """One width's mollification check from whole arrays, its verdict left out.

    ``u`` is the width-``eps`` mollified surface as one array; its kernel
    has ``ceil(eps**2 / dt) + 1`` rows and ``2 ceil(eps / dx) + 1`` columns.
    The derivative moduli take every pair of at most ``lines_cap`` strided
    times and of strided points at most ``ceil(ceil(eps / dx) / 4)`` apart
    (at least ``lines_cap`` of them), as one pair matrix. The surface's
    rows are gathered through its ``row_index``; a surface whose times all
    read one stored row stands for that row at every time, and its moduli
    read one strided time.
    """
    dt, dx = surface.dt, surface.dx
    p, q = math.ceil(eps * eps / dt - 1e-9), math.ceil(eps / dx - 1e-9)
    assert u.shape == (surface.times.size - p, surface.xs.size - 2 * q)
    times, xs = surface.times[: u.shape[0]], surface.xs[q : q + u.shape[1]]
    dt, dx = times[1] - times[0], xs[1] - xs[0]
    beta, a = surface.beta, surface.slack
    rows = surface.values[surface.row_index]

    d1t, d2x, core = whole_array_derivatives(u, dt, dx)
    lines = strided(d1t.shape[0], lines_cap if surface.row_index.any() else 1)
    n = d1t.shape[1] - 2
    cols = strided(n, max(lines_cap, math.ceil((n - 1) / math.ceil(q / 4)) + 1))
    assert np.max(np.diff(cols)) <= math.ceil(q / 4)
    f1 = d1t[np.ix_(lines, cols + 1)]
    f2 = d2x[np.ix_(lines + 1, cols)]
    # pair_t[i, j, c]: both derivative gaps between strided lines i and j
    pair_t = np.abs(f1[:, None] - f1[None, :]) + np.abs(f2[:, None] - f2[None, :])
    t = times[1:-1][lines]
    t_gap = np.abs(t[:, None] - t[None, :]) ** (beta / 2.0) + a + 1e-300
    pair_x = np.abs(f1[:, :, None] - f1[:, None]) + np.abs(f2[:, :, None] - f2[:, None])
    x = xs[1:-1][cols]
    x_gap = np.abs(x[:, None] - x[None, :]) ** beta + 0.0 + 1e-300

    return {
        "eps": eps,
        "kernel_points": (p + 1, 2 * q + 1),
        "modulus_lines": (lines.size, cols.size),
        "sup_gap": float(np.max(np.abs(u - rows[: u.shape[0], q : q + u.shape[1]]))),
        "sup_bound": 2.0 * eps**beta + a,
        "scaled_derivatives": eps**4 * float(np.max(core)) / (eps**beta + a),
        "scaled_temporal_modulus": eps**2 * float(np.max(np.max(pair_t, axis=2) / t_gap)),
        "scaled_spatial_modulus": eps**2 * float(np.max(np.max(pair_x, axis=0) / x_gap)),
    }
