"""Backward sup-expectation recursion for scaled random walks.

The recursion starts from the terminal function and, one level at a time,
replaces each value by the largest expectation of the next level over the
family, with steps scaled by ``1/sqrt(n)``. Each execution mode has its own
plain level loop, :func:`_lattice_march` or :func:`_grid_march`. (The G-heat
scheme is a sup-recursion over three-point laws too, but keeps its own,
faster stencil step.)

* ``lattice`` (used whenever the family has a common support step ``delta``):
  level ``k`` lives on the cone ``{j * delta/sqrt(n) : |j| <= k * m}`` where
  ``m`` is the largest support point in lattice units. Every lookup is an
  exact shift, so the origin value carries no interpolation error: it is
  exact up to float rounding (documented <= 1e-12 at desk scale) and a
  certified window bound <= ``WINDOW_TOL = 1e-16``. :func:`origin_value`
  marches ``|j| <= J`` at every level and keeps the points beyond ``J`` at
  their terminal values, where ``J`` comes from Freedman's inequality
  (see :func:`lattice_window`). A family with one member has one law to
  pick, so its recursion is linear: :func:`origin_value` then skips the
  march and takes ``E payoff(S_n h)`` from the law of the walk, built by
  binary powering of the step law in about ``2 log2 n`` convolutions of at
  most ``2 J + 1`` points (:func:`_law_value`, window :func:`law_window`).
  :func:`solve_recursion` marches the whole cone at every level and stores
  each level's cone. :func:`origin_value`, and so every rate experiment,
  uses this mode whenever the family has a lattice step: even a small
  interpolation bias would pollute slope fits for exponents as small as 1/6.
* ``grid``: a fixed uniform grid with linear interpolation. Positions that
  step beyond the grid are priced by the terminal function itself; far from
  the evaluation cone the solution hugs the terminal data, so with a half
  width of at least ``8 * sigma_bar`` the boundary bias is Gaussian-tail
  negligible. Smaller grids are refused. :func:`origin_value` marches a
  family without a lattice step on :func:`default_grid` (step ``1/n``),
  whose interpolation bias is part of the value it returns.

Determinism contract: per-point sums run over ascending support, members are
reduced with a pointwise max in fixed order after all expectations are
formed, and levels are sequential. Vectorization across points preserves the
sequential result bit for bit, and a value on the cone does not depend on
how far beyond the cone its level is marched. Even data under a family that
holds every member's mirror law (``-X``) gives exact palindromes when every
law has two atoms, since float ``+`` and ``max`` commute; a law with three
or more atoms sums its atoms at ``-j`` in the reverse order of ``+j``, so
the two sides can differ by about 1 ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmallError, LabError
from .families import DiscreteDist, Family, moment
from .fields import GridSpec, ValueField
from .payoffs import Payoff

FLOAT_ROUNDING = 1e-12  # documented rounding envelope for desk-scale n
WINDOW_TOL = 1e-16  # certified bound on what the lattice window moves the origin


class ModeMismatchError(LabError, ValueError):
    """Lattice mode requested for a family without a common lattice step."""


def _lattice_offsets(dist: DiscreteDist, step: float) -> tuple[int, ...]:
    offsets = []
    for s in dist.support:
        j = round(s / step)
        if abs(s - j * step) > 1e-9 * max(1.0, abs(s)):
            raise ModeMismatchError(f"support point {s} is off the lattice {step}*Z")
        offsets.append(int(j))
    return tuple(offsets)


def _lattice_terms(family: Family):
    """Per member (offsets, probs) in lattice units, and the largest |offset|."""
    terms = [(_lattice_offsets(d, family.lattice_step), d.probs) for d in family.members]
    return terms, max(max(abs(o) for o in offs) for offs, _ in terms)


@dataclass(frozen=True)
class Window:
    """Lattice window of a depth-n march or law, in lattice units.

    A march updates ``|j| <= J`` at every level; the law path trims every
    partial sum to ``|j| <= J``. ``cone = n * reach`` is the half-width of
    the whole reachable cone, and ``bound`` certifies how far the points
    beyond ``J`` can move the origin value (0 when ``J == cone``, so nothing
    is frozen or trimmed).
    """

    J: int
    cone: int
    bound: float


def lattice_window(
    family: Family, payoff: Payoff, n: int, tol: float = WINDOW_TOL
) -> Window:
    """Smallest window whose frozen points move the origin by at most ``tol``.

    Under any choice of members the walk's steps are, up to a drift of at
    most ``mu = max |mean|`` per step, martingale increments bounded by
    ``m = reach`` with conditional variance at most ``s^2``, the largest
    member second moment; both in lattice units. Freedman's inequality then
    bounds the upper probability that the martingale part leaves ``|j| <= a``
    within ``n`` steps by ``2 exp(-a^2 / (2 (V + m a / 3)))``, ``V = n s^2``.
    A point frozen at its terminal value is off by at most
    ``L = sigma_bar**beta`` (every catalogue payoff is Holder-beta with
    constant 1), so the origin moves by at most ``L`` times that probability.
    With ``c = ln(2 L / tol)`` the smallest such ``a`` is
    ``ceil(c m / 3 + sqrt((c m / 3)^2 + 2 c V))``; ``J`` adds the drift
    ``ceil(n mu / step)`` and is clamped to the cone. ``tol <= 0`` asks for
    the whole cone.
    """
    if family.lattice_step is None:
        raise ModeMismatchError("family has no common lattice step")
    step = family.lattice_step
    _, m = _lattice_terms(family)
    cone = n * m
    lip = family.sigma_bar**payoff.beta
    if tol <= 0.0:
        return Window(cone, cone, 0.0)
    if lip == 0.0:  # a frozen point is exact
        return Window(0, cone, 0.0)
    var = n * max(moment(d, 2) for d in family.members) / step**2
    drift = math.ceil(n * max(abs(moment(d, 1)) for d in family.members) / step)
    c = max(math.log(2.0 * lip / tol), 0.0)
    a = c * m / 3.0
    free = math.ceil(a + math.sqrt(a * a + 2.0 * c * var))
    if free + drift >= cone:
        return Window(cone, cone, 0.0)
    tail = 2.0 * math.exp(-free * free / (2.0 * (var + m * free / 3.0)))
    return Window(free + drift, cone, min(tail, 1.0) * lip)


def _powering_nodes(n: int) -> list[tuple[int, int]]:
    """``(steps, count)`` of every partial sum that :func:`_law_value` trims.

    The law of ``2^i`` steps (``i = 0`` is the step law itself) stands for
    ``n >> i`` blocks of the walk; each accumulation of a set bit above the
    lowest one is one more partial sum, of ``n mod 2^(k+1)`` steps.
    """
    bits = range(n.bit_length())
    sums = [(n & ((2 << k) - 1), 1) for k in bits if n >> k & 1 and 1 << k > n & -n]
    return [(1 << i, n >> i) for i in bits] + sums


def law_window(family: Family, payoff: Payoff, n: int, tol: float = WINDOW_TOL) -> Window:
    """Smallest window of :func:`_law_value` whose trims move the origin by at most ``tol``.

    Every partial sum that the powering trims to ``|j| <= J`` sums ``steps``
    iid draws, and Bernstein's inequality bounds the chance that it leaves the
    window by ``2 exp(-x^2 / (2 (steps s^2 + b x / 3)))``, ``x = J - steps mu``
    (``s^2`` the second moment, ``mu`` the absolute mean, ``b = m + mu`` the
    centred step bound; lattice units, the law normalised by its mass). The
    union over :func:`_powering_nodes` bounds the dropped paths' probability
    ``q``. Rescaling every trimmed power to its exact mass makes the result
    the law conditioned on never leaving the window, so the origin moves by
    at most ``q (J h)^beta + sqrt(q) (E (S_n h)^2)^(beta/2)`` (Holder constant
    1 and Cauchy-Schwarz on the dropped paths), times the mass ``(sum p)^n``
    where that exceeds 1. ``tol <= 0`` asks for the whole cone.
    """
    if family.lattice_step is None or len(family.members) != 1:
        raise ModeMismatchError("the law path needs one member on a lattice")
    n = _depth(n)
    (dist,), step, beta = family.members, family.lattice_step, payoff.beta
    _, m = _lattice_terms(family)
    cone = n * m
    if tol <= 0.0 or cone == 0:
        return Window(cone, cone, 0.0)
    mass = math.fsum(dist.probs)
    s2 = moment(dist, 2) / mass / step**2
    mu = abs(moment(dist, 1)) / mass / step
    spread = (step * step * (s2 + n * mu * mu)) ** (beta / 2.0)
    scale = max(1.0, mass**n)
    h = step / math.sqrt(n)
    nodes = _powering_nodes(n)

    def bound(J):  # certified shift, and the union bound q on leaving |j| <= J at some trim
        q = 0.0
        for steps, count in nodes:
            if steps * m > J:
                x = max(J - steps * mu, 0.0)
                q += count * 2.0 * math.exp(-x * x / (2.0 * (steps * s2 + (m + mu) * x / 3.0)))
        q = min(q, 1.0)
        return scale * (q * (J * h) ** beta + math.sqrt(q) * spread), q

    lo, hi = -1, cone  # bound(cone) is 0: nothing is trimmed
    while hi - lo > 1:
        mid = (lo + hi) // 2
        b, q = bound(mid)
        lo, hi = (lo, mid) if b <= tol and q < 1.0 else (mid, hi)
    return Window(hi, cone, bound(hi)[0])


def _law_value(family: Family, payoff: Payoff, n: int, tol: float):
    """Origin value of a one-member lattice family as ``E payoff(S_n h)``.

    With one member the sup has one law to pick, so the recursion is linear
    and the value is the expectation under the law of ``S_n``. That law is
    built by binary powering of the step law with ``np.convolve`` (about
    ``2 log2 n`` calls). Each power is trimmed to ``|j| <= J`` of
    :func:`law_window` at ``tol`` and rescaled to its exact mass
    ``(sum p)^steps``, with ``sum p - 1`` taken exactly by ``math.fsum``. The
    law lives on ``steps * min(offsets) + g Z``, ``g`` the gcd of the offset
    gaps, and is stored on that sublattice. Returns the spacing and the value.
    """
    n = _depth(n)
    J = law_window(family, payoff, n, tol).J
    ((offs, probs),), _ = _lattice_terms(family)
    h = family.lattice_step / math.sqrt(n)
    low = offs[0]  # ascending support
    g = math.gcd(*(o - low for o in offs)) or 1
    log_mass = math.log1p(math.fsum([*probs, -1.0]))
    step_law = np.zeros((offs[-1] - low) // g + 1)
    step_law[[(o - low) // g for o in offs]] = probs

    def trimmed(start, law, steps):  # law[i] is the mass at j = start + g i
        first = max(0, -((J + start) // g))
        law = law[first : (J - start) // g + 1]
        law *= math.exp(steps * log_mass) / math.fsum(law.tolist())
        return start + g * first, law, steps

    def combine(a, b):
        return trimmed(a[0] + b[0], np.convolve(a[1], b[1]), a[2] + b[2])

    power = trimmed(low, step_law, 1)
    total = None
    for k in range(n.bit_length()):
        if k:
            power = combine(power, power)
        if n >> k & 1:
            total = power if total is None else combine(total, power)
    start, law, _ = total
    j = start + g * np.arange(law.size)
    return h, math.fsum((law * payoff(j * h)).tolist())


def _expect_grid(values, x, dist: DiscreteDist, n: int, payoff: Payoff):
    root = math.sqrt(n)
    out = None
    for p, s in zip(dist.probs, dist.support):  # ascending support
        pos = x + (s / root)
        vals = np.interp(pos, x, values)
        if s != 0.0:
            lo = pos < x[0]
            hi = pos > x[-1]
            if lo.any():
                vals[lo] = payoff(pos[lo])
            if hi.any():
                vals[hi] = payoff(pos[hi])
        term = p * vals
        out = term if out is None else out + term
    return out


def resolve_mode(family: Family, mode: str | None) -> str:
    if mode is None:
        return "lattice" if family.lattice_step is not None else "grid"
    if mode == "lattice" and family.lattice_step is None:
        raise ModeMismatchError("family has no common lattice step")
    if mode not in ("lattice", "grid"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def default_grid(family: Family, n: int) -> GridSpec:
    """Grid used when no spec is given: step 1/n, half width ``8 * sigma_bar``."""
    return GridSpec(step=1.0 / n, half_width=max(8.0 * family.sigma_bar, 1.0))


def _depth(n) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"need integer n >= 1, got {n}")
    return int(n)


def _lattice_march(family: Family, payoff: Payoff, n: int, tol: float, keep=None):
    """Backward lattice loop; returns the spacing and the level-0 value at x = 0.

    Every level marches ``|j| <= J`` of :func:`lattice_window` at ``tol``
    (``tol = 0`` marches the whole cone), and the ``reach`` points beyond
    ``J`` on each side keep their terminal values. Level ``k`` is exact on
    its cone ``|j| <= k * reach``, which reads only level ``k + 1``'s cone,
    so what is marched beyond the cone never reaches the origin or a stored
    level. Levels alternate between two buffers sized once, each with one
    fixed set of views, so a level allocates nothing. ``keep`` (with
    ``tol = 0``) receives ``(k, points, values)`` for every level, each a
    fresh array of its cone.
    """
    n = _depth(n)
    terms, reach = _lattice_terms(family)
    h = family.lattice_step / math.sqrt(n)
    J = lattice_window(family, payoff, n, tol).J
    size, width = J + reach, 2 * J + 1  # buffers hold j in [-size, size] at index j + size
    terminal = np.asarray(payoff(np.arange(-size, size + 1) * h), dtype=float)
    levels = (terminal, terminal.copy())  # level k lives in levels[(n - k) % 2]
    prod, acc = np.empty((2, width))
    # per buffer: its row |j| <= J and, per member in ascending support,
    # (weight, shifted read of the other buffer)
    views = [
        (levels[i][reach : reach + width],
         [[(p, levels[1 - i][reach + o : reach + o + width]) for o, p in zip(offs, probs)]
          for offs, probs in terms])
        for i in (0, 1)
    ]
    for k in range(n, -1, -1):
        i = (n - k) % 2
        if k < n:  # level k from level k + 1
            best, reads = views[i]
            out = best
            for (p, v), *rest in reads:
                np.multiply(v, p, out=out)
                for p, v in rest:
                    np.multiply(v, p, out=prod)
                    out += prod
                if out is acc:
                    np.maximum(best, acc, out=best)
                out = acc
        if keep is not None:
            cone = k * reach
            keep(k, np.arange(-cone, cone + 1) * h, levels[i][size - cone : size + cone + 1].copy())
    return h, float(levels[n % 2][size])


def _grid_march(family: Family, payoff: Payoff, n: int, grid, keep=None):
    """Backward loop on a fixed grid; returns the step and the level-0 value at x = 0.

    ``keep`` receives ``(k, points, values)`` for every level, each a fresh array.
    """
    n = _depth(n)
    grid = grid or default_grid(family, n)
    if grid.half_width + 1e-12 < 8.0 * family.sigma_bar:
        raise GridTooSmallError(
            f"half width {grid.half_width} below 8*sigma_bar = "
            f"{8.0 * family.sigma_bar}"
        )
    h, x = grid.step, grid.points()
    if x.size < 3:
        raise GridTooSmallError("grid needs at least 3 points")
    cur = np.asarray(payoff(x), dtype=float)
    for k in range(n, -1, -1):
        if k < n:  # pairwise max over members, in member order
            best = None
            for d in family.members:
                e = _expect_grid(cur, x, d, n, payoff)
                best = e if best is None else np.maximum(best, e)
            cur = best
        if keep is not None:
            keep(k, x, cur)
    return h, float(np.interp(0.0, x, cur))


def solve_recursion(
    family: Family,
    payoff: Payoff,
    n: int,
    mode: str | None = None,
    grid: GridSpec | None = None,
) -> ValueField:
    """Full backward solve keeping every level; memory is O(n^2) on lattices.

    Lattice levels cover the whole cone: audits read every stored point.
    """
    mode = resolve_mode(family, mode)
    xs: list[np.ndarray] = [None] * (n + 1)
    values: list[np.ndarray] = [None] * (n + 1)

    def keep(k, points, v):
        xs[k] = points
        values[k] = v

    if mode == "lattice":
        h, _ = _lattice_march(family, payoff, n, 0.0, keep)
    else:
        h, _ = _grid_march(family, payoff, n, grid, keep)
    return ValueField(
        mode=mode, n=int(n), h=h, times=np.arange(n + 1) / n, xs=xs, values=values
    )


def _origin_method(family: Family) -> str:
    if family.lattice_step is None:
        return "grid"
    return "law" if len(family.members) == 1 else "march"


def origin_window(family: Family, payoff: Payoff, n: int) -> tuple[str, Window | None]:
    """How :func:`origin_value` prices ``n``: its method and certified window.

    ``("law", law_window)``, ``("march", lattice_window)`` or ``("grid", None)``.
    """
    method = _origin_method(family)
    if method == "grid":
        return method, None
    return method, (law_window if method == "law" else lattice_window)(family, payoff, n)


def origin_value(family: Family, payoff: Payoff, n: int) -> float:
    """Initial-time value at x = 0 without storing the field.

    A one-member lattice family is priced by the law of its walk
    (:func:`_law_value`, window :func:`law_window`); a larger lattice family
    marches the window of :func:`lattice_window` (O(n) memory). Both windows
    move the value by at most their certified bound (<= ``WINDOW_TOL``). Any
    other family marches :func:`default_grid`. A field of
    :func:`solve_recursion` gives the value in a chosen mode or on a chosen
    grid.
    """
    method = _origin_method(family)
    if method == "law":
        return _law_value(family, payoff, n, WINDOW_TOL)[1]
    if method == "march":
        return _lattice_march(family, payoff, n, WINDOW_TOL)[1]
    return _grid_march(family, payoff, n, None)[1]
