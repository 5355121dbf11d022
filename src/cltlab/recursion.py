"""Backward sup-expectation recursion for scaled random walks.

The recursion starts from the terminal function and, one level at a time,
replaces each value by the largest expectation of the next level over the
family, with steps scaled by ``1/sqrt(n)``. One level loop serves two
execution modes, which differ only in their points and in how one member's
expectation is formed:

* ``lattice`` (used whenever the family has a common support step ``c``):
  level ``k`` lives on the cone ``{j * c/sqrt(n) : |j| <= k * m}`` where
  ``m`` is the largest support point in lattice units. Every lookup is an
  exact shift, so the origin value carries no interpolation error, only
  float rounding (documented <= 1e-12 at desk scale). Rate experiments run
  exclusively in this mode; even a small interpolation bias would pollute
  slope fits for exponents as small as 1/6.
* ``grid``: a fixed uniform grid with linear interpolation. Positions that
  step beyond the grid are priced by the terminal function itself; far from
  the evaluation cone the solution hugs the terminal data, so with a half
  width of at least ``8 * sigma_bar`` the boundary bias is Gaussian-tail
  negligible. Smaller grids are refused.

Determinism contract: per-point sums run over ascending support, members are
reduced with a pointwise max in fixed order after all expectations are
formed, and levels are sequential. Vectorization across points preserves the
sequential result bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridTooSmallError, LabError
from .families import DiscreteDist, Family
from .fields import GridSpec, ValueField
from .payoffs import Payoff

FLOAT_ROUNDING = 1e-12  # documented rounding envelope for desk-scale n


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


def _expect_lattice(values: np.ndarray, dist: DiscreteDist, offsets, reach: int):
    width = values.size - 2 * reach
    out = None
    for p, off in zip(dist.probs, offsets):  # ascending support
        seg = values[reach + off : reach + off + width]
        if out is None:
            out = p * seg
        else:
            out += p * seg
    return out


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


def _march(family: Family, payoff: Payoff, n: int, mode: str, grid, collect):
    """Run the backward loop, handing each level (k, points, values) to ``collect``.

    Each mode sets up ``points(k)``, which builds level k's points on demand,
    and one expectation per member; the level loop is shared. Returns the
    spacing, ``points`` and the values of level 0.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"need integer n >= 1, got {n}")
    n = int(n)
    if mode == "lattice":
        step = family.lattice_step
        h = step / math.sqrt(n)
        member_offsets = [_lattice_offsets(d, step) for d in family.members]
        reach = max(max(abs(o) for o in offs) for offs in member_offsets)

        def points(k):
            return np.arange(-k * reach, k * reach + 1) * h

        expectations = [
            lambda v, d=d, offs=offs: _expect_lattice(v, d, offs, reach)
            for d, offs in zip(family.members, member_offsets)
        ]
    else:
        grid = grid or default_grid(family, n)
        if grid.half_width + 1e-12 < 8.0 * family.sigma_bar:
            raise GridTooSmallError(
                f"half width {grid.half_width} below 8*sigma_bar = "
                f"{8.0 * family.sigma_bar}"
            )
        h, x = grid.step, grid.points()
        if x.size < 3:
            raise GridTooSmallError("grid needs at least 3 points")

        def points(k):
            return x

        expectations = [
            lambda v, d=d: _expect_grid(v, x, d, n, payoff) for d in family.members
        ]

    cur = np.asarray(payoff(points(n)), dtype=float)
    collect(n, points, cur)
    for k in range(n - 1, -1, -1):
        best = None
        for expect in expectations:
            e = expect(cur)
            best = e if best is None else np.maximum(best, e)
        cur = best
        collect(k, points, cur)
    return h, points, cur


def solve_recursion(
    family: Family,
    payoff: Payoff,
    n: int,
    mode: str | None = None,
    grid: GridSpec | None = None,
) -> ValueField:
    """Full backward solve keeping every level; memory is O(n^2) on lattices."""
    mode = resolve_mode(family, mode)
    xs: list[np.ndarray] = [None] * (n + 1)
    values: list[np.ndarray] = [None] * (n + 1)

    def collect(k, points, v):
        xs[k] = points(k)
        values[k] = np.array(v, dtype=float, copy=True)

    h, _, _ = _march(family, payoff, n, mode, grid, collect)
    return ValueField(
        mode=mode,
        n=int(n),
        h=h,
        times=np.arange(n + 1) / n,
        xs=xs,
        values=values,
    )


def origin_value(
    family: Family,
    payoff: Payoff,
    n: int,
    mode: str | None = None,
    grid: GridSpec | None = None,
) -> float:
    """Initial-time value at x = 0 without storing the field (O(n) memory)."""
    mode = resolve_mode(family, mode)
    _, points, final = _march(family, payoff, n, mode, grid, lambda k, p, v: None)
    if mode == "lattice":
        return float(final[final.size // 2])
    return float(np.interp(0.0, points(0), final))
