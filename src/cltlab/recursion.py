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
sequential result bit for bit. In lattice mode, when every member's mirror
law is in the family and the terminal data is an exact palindrome, the field
is even and only ``j >= 0`` is marched; the points ``j < 0`` are copies, so
every stored lattice level is then an exact palindrome. For families of
two-atom laws this is the whole-cone result bit for bit. For a law with
three or more atoms the sum at ``-j`` runs in the reverse order of the one
at ``+j``, so values can differ from a whole-cone march by about 1 ulp.
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


def _mirror_closed(terms) -> bool:
    """Whether each member's mirror law (``-X``) is itself a member."""
    laws = {(offs, probs) for offs, probs in terms}
    return all(
        (tuple(-o for o in reversed(offs)), tuple(reversed(probs))) in laws
        for offs, probs in terms
    )


def _march(family: Family, payoff: Payoff, n: int, mode: str, grid, collect=None):
    """Run the backward loop; returns the spacing and the level-0 value at x = 0.

    When ``collect`` is given it receives ``(k, points, values)`` for every
    level, with ``values`` a fresh full-width array of level k. Lattice mode
    writes each level into one of two buffers sized once and forms products
    in scratch rows, so a level allocates nothing. When every member's mirror
    law is in the family and the terminal data is a palindrome, the field is
    even and only ``j >= 0`` is marched, with ``reach`` ghost points at
    ``j < 0`` copied from ``+j`` after each level.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"need integer n >= 1, got {n}")
    n = int(n)
    if mode == "lattice":
        step = family.lattice_step
        h = step / math.sqrt(n)
        terms = [(_lattice_offsets(d, step), d.probs) for d in family.members]
        reach = max(max(abs(o) for o in offs) for offs, _ in terms)

        def points(k):
            return np.arange(-k * reach, k * reach + 1) * h

        terminal = np.asarray(payoff(points(n)), dtype=float)
        # even data stays even: keep j >= -reach, where index i holds j = i - reach
        even = _mirror_closed(terms) and np.array_equal(terminal, terminal[::-1])
        cur = (terminal[(n - 1) * reach :] if even else terminal).copy()
        levels = (cur, np.empty(cur.size))  # level k lives in levels[(n - k) % 2]
        scratch = np.empty((2, cur.size))

        def full(k, v):
            if even:
                top = reach + k * reach
                return np.concatenate((v[top:reach:-1], v[reach : top + 1]))
            return v[: 2 * k * reach + 1].copy()

        # per member, (weight, start of the j + offset window) in ascending support
        atoms = [[(p, reach + o) for o, p in zip(offs, probs)] for offs, probs in terms]
        lo = reach if even else 0

        def advance(k, cur):
            # level k at j >= 0 (even) or over the whole cone
            nxt = levels[(n - k) % 2]
            width = k * reach + 1 if even else 2 * k * reach + 1
            best = nxt[lo : lo + width]
            prod, acc = scratch[0, :width], scratch[1, :width]
            out = best
            for (p, s), *rest in atoms:
                np.multiply(cur[s : s + width], p, out=out)
                for p, s in rest:
                    np.multiply(cur[s : s + width], p, out=prod)
                    out += prod
                if out is acc:
                    np.maximum(best, acc, out=best)
                out = acc
            if even and k:
                nxt[:reach] = nxt[2 * reach : reach : -1]
            return nxt

        def origin(v):
            return float(v[reach] if even else v[0])
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

        cur = np.asarray(payoff(x), dtype=float)

        def full(k, v):
            return v.copy()

        def advance(k, cur):
            best = None
            for d in family.members:
                e = _expect_grid(cur, x, d, n, payoff)
                best = e if best is None else np.maximum(best, e)
            return best

        def origin(v):
            return float(np.interp(0.0, x, v))

    if collect is not None:
        collect(n, points, full(n, cur))
    for k in range(n - 1, -1, -1):
        cur = advance(k, cur)
        if collect is not None:
            collect(k, points, full(k, cur))
    return h, origin(cur)


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
        values[k] = v

    h, _ = _march(family, payoff, n, mode, grid, collect)
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
    return _march(family, payoff, n, mode, grid)[1]
