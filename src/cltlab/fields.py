"""Time-space value fields shared by the recursion and the scheme solver.

A field stores value slices on a list of time levels. Lattice fields carry a
different (growing) point set per level, grid fields share one uniform grid;
solvers that march many steps may store a strided subset of levels, always
including the initial and terminal times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabError

TIME_LOOKUP_TOL = 1e-12


class OutOfHullError(LabError, ValueError):
    """Query point outside the stored domain."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid: points ``j * step`` for ``|j * step| <= half_width``."""

    step: float
    half_width: float

    def __post_init__(self):
        if self.step <= 0 or self.half_width <= 0:
            raise ValueError("step and half_width must be positive")

    def points(self) -> np.ndarray:
        half = round(self.half_width / self.step)
        return (np.arange(2 * half + 1) - half) * self.step


@dataclass
class ValueField:
    """Values on stored time levels.

    ``times`` is increasing within [0, 1]; ``xs[i]`` and ``values[i]`` are the
    points and values of level i. ``n`` is the number of backward steps from
    the terminal time, ``h`` the spatial spacing.
    """

    mode: str  # "lattice" | "grid"
    n: int
    h: float
    times: np.ndarray
    xs: list[np.ndarray]
    values: list[np.ndarray]

    def level_index(self, t: float) -> int:
        """Piecewise-constant time lookup: the last stored level at or before t."""
        if not 0.0 <= t <= 1.0:
            raise OutOfHullError(f"time {t} outside [0, 1]")
        idx = int(np.searchsorted(self.times, t + TIME_LOOKUP_TOL, side="right")) - 1
        return max(idx, 0)

    def origin_value(self) -> float:
        """Value at the initial time at x = 0."""
        pts = self.xs[0]
        j = int(np.argmin(np.abs(pts)))
        if abs(pts[j]) > 1e-12:
            raise OutOfHullError("field does not contain x = 0")
        return float(self.values[0][j])
