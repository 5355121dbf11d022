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

FLOAT_ROUNDING = 1e-12  # rounding envelope of exact values and inequalities at desk-scale n


class GridTooSmallError(LabError, ValueError):
    """Spatial domain too small for the requested computation."""


class OutOfHullError(LabError, ValueError):
    """Query point outside the stored domain."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform spatial grid: points ``j * step`` for ``|j * step| <= half_width``."""

    step: float
    half_width: float

    def __post_init__(self):
        if not (0 < self.step < np.inf and 0 < self.half_width < np.inf):
            raise ValueError("step and half_width must be positive and finite")
        if round(self.half_width / self.step) < 1:
            raise GridTooSmallError("grid needs at least 3 points")

    def points(self) -> np.ndarray:
        half = round(self.half_width / self.step)
        return (np.arange(2 * half + 1) - half) * self.step


def check_half_width(half_width: float, sigma_bar: float) -> None:
    """Refuses a half width below ``8 * sigma_bar``, beyond which a frozen
    boundary's Gaussian-tail bias at the origin is negligible."""
    if half_width + 1e-12 < 8.0 * sigma_bar:
        raise GridTooSmallError(f"half width {half_width} below 8*sigma_bar = {8.0 * sigma_bar}")


@dataclass
class ValueField:
    """Values on stored time levels.

    ``times`` is increasing within [0, 1]; ``xs[i]`` and ``values[i]`` are the
    points and values of level i. ``n`` is the number of backward steps from
    the terminal time.
    """

    mode: str  # "lattice" | "grid"
    n: int
    times: np.ndarray
    xs: list[np.ndarray]
    values: list[np.ndarray]

    def origin_value(self) -> float:
        """Value at the initial time at x = 0."""
        pts = self.xs[0]
        j = int(np.argmin(np.abs(pts)))
        if abs(pts[j]) > 1e-12:
            raise OutOfHullError("field does not contain x = 0")
        return float(self.values[0][j])
