"""Built-in terminal test functions with certified Holder regularity.

The catalogue is closed on purpose: each entry ships with the exponent
``beta`` for which ``|f(x) - f(y)| <= |x - y|**beta`` holds with constant
exactly 1, plus a convexity flag set analytically. The solvers trust the
certificates; the test suite re-checks them on sampled pairs so that a
miscatalogued entry cannot slip through silently.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Payoff:
    """Terminal function with a certified Holder exponent and constant <= 1."""

    kind: str
    beta: float
    convex: bool
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self.fn(arr)
        if arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)


def abs_payoff() -> Payoff:
    return Payoff("abs", 1.0, True, np.abs)


def abs_pow_payoff(beta: float) -> Payoff:
    """``|x|**beta``; attains the Holder-beta constant 1 exactly."""
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return Payoff("abs_pow", beta, beta == 1.0, lambda a: np.abs(a) ** beta)


def neg_abs_payoff() -> Payoff:
    return Payoff("neg_abs", 1.0, False, lambda a: -np.abs(a))


def cosine_payoff() -> Payoff:
    # slope of cos is bounded by 1, so beta = 1 with constant 1 holds
    return Payoff("cosine_scaled", 1.0, False, np.cos)


def piecewise_linear_payoff(knots, values) -> Payoff:
    """Knot interpolation, constant beyond the end knots.

    Knots mirrored about 0 with palindromic values are evaluated at ``|x|``,
    so the function is exactly even and the solvers march half the points.

    Slopes must stay within [-1, 1] so the Lipschitz certificate (beta = 1,
    constant 1) holds globally. Because the extension is flat, the function
    is convex only when the slope sequence 0, m_1, ..., m_k, 0 is
    nondecreasing.
    """
    kx = np.asarray(knots, dtype=float)
    ky = np.asarray(values, dtype=float)
    if kx.ndim != 1 or kx.shape != ky.shape or kx.size < 2:
        raise ValueError("need matching 1-d knots/values with >= 2 points")
    if not np.all(np.diff(kx) > 0):
        raise ValueError("knots must be strictly increasing")
    slopes = np.diff(ky) / np.diff(kx)
    if np.any(np.abs(slopes) > 1.0 + 1e-12):
        raise ValueError("piecewise-linear slopes must stay within [-1, 1]")
    ext = np.concatenate(([0.0], slopes, [0.0]))
    convex = bool(np.all(np.diff(ext) >= -1e-15))
    # np.interp rounds the two sides of mirrored data differently; evaluating
    # such data at |x| makes it even to the last bit
    mirrored = np.array_equal(kx, -kx[::-1]) and np.array_equal(ky, ky[::-1])

    def interp(a):
        return np.interp(np.abs(a) if mirrored else a, kx, ky)

    return Payoff("piecewise_linear", 1.0, convex, interp)


def make_payoff(kind: str, /, **params) -> Payoff:
    """Catalogue entry ``kind``, built from exactly the parameters it takes."""
    builders = {
        "abs": abs_payoff,
        "abs_pow": abs_pow_payoff,
        "neg_abs": neg_abs_payoff,
        "cosine_scaled": cosine_payoff,
        "piecewise_linear": piecewise_linear_payoff,
    }
    if kind not in builders:
        raise ValueError(f"unknown payoff kind {kind!r}")
    takes = inspect.signature(builders[kind]).parameters
    extra = sorted(set(params) - set(takes))
    if extra:
        raise ValueError(f"{kind} does not take {', '.join(extra)}")
    if set(takes) - set(params):
        raise ValueError(f"{kind} needs {' and '.join(takes)}")
    return builders[kind](**params)


def payoff_from_config(cfg: dict) -> Payoff:
    """Load a payoff from ``{"phi": kind, ...params}``."""
    if not isinstance(cfg, dict) or "phi" not in cfg:
        raise ValueError('payoff config must be an object with a "phi" key')
    params = dict(cfg)
    return make_payoff(params.pop("phi"), **params)
