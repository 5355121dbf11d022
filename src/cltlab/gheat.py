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
:func:`richardson_value`, which pairs the base grid with (h/2, tau/4) and
returns the difference as an error bar.

With ``n`` steps of ``tau = 1/n``, one step is one level of the discrete
sup-recursion over two trinomial laws on ``{-s, 0, s}``, ``s = h * sqrt(n)``
(so each step moves by ``h``), whose end weights are
``tau * sigma^2 / (2 h^2)`` at ``sigma = sigma_bar`` and at
``sigma = sigma_under``. Up to rounding and the frozen boundary the two
agree; the test suite pins that identity.

Degenerate bounds need no special handling: ``sigma_under = 0`` only
flattens the negative-curvature branch of the endpoint reduction, and
``sigma_bar = 0`` zeroes every update, leaving the terminal data in place.

Time levels are sequential; each level's stencil sweep is a pure per-point
map, vectorized in a fixed order. Terminal data that is even on the grid
(an exact palindrome) is marched on ``x >= 0`` only, with a ghost cell at
``-h`` mirrored from ``+h`` before every step, and stored levels are
rebuilt by reflection, so the stored field is then exactly even. Other data
is marched on the whole grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridTooSmallError, LabError
from .fields import ValueField
from .payoffs import Payoff

CFL_TOL = 1e-12
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
    horizon: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sigma_under <= self.sigma_bar:
            raise ValueError("need 0 <= sigma_under <= sigma_bar")
        if not math.isfinite(self.sigma_bar):
            raise ValueError("sigma_bar must be finite")
        if self.horizon != 1.0:
            raise ValueError("horizon is fixed at 1")


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

    def refined(self) -> "SchemeSpec":
        """Half the spatial step at fixed CFL ratio."""
        return SchemeSpec(self.h / 2.0, self.tau / 4.0, self.half_width)


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
    """Explicit backward march from the terminal data.

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
    half = round(spec.half_width / spec.h)
    x = (np.arange(2 * half + 1) - half) * spec.h
    if x.size - 2 < 3:
        raise DegenerateGridError("need at least 3 interior points")
    terminal = np.asarray(prob.payoff(x), dtype=float)

    lam = spec.cfl_ratio(prob.sigma_bar)
    if lam > 1.0 + CFL_TOL:
        raise CFLViolatedError(f"tau*sigma_bar^2/h^2 = {lam} exceeds 1")
    steps = math.ceil(prob.horizon / spec.tau - 1e-9)
    tau = prob.horizon / steps  # lands exactly on t = 0; only shrinks the ratio
    a_hi = tau * prob.sigma_bar**2 / (2.0 * spec.h**2)
    a_lo = tau * prob.sigma_under**2 / (2.0 * spec.h**2)
    equal = prob.sigma_under == prob.sigma_bar

    stride = max(1, -(-(steps + 1) // MAX_STORED_LEVELS)) if store == "levels" else 0
    kept: dict[int, np.ndarray] = {}
    if store == "levels":
        kept[steps] = terminal.copy()

    # even data stays even: march x >= 0 with a mirrored ghost cell at -h
    even = np.array_equal(terminal, terminal[::-1])
    u = terminal[half - 1 :].copy() if even else terminal.copy()

    def full(w):
        return np.concatenate((w[:1:-1], w[1:])) if even else w.copy()

    right, mid, left = u[2:], u[1:-1], u[:-2]
    d = np.empty(mid.size)
    alt = np.empty(mid.size)
    for k in range(steps - 1, -1, -1):
        if even:
            u[0] = u[2]
        np.subtract(right, mid, out=d)
        d -= mid
        d += left
        if equal:
            d *= a_hi
        else:
            np.multiply(d, a_lo, out=alt)
            d *= a_hi
            np.maximum(d, alt, out=d)
        mid += d
        if store == "levels" and (k % stride == 0 or k == 0):
            kept[k] = full(u)

    if store == "final":
        kept[0] = full(u)
    ks = sorted(kept)
    return ValueField(
        mode="grid",
        n=steps,
        h=spec.h,
        times=np.array(ks) / steps,
        xs=[x] * len(ks),
        values=[kept[k] for k in ks],
    )


def richardson_value(prob: GHeatProblem, spec: SchemeSpec) -> tuple[float, float]:
    """Origin value at (h/2, tau/4) plus the coarse-fine gap as an error bar."""
    coarse = solve_gheat(prob, spec, store="final").origin_value()
    fine = solve_gheat(prob, spec.refined(), store="final").origin_value()
    return fine, abs(fine - coarse)


def norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def gaussian_abs_mean(x: float, sigma: float) -> float:
    """Closed form ``E |x + sigma * W|`` for a standard normal ``W``."""
    if sigma == 0.0:
        return abs(x)
    return sigma * math.sqrt(2.0 / math.pi) * math.exp(
        -(x * x) / (2.0 * sigma * sigma)
    ) + x * (1.0 - 2.0 * norm_cdf(-x / sigma))


@functools.lru_cache(maxsize=8)
def _hermgauss(nodes: int):
    # scipy's rule stays stable into the thousands of nodes, unlike the
    # eigenvalue route in numpy.polynomial
    from scipy.special import roots_hermite

    return roots_hermite(nodes)


def gauss_hermite_expectation(
    payoff: Payoff, x: float, sigma: float, nodes: int = 256
) -> float:
    """``E payoff(x + sigma * W)`` by Gauss-Hermite quadrature."""
    if nodes < 64:
        raise ValueError("use at least 64 nodes")
    z, w = _hermgauss(nodes)
    vals = payoff(x + sigma * math.sqrt(2.0) * z)
    return float(np.dot(w, vals) / math.sqrt(math.pi))


def convex_oracle(prob: GHeatProblem, x: float = 0.0, nodes: int = 256) -> float:
    """Analytic value for convex terminal data.

    For convex data the constant control at ``sigma_bar`` attains the sup,
    so the value is the plain heat expectation ``E payoff(x + sigma_bar W)``:
    closed form for the absolute-value payoff, Gauss-Hermite quadrature
    otherwise. Refuses payoffs without a convexity certificate.
    """
    if not prob.payoff.convex:
        raise NotConvexError(f"payoff {prob.payoff.kind!r} is not certified convex")
    if prob.payoff.kind == "abs" or (
        prob.payoff.kind == "abs_pow" and prob.payoff.beta == 1.0
    ):
        return gaussian_abs_mean(x, prob.sigma_bar)
    return gauss_hermite_expectation(prob.payoff, x, prob.sigma_bar, nodes)


@dataclass(frozen=True)
class ControlPath:
    """Piecewise-constant volatility control on a uniform partition.

    Exactly one of ``sigmas`` (one value per step) or ``feedback`` (a rule
    mapping the running state to per-path volatilities) must be given.
    """

    num_steps: int
    sigmas: tuple[float, ...] | None = None
    feedback: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        if (self.sigmas is None) == (self.feedback is None):
            raise ValueError("give exactly one of sigmas or feedback")
        if self.sigmas is not None and len(self.sigmas) != self.num_steps:
            raise ValueError("need one sigma per step")

    def sigma_at(self, k: int, state: np.ndarray) -> np.ndarray:
        if self.sigmas is not None:
            return np.full_like(state, self.sigmas[k])
        return np.asarray(self.feedback(state), dtype=float)


def constant_control(sigma: float, num_steps: int = 1) -> ControlPath:
    return ControlPath(num_steps, sigmas=(float(sigma),) * num_steps)


def sign_feedback_control(
    nonneg_sigma: float, neg_sigma: float, num_steps: int
) -> ControlPath:
    """Volatility chosen from the sign of the running state."""
    return ControlPath(
        num_steps,
        feedback=lambda s: np.where(s >= 0.0, nonneg_sigma, neg_sigma),
    )


def mc_lower_bound(
    prob: GHeatProblem, ctrl: ControlPath, paths: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo value of one admissible control: (estimate, standard error).

    Any admissible control bounds the sup from below, so on a correct solver
    ``estimate - 3 * stderr`` must not exceed the scheme value.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    rng = np.random.default_rng(seed)
    dt = prob.horizon / ctrl.num_steps
    root_dt = math.sqrt(dt)
    state = np.zeros(paths)
    for k in range(ctrl.num_steps):
        sig = ctrl.sigma_at(k, state)
        if np.any(sig < prob.sigma_under - 1e-12) or np.any(
            sig > prob.sigma_bar + 1e-12
        ):
            raise ValueError("control leaves [sigma_under, sigma_bar]")
        state = state + sig * root_dt * rng.standard_normal(paths)
    vals = np.asarray(prob.payoff(state), dtype=float)
    estimate = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return estimate, stderr
