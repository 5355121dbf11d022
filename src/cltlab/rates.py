"""Convergence-rate experiments: recursion values against continuous references.

An error curve pairs the lattice recursion value at each depth n with a
reference for the continuous value, fits the log-log slope of the error and
compares it against the theoretical exponent: ``beta^2 / (4 + 2 beta)`` in
general, improving to ``1/4`` when every member has vanishing third moment,
the terminal function is Lipschitz and fourth moments are finite (automatic
on finite support).

References are analytic whenever possible (equal volatility bounds and
convex terminal data), otherwise Richardson-extrapolated scheme values with
a propagated error bar. Slope fits are meaningless when the reference error
is comparable to the measured errors, so a report whose bar exceeds a tenth
of the smallest error is marked reference-limited and its verdict is
suppressed.

The sharpness experiment scales both sides by ``n**(1/4)`` for the singleton
three-point family with atom weight ``n**-0.5``. Its continuous column is
the algebraic constant ``2/sqrt(pi)`` (the closed form is n-independent);
the discrete column is reported as data without asserting any limit, since
the limiting behaviour is conjectural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LabError
from .families import Family, check_cubic_condition, conjecture_family
from .gheat import GHeatProblem, SchemeSpec, convex_oracle, default_spec, richardson_value
from .payoffs import Payoff, abs_payoff
from .recursion import origin_value

SLOPE_TOL = 0.05  # empirical-rate thresholds; artifact policy, not theory
RESIDUAL_CAP = 0.1
ERR_FLOOR = 1e-14  # below this an "error" is float dust, excluded from fits
SCALED_TARGET = 2.0 / math.sqrt(math.pi)  # mean of |N(0, 2)|


class TooFewPointsError(LabError, ValueError):
    """A log-log fit needs at least three positive errors."""


class ReferenceTooCoarseError(LabError, ValueError):
    """Reference error bar too large for a trustworthy verdict."""


def fit_loglog(ns, errs) -> tuple[float, float, float]:
    """Least squares of log err against log n: (slope, intercept, rms residual)."""
    pairs = [(n, e) for n, e in zip(ns, errs) if e > 0.0]
    if len(pairs) < 3:
        raise TooFewPointsError(f"need >= 3 positive errors, got {len(pairs)}")
    lx = [math.log(n) for n, _ in pairs]
    ly = [math.log(e) for _, e in pairs]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((u - mx) ** 2 for u in lx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    slope = sxy / sxx
    intercept = my - slope * mx
    resid = [v - (slope * u + intercept) for u, v in zip(lx, ly)]
    rms = math.sqrt(sum(r * r for r in resid) / len(resid))
    return slope, intercept, rms


def theoretical_exponent(
    family: Family, payoff: Payoff, rule: str = "auto"
) -> float:
    """Rate exponent the theory guarantees for this family/payoff pairing.

    ``rule="auto"`` picks 1/4 when the improved-rate conditions hold
    (vanishing third moments, Lipschitz data); ``rule="basic"`` always
    reports ``beta^2/(4 + 2 beta)`` for the payoff's exponent.
    """
    beta = payoff.beta
    basic = beta * beta / (4.0 + 2.0 * beta)
    if rule == "basic":
        return basic
    if rule != "auto":
        raise ValueError(f"unknown exponent rule {rule!r}")
    if payoff.beta == 1.0 and check_cubic_condition(family):
        return 0.25
    return basic


@dataclass(frozen=True)
class RateRow:
    n: int
    vn: float
    vref: float
    vref_err: float
    err: float


@dataclass(frozen=True)
class RateReport:
    family_id: str
    payoff_id: str
    rows: tuple[RateRow, ...]
    exponent: float
    slope: float | None
    intercept: float | None
    residual: float | None
    reference: str  # analytic | scheme
    reference_limited: bool
    verdict: str  # pass | fail | degenerate | reference-limited


def error_curve(
    family: Family,
    payoff: Payoff,
    ns,
    *,
    ref_spec: SchemeSpec | None = None,
    exponent_rule: str = "auto",
    strict_reference: bool = False,
    family_id: str | None = None,
) -> RateReport:
    """Per-n recursion errors against the continuous reference, with verdict.

    The recursion runs in lattice mode when the family has a common step.
    The reference is analytic (zero bar) when the volatility bounds coincide
    and the payoff is certified convex; otherwise one Richardson scheme
    value, shared by all n, with its gap as the error bar. The report's
    ``reference`` says which (``"analytic"`` or ``"scheme"``).
    """
    ns = sorted(int(n) for n in ns)
    if len(ns) != len(set(ns)) or any(n < 1 for n in ns):
        raise ValueError("ns must be distinct integers >= 1")
    prob = GHeatProblem(family.sigma_under, family.sigma_bar, payoff)
    if family.sigma_under == family.sigma_bar and payoff.convex:
        reference = "analytic"
        vref, vref_err = convex_oracle(prob), 0.0
    else:
        reference = "scheme"
        vref, vref_err = richardson_value(prob, ref_spec or default_spec(prob))

    rows = []
    for n in ns:
        vn = origin_value(family, payoff, n)
        rows.append(RateRow(n, vn, vref, vref_err, abs(vn - vref)))

    fit_rows = [r for r in rows if r.err > ERR_FLOOR]
    reference_limited = bool(fit_rows) and vref_err > min(r.err for r in fit_rows) / 10.0
    if reference_limited and strict_reference:
        raise ReferenceTooCoarseError(
            f"reference bar {vref_err} exceeds a tenth of the smallest error"
        )
    exponent = theoretical_exponent(family, payoff, exponent_rule)

    slope = intercept = residual = None
    if len(fit_rows) < 3:
        verdict = "degenerate"
    else:
        slope, intercept, residual = fit_loglog(
            [r.n for r in fit_rows], [r.err for r in fit_rows]
        )
        if reference_limited:
            verdict = "reference-limited"
        elif slope <= -exponent + SLOPE_TOL and residual <= RESIDUAL_CAP:
            verdict = "pass"
        else:
            verdict = "fail"
    return RateReport(
        family_id=family_id or family.describe(),
        payoff_id=payoff.kind,
        rows=tuple(rows),
        exponent=exponent,
        slope=slope,
        intercept=intercept,
        residual=residual,
        reference=reference,
        reference_limited=reference_limited,
        verdict=verdict,
    )


@dataclass(frozen=True)
class ConjectureRow:
    n: int
    scaled_continuous: float
    scaled_discrete: float


@dataclass(frozen=True)
class ConjectureReport:
    rows: tuple[ConjectureRow, ...]
    target: float  # the continuous column's exact constant, 2/sqrt(pi)


def conjecture_experiment(ns) -> ConjectureReport:
    """Scaled values of both sides for the sharpness family, per n.

    The continuous side has equal volatility bounds ``sqrt(2) * n**-0.25``
    and convex data, so ``n**0.25`` times its closed-form value simplifies
    algebraically to ``2/sqrt(pi)``; the column is emitted as that constant.
    The discrete side is the exact three-point lattice recursion (O(n^2)
    work). The report states both sequences and leaves their limits to the
    reader.
    """
    ns = sorted(int(n) for n in ns)
    payoff = abs_payoff()
    rows = []
    for n in ns:
        family = conjecture_family(n)  # raises BadNError below 4
        vnn = origin_value(family, payoff, n, mode="lattice")
        rows.append(
            ConjectureRow(
                n=n,
                scaled_continuous=SCALED_TARGET,
                scaled_discrete=float(n) ** 0.25 * vnn,
            )
        )
    return ConjectureReport(rows=tuple(rows), target=SCALED_TARGET)
