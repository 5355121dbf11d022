"""Convergence-rate experiments: recursion values against continuous references.

An error curve pairs the lattice recursion value at each depth n with a
reference for the continuous value, fits the log-log slope of the error and
compares it against the theoretical exponent: ``beta^2 / (4 + 2 beta)`` in
general, improving to ``1/4`` when every member has vanishing third moment,
the terminal function is Lipschitz and fourth moments are finite (automatic
on finite support).

References are analytic whenever possible (equal volatility bounds and
convex terminal data), otherwise Richardson-extrapolated scheme values with
a propagated error bar. When that reference is marched (``sigma_under <
sigma_bar``), its finest level ``v(h)`` is most of the run, so
:func:`error_curve` forks a child that marches it while the parent prices
the lattice rows and marches the other levels; the parent then reads
``v(h)`` from a pipe and combines them as :func:`richardson_value`
always does, so every value keeps its bits. The CPU time is unchanged:
the wall time falls only where a second core is free. Equal-volatility
references are closed forms and analytic ones need no solve, so both stay
in process. Slope fits are meaningless when the reference error
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
from .gheat import (
    GHeatProblem,
    _check_grid,
    convex_oracle,
    default_spec,
    richardson_value,
    scheme_origin,
)
from .payoffs import Payoff, abs_payoff
from .recursion import Window, origin_value, origin_window

SLOPE_TOL = 0.05  # empirical-rate thresholds; artifact policy, not theory
RESIDUAL_CAP = 0.1
ERR_FLOOR = 1e-14  # below this an "error" is float dust, excluded from fits
SCALED_TARGET = 2.0 / math.sqrt(math.pi)  # mean of |N(0, 2)|


class TooFewPointsError(LabError, ValueError):
    """A log-log fit needs at least three positive errors, at two or more n."""


def fit_loglog(ns, errs) -> tuple[float, float, float]:
    """Least squares of log err against log n: (slope, intercept, rms residual)."""
    pairs = [(n, e) for n, e in zip(ns, errs) if e > 0.0]
    if len(pairs) < 3 or len({n for n, _ in pairs}) < 2:
        raise TooFewPointsError(f"need >= 3 positive errors at >= 2 distinct n, got {pairs}")
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
    method: str  # what priced vn: law | march | grid
    window: Window | None  # certified window of that method; None on the grid


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


def analytic_reference(family: Family, payoff: Payoff) -> bool:
    """Whether :func:`error_curve` takes its reference from :func:`convex_oracle`.

    That needs equal volatility bounds and certified convex terminal data;
    every other reference is a Richardson scheme value.
    """
    return family.sigma_under == family.sigma_bar and payoff.convex


def _depths(ns) -> list[int]:
    """``ns`` as sorted ints; refuses non-integer entries (no truncation), repeats and n < 1."""
    ns = list(ns)
    if not all(float(n).is_integer() and n >= 1 for n in ns) or len(set(ns)) < len(ns):
        raise ValueError(f"ns must be distinct integers >= 1, got {ns}")
    return sorted(int(n) for n in ns)


def _beside(background, foreground):
    """``foreground(collect)`` while a forked child computes ``background()``.

    ``collect()`` waits for the child and returns what ``background()``
    returned, or raises what it raised; the child sends ``(ok, value or
    exception)`` through a pipe by pickle. It leaves only through
    ``os._exit``, so it never unwinds into the caller's stack or flushes the
    parent's stdio buffers, and it dies with the parent (``PR_SET_PDEATHSIG``).
    If ``foreground`` leaves without collecting, the child is killed and
    reaped. A child that sends nothing (killed, or its answer would not
    pickle) is replaced by ``background()`` in process.
    """
    import ctypes, os, pickle, signal

    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
            if os.getppid() == parent:  # else the parent died before prctl
                try:
                    answer = (True, background())
                except BaseException as exc:  # re-raised by collect()
                    answer = (False, exc)
                with open(write_fd, "wb") as pipe:
                    pipe.write(pickle.dumps(answer))
        finally:
            os._exit(0)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    child = pid  # None once reaped

    def collect():
        nonlocal child
        answer = pipe.read()
        os.waitpid(pid, 0)
        child = None
        if not answer:
            return background()
        ok, value = pickle.loads(answer)
        if not ok:
            raise value
        return value

    try:
        return foreground(collect)
    finally:
        pipe.close()
        if child is not None:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)


def error_curve(
    family: Family,
    payoff: Payoff,
    ns,
    *,
    ref_h: float | None = None,
    exponent_rule: str = "auto",
) -> RateReport:
    """Per-n recursion errors against the continuous reference, with verdict.

    ``ns`` must be distinct integers >= 1. The recursion runs in lattice
    mode when the family has a common step; each row records what priced it
    (:func:`origin_window`). The reference is analytic (zero bar) when
    :func:`analytic_reference` holds; otherwise one Richardson scheme value,
    shared by all n, with its gap as the error bar, on :func:`default_spec`
    at step ``ref_h`` if given. The report's ``reference`` says which
    (``"analytic"`` or ``"scheme"``). A marched reference (``sigma_under <
    sigma_bar``) marches its finest level in a forked child while the rows
    are priced (:func:`_beside`); the values are those of the calls in
    process. A bar above a tenth of the smallest error over ``ERR_FLOOR``
    flags the report ``reference_limited``, which a fitted verdict reports.
    """
    ns = _depths(ns)
    prob = GHeatProblem(family.sigma_under, family.sigma_bar, payoff)
    spec = default_spec(prob) if ref_h is None else default_spec(prob, h=ref_h)

    def price_rows():  # (n, vn, method, window) per n
        return [(n, origin_value(family, payoff, n), *origin_window(family, payoff, n))
                for n in ns]

    reference = "analytic" if analytic_reference(family, payoff) else "scheme"
    if reference == "analytic":
        (vref, vref_err), priced = (convex_oracle(prob), 0.0), price_rows()
    elif prob.sigma_under == prob.sigma_bar:  # closed-form levels: nothing to overlap
        (vref, vref_err), priced = richardson_value(prob, spec), price_rows()
    else:
        _check_grid(prob, spec)  # a grid the child would refuse is refused before the rows
        priced, (vref, vref_err) = _beside(
            lambda: scheme_origin(prob, spec),
            lambda origin_h: (price_rows(), richardson_value(prob, spec, origin_h)),
        )
    rows = [RateRow(n, vn, vref, vref_err, abs(vn - vref), method, window)
            for n, vn, method, window in priced]

    fit_rows = [r for r in rows if r.err > ERR_FLOOR]
    reference_limited = bool(fit_rows) and vref_err > min(r.err for r in fit_rows) / 10.0
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
        family_id=family.describe(),
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
    method: str
    window: Window | None


@dataclass(frozen=True)
class ConjectureReport:
    rows: tuple[ConjectureRow, ...]
    target: float  # the continuous column's exact constant, 2/sqrt(pi)

    def approach_rates(self) -> list[tuple[int, int, float | None]]:
        """Observed rates at which the discrete column nears the target.

        For consecutive pairs among the last three rows, ``(n_i, n_{i+1},
        log(gap_i / gap_{i+1}) / log(n_{i+1} / n_i))`` with ``gap`` the
        distance to the target; None where a gap is zero. Data only: no
        limit is asserted.
        """
        tail = self.rows[-3:]
        out = []
        for a, b in zip(tail, tail[1:]):
            g0 = abs(a.scaled_discrete - self.target)
            g1 = abs(b.scaled_discrete - self.target)
            rate = math.log(g0 / g1) / math.log(b.n / a.n) if g0 > 0.0 and g1 > 0.0 else None
            out.append((a.n, b.n, rate))
        return out


def conjecture_experiment(ns) -> ConjectureReport:
    """Scaled values of both sides for the sharpness family, per n.

    The continuous side has equal volatility bounds ``sqrt(2) * n**-0.25``
    and convex data, so ``n**0.25`` times its closed-form value simplifies
    algebraically to ``2/sqrt(pi)``; the column is emitted as that constant.
    The family has one member, so the discrete side is ``E |S_n| / sqrt(n)``
    under the law of the three-point walk, built by binary powering and
    exact up to a certified window bound <= 1e-16 (each row carries its
    method and window). The walk's variance is only ``2 sqrt(n)`` lattice
    units squared, so the window ``J`` grows like ``n**(1/4)`` and a row costs
    about ``2 log2 n`` convolutions of at most ``2 J + 1`` points. The report
    states both sequences and leaves their limits to the reader.
    """
    ns = _depths(ns)
    payoff = abs_payoff()
    rows = []
    for n in ns:
        family = conjecture_family(n)  # raises BadNError below 4
        vnn = origin_value(family, payoff, n)  # lattice step 1
        method, window = origin_window(family, payoff, n)
        rows.append(ConjectureRow(n, SCALED_TARGET, float(n) ** 0.25 * vnn, method, window))
    return ConjectureReport(rows=tuple(rows), target=SCALED_TARGET)
