"""Finitely supported zero-mean laws and the families the recursion ranges over.

Only finite support is admitted: the sup-expectation step then reduces to a
finite weighted sum and a pointwise max, so the backward recursion is exact
up to floating-point rounding. Continuous laws are out of scope.

A family carries the moment summaries used throughout: ``sigma_bar`` and
``sigma_under`` (largest and smallest standard deviation across members)
and, when every support point of every member sits on a common grid
``c * Z`` with ``c <= 1``, that lattice step. Families are identified with
sets of laws; only laws enter the recursion, so the underlying probability
spaces are irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import LabError

MOMENT_TOL = 1e-12
LATTICE_TOL = 1e-12
_MIN_LATTICE_STEP = 1e-9


class NonUnitMassError(LabError, ValueError):
    """Probabilities do not sum to one."""


class NonZeroMeanError(LabError, ValueError):
    """The law has a nonzero mean."""


class DuplicateSupportError(LabError, ValueError):
    """A support point appears more than once."""


class EmptyFamilyError(LabError, ValueError):
    """A family needs at least one member."""


class BadNError(LabError, ValueError):
    """Sample count outside the admissible range."""


@dataclass(frozen=True)
class DiscreteDist:
    """A finitely supported zero-mean law, support sorted ascending."""

    support: tuple[float, ...]
    probs: tuple[float, ...]


def make_discrete(support, probs) -> DiscreteDist:
    """Validate and build a :class:`DiscreteDist`.

    Requires equal lengths >= 1, nonnegative weights summing to one within
    ``1e-12``, finite pairwise-distinct support, and mean zero within
    ``1e-12``. The atoms are sorted by support point so that downstream
    summation order is fixed.
    """
    support = [float(x) for x in support]
    probs = [float(p) for p in probs]
    if len(support) != len(probs) or not support:
        raise ValueError("support and probs must have equal length >= 1")
    if any(not math.isfinite(x) for x in support):
        raise ValueError("support points must be finite")
    if any(p < 0 or not math.isfinite(p) for p in probs):
        raise ValueError("probabilities must be finite and nonnegative")
    order = sorted(range(len(support)), key=lambda i: support[i])
    support = [support[i] for i in order]
    probs = [probs[i] for i in order]
    for a, b in zip(support, support[1:]):
        if a == b:
            raise DuplicateSupportError(f"support point {a} repeated")
    mass = math.fsum(probs)
    if abs(mass - 1.0) > MOMENT_TOL:
        raise NonUnitMassError(f"probabilities sum to {mass}, not 1")
    mean = math.fsum(p * x for p, x in zip(probs, support))
    if abs(mean) > MOMENT_TOL:
        raise NonZeroMeanError(f"mean is {mean}, not 0")
    return DiscreteDist(tuple(support), tuple(probs))


def moment(dist: DiscreteDist, k, absolute: bool = False) -> float:
    """Exact finite moment ``sum(p * x**k)``, or of ``|x|`` when ``absolute``.

    Uses :func:`math.fsum` over ascending support, so the result is the
    correctly rounded sum and independent of platform reduction order.
    Non-integer ``k`` requires ``absolute`` (negative bases have no real
    fractional power).
    """
    k = float(k)
    if not absolute and k != int(k):
        raise ValueError("fractional moments require absolute=True")
    if absolute:
        return math.fsum(p * abs(x) ** k for p, x in zip(dist.probs, dist.support))
    return math.fsum(p * x ** k for p, x in zip(dist.probs, dist.support))


@dataclass(frozen=True)
class Family:
    """A nonempty collection of zero-mean laws with derived moment bounds."""

    members: tuple[DiscreteDist, ...]
    beta: float
    sigma_bar: float
    sigma_under: float
    lattice_step: float | None

    def describe(self) -> str:
        kinds = "+".join(str(len(d.support)) for d in self.members)
        return f"{len(self.members)}laws[{kinds}]beta{self.beta:g}"


def _float_gcd(values) -> float:
    g = 0.0
    for v in values:
        v = abs(v)
        while v > LATTICE_TOL:
            g, v = v, math.fmod(g, v)
    return g


def common_lattice_step(points) -> float | None:
    """Greatest ``c <= 1`` such that every point lies on ``c * Z``, or None.

    The greatest common step of the nonzero points is found by a tolerant
    Euclid pass; any admissible step divides it, so the answer is ``g / m``
    for the smallest integer ``m`` bringing it below one. Points without a
    usable common step (the gcd collapses below 1e-9) report None. A support
    consisting only of zero lies on every grid; step 1 is returned.
    """
    nonzero = [abs(p) for p in points if p != 0.0]
    if not nonzero:
        return 1.0
    g = _float_gcd(nonzero)
    if g < _MIN_LATTICE_STEP:
        return None
    step = g if g <= 1.0 + LATTICE_TOL else g / math.ceil(g - LATTICE_TOL)
    step = min(step, 1.0)
    for p in nonzero:
        if abs(p - round(p / step) * step) > LATTICE_TOL:
            return None
    return step


def build_family(members, beta) -> Family:
    """Build a :class:`Family` with derived ``sigma`` bounds and lattice step."""
    members = tuple(members)
    if not members:
        raise EmptyFamilyError("family needs at least one member")
    beta = float(beta)
    if not (0.0 < beta <= 1.0 or beta == 2.0):
        raise ValueError(f"beta must lie in (0, 1] or equal 2, got {beta}")
    sds = [math.sqrt(moment(d, 2)) for d in members]
    points = [x for d in members for x in d.support]
    return Family(
        members=members,
        beta=beta,
        sigma_bar=max(sds),
        sigma_under=min(sds),
        lattice_step=common_lattice_step(points),
    )


def rademacher(scale: float = 1.0) -> DiscreteDist:
    """Fair two-point law at ``-scale`` and ``+scale``."""
    return make_discrete((-scale, scale), (0.5, 0.5))


def conjecture_family(n: int) -> Family:
    """Singleton sharpness family: atoms at -1, 0, 1 with ``P(+-1) = n**-0.5``.

    Needs ``n >= 4`` so the middle weight ``1 - 2 n**-0.5`` is nonnegative.
    Its second moment is ``2 * n**-0.5`` exactly.
    """
    if int(n) != n or n < 4:
        raise BadNError(f"need integer n >= 4, got {n}")
    p = float(n) ** -0.5
    dist = make_discrete((-1.0, 0.0, 1.0), (p, 1.0 - 2.0 * p, p))
    return build_family((dist,), beta=2.0)


def check_cubic_condition(family: Family) -> bool:
    """True if every member's third moment vanishes (within 1e-12).

    Fourth moments are automatically finite on finite support, so this is
    the only moment condition separating the improved convergence exponent
    from the basic one.
    """
    return all(abs(moment(d, 3)) <= MOMENT_TOL for d in family.members)


def family_from_config(cfg: dict) -> Family:
    """Load a family from ``{"beta": ..., "members": [{"support": ..., "probs": ...}]}``."""
    if not isinstance(cfg, dict):
        raise ValueError("family config must be a JSON object")
    try:
        beta = cfg["beta"]
        raw_members = cfg["members"]
        members = [make_discrete(m["support"], m["probs"]) for m in raw_members]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family config: {exc}") from exc
    return build_family(members, beta)


def family_to_config(family: Family) -> dict:
    return {
        "beta": family.beta,
        "members": [
            {"support": list(d.support), "probs": list(d.probs)}
            for d in family.members
        ],
    }


BUILTIN_FAMILIES = {
    "rademacher": lambda: build_family((rademacher(),), beta=1.0),
    "rademacher_half": lambda: build_family((rademacher(0.5),), beta=1.0),
    "rademacher_pair": lambda: build_family((rademacher(), rademacher(0.5)), beta=1.0),
}


def builtin_family(name: str) -> Family:
    try:
        return BUILTIN_FAMILIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(BUILTIN_FAMILIES)}"
        ) from None
