"""Finitely supported zero-mean laws and the families the recursion ranges over.

Only finite support is admitted: the sup-expectation step then reduces to a
finite weighted sum and a pointwise max, so the backward recursion is exact
up to floating-point rounding. Continuous laws are out of scope.

A family carries the moment summaries used throughout: ``sigma_bar`` and
``sigma_under`` (largest and smallest standard deviation across members)
and, when every support point of every member sits on a common grid
``c * Z`` with ``c <= 1``, that step and each member's support in units of
it (``offsets``). Families are identified with sets of laws; only laws
enter the recursion, so the underlying probability spaces are irrelevant.
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
    ``1e-12``, pairwise-distinct support with finite cubes, and mean zero within
    ``1e-12``. The atoms are sorted by support point so that downstream
    summation order is fixed.
    """
    support = [float(x) for x in support]
    probs = [float(p) for p in probs]
    if len(support) != len(probs) or not support:
        raise ValueError("support and probs must have equal length >= 1")
    if not all(math.isfinite(x * x * x) for x in support):  # where x ** 3 raises
        raise ValueError("support points and their cubes must be finite")
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


def moment(dist: DiscreteDist, k) -> float:
    """Exact finite moment ``sum(p * x**k)`` of integer order ``k``.

    Uses :func:`math.fsum` over ascending support, so the result is the
    correctly rounded sum and independent of platform reduction order.
    A non-integer ``k`` is refused.
    """
    k = float(k)
    if k != int(k):
        raise ValueError(f"moment order must be an integer, got {k}")
    return math.fsum(p * x ** k for p, x in zip(dist.probs, dist.support))


@dataclass(frozen=True)
class Family:
    """A nonempty collection of zero-mean laws with derived moment bounds."""

    members: tuple[DiscreteDist, ...]
    sigma_bar: float
    sigma_under: float
    lattice_step: float | None
    offsets: tuple[tuple[int, ...], ...] | None  # per member, support / lattice_step

    def describe(self) -> str:
        kinds = "+".join(str(len(d.support)) for d in self.members)
        return f"{len(self.members)}laws[{kinds}]"


def _float_gcd(values) -> float:
    g = 0.0
    for v in values:
        v = abs(v)
        while v > LATTICE_TOL:
            g, v = v, math.fmod(g, v)
    return g


def _lattice(supports):
    """Greatest ``c <= 1`` with every point of ``supports`` on ``c * Z``, and
    each support in units of ``c``; ``(None, None)`` when there is none.

    The greatest common step of the nonzero points is found by a tolerant
    Euclid pass; any admissible step divides it, so the answer is ``g / m``
    for the smallest integer ``m`` bringing it below one. Points without a
    usable common step (the gcd collapses below 1e-9) have none. Supports
    consisting only of zero lie on every grid; step 1 is returned.
    """
    nonzero = [abs(x) for s in supports for x in s if x != 0.0]
    if not nonzero:
        return 1.0, tuple((0,) * len(s) for s in supports)
    g = _float_gcd(nonzero)
    if g < _MIN_LATTICE_STEP:
        return None, None
    step = g if g <= 1.0 + LATTICE_TOL else g / math.ceil(g - LATTICE_TOL)
    step = min(step, 1.0)
    offsets = tuple(tuple(round(x / step) for x in s) for s in supports)
    for s, offs in zip(supports, offsets):
        if any(abs(x - j * step) > LATTICE_TOL for x, j in zip(s, offs)):
            return None, None
    return step, offsets


def build_family(members) -> Family:
    """Build a :class:`Family` with derived ``sigma`` bounds and lattice step."""
    members = tuple(members)
    if not members:
        raise EmptyFamilyError("family needs at least one member")
    sds = [math.sqrt(moment(d, 2)) for d in members]
    step, offsets = _lattice([d.support for d in members])
    return Family(
        members=members,
        sigma_bar=max(sds),
        sigma_under=min(sds),
        lattice_step=step,
        offsets=offsets,
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
    return build_family((dist,))


def check_cubic_condition(family: Family) -> bool:
    """True if every member's third moment vanishes (within 1e-12).

    Fourth moments are automatically finite on finite support, so this is
    the only moment condition separating the improved convergence exponent
    from the basic one.
    """
    return all(abs(moment(d, 3)) <= MOMENT_TOL for d in family.members)


def _exact_keys(obj, keys: set, what: str) -> dict:
    """``obj`` if it is a JSON object with exactly ``keys``, else ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    if set(obj) != keys:
        got = sorted(map(str, obj))
        raise ValueError(f"{what} takes exactly the keys {sorted(keys)}, got {got}")
    return obj


def family_from_config(cfg: dict) -> Family:
    """Load a family from exactly ``{"members": [{"support": ..., "probs": ...}]}``."""
    raw_members = _exact_keys(cfg, {"members"}, "family config")["members"]
    try:
        members = [make_discrete(**_exact_keys(m, {"support", "probs"}, "family member"))
                   for m in raw_members]
    except TypeError as exc:
        raise ValueError(f"malformed family config: {exc}") from exc
    return build_family(members)


def family_to_config(family: Family) -> dict:
    return {
        "members": [
            {"support": list(d.support), "probs": list(d.probs)}
            for d in family.members
        ],
    }


BUILTIN_FAMILIES = {
    "rademacher": lambda: build_family((rademacher(),)),
    "rademacher_half": lambda: build_family((rademacher(0.5),)),
    "rademacher_pair": lambda: build_family((rademacher(), rademacher(0.5))),
}


def builtin_family(name: str) -> Family:
    try:
        return BUILTIN_FAMILIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; known: {sorted(BUILTIN_FAMILIES)}"
        ) from None
