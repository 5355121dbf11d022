"""Numerical laboratory for central limit behaviour under volatility uncertainty.

Exact backward sup-expectation recursions over finite families of zero-mean
laws, a monotone explicit solver for the G-heat (Barenblatt) equation with
Richardson error bars and an analytic value for convex data, space-time
mollification and Holder regularity audits, and convergence-rate experiments
comparing the two sides.
"""

from .errors import LabError
from .families import (
    BadNError,
    DiscreteDist,
    DuplicateSupportError,
    EmptyFamilyError,
    Family,
    NonUnitMassError,
    NonZeroMeanError,
    build_family,
    builtin_family,
    check_cubic_condition,
    conjecture_family,
    family_from_config,
    family_to_config,
    make_discrete,
    moment,
    rademacher,
)
from .fields import GridSpec, GridTooSmallError, OutOfHullError, ValueField
from .gheat import (
    CFLViolatedError,
    DegenerateGridError,
    GHeatProblem,
    NotConvexError,
    SchemeInvalidError,
    SchemeSpec,
    convex_oracle,
    default_spec,
    richardson_value,
    solve_gheat,
)
from .payoffs import (
    Payoff,
    abs_payoff,
    abs_pow_payoff,
    cosine_payoff,
    make_payoff,
    neg_abs_payoff,
    payoff_from_config,
    piecewise_linear_payoff,
)
from .rates import (
    ConjectureReport,
    RateReport,
    TooFewPointsError,
    conjecture_experiment,
    error_curve,
    fit_loglog,
    theoretical_exponent,
)
from .recursion import ModeMismatchError, origin_value, solve_recursion
from .smoothing import (
    DomainTooSmallError,
    HypothesisViolatedError,
    MollifierSpec,
    NonFiniteValuesError,
    ResolutionTooCoarseError,
    SampledSurface,
    regularity_audit,
    surface_from_field,
    surface_from_function,
    verify_smoothing_bounds,
)

__version__ = "0.1.0"
