import math

import numpy as np
import pytest

from cltlab import (
    CFLViolatedError,
    DegenerateGridError,
    GHeatProblem,
    GridTooSmallError,
    NotConvexError,
    SchemeSpec,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    constant_control,
    convex_oracle,
    cosine_payoff,
    default_spec,
    gauss_hermite_expectation,
    gaussian_abs_mean,
    make_discrete,
    mc_lower_bound,
    neg_abs_payoff,
    origin_value,
    piecewise_linear_payoff,
    richardson_value,
    sign_feedback_control,
    solve_gheat,
)

from oracles import ROOT_2_OVER_PI, TWO_OVER_ROOT_PI

ABS = abs_payoff()


class TestEndpointReduction:
    """One scheme step (h = tau = sigma_bar = 1) at the kink of the data."""

    @staticmethod
    def step(sigma_under, payoff):
        prob = GHeatProblem(sigma_under, 1.0, payoff)
        field = solve_gheat(
            prob, SchemeSpec(h=1.0, tau=1.0, half_width=8.0), store="final"
        )
        assert field.n == 1
        return field

    def test_positive_curvature(self):
        # second difference 2 at the origin, moved by the sigma_bar weight 1/2
        assert self.step(0.5, ABS).origin_value() == 1.0

    def test_negative_curvature(self):
        # second difference -2, moved by the sigma_under weight 0.5**2 / 2
        assert self.step(0.5, neg_abs_payoff()).origin_value() == -0.25

    def test_flat(self):
        line = piecewise_linear_payoff([-8.0, 8.0], [-4.0, 4.0])
        field = self.step(0.5, line)
        assert np.array_equal(field.values[0], line(field.xs[0]))

    def test_degenerate_lower_bound(self):
        field = self.step(0.0, neg_abs_payoff())
        assert np.array_equal(field.values[0], neg_abs_payoff()(field.xs[0]))


class TestSolver:
    def test_no_diffusion_returns_payoff(self):
        prob = GHeatProblem(0.0, 0.0, ABS)
        field = solve_gheat(prob, SchemeSpec(h=0.05, tau=0.1, half_width=2.0))
        assert np.array_equal(field.values[0], ABS(field.xs[0]))

    def test_constant_payoff_preserved_exactly(self):
        const = piecewise_linear_payoff([-1.0, 1.0], [0.3, 0.3])
        prob = GHeatProblem(0.5, 1.0, const)
        field = solve_gheat(prob, default_spec(prob, h=0.02), store="final")
        assert np.all(field.values[0] == 0.3)

    def test_classical_value(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        value, err = richardson_value(prob, default_spec(prob, h=1 / 100))
        assert abs(value - ROOT_2_OVER_PI) <= 3 * err
        assert err < 1e-4

    def test_uncertain_volatility_convex_data_hits_upper_bound(self):
        # convex terminal data keeps curvature nonnegative, so the top
        # volatility is always active and the value matches the convex oracle
        prob = GHeatProblem(0.5, 1.0, ABS)
        value, err = richardson_value(prob, default_spec(prob, h=1 / 100))
        assert abs(value - convex_oracle(prob)) <= 2 * err

    def test_error_bar_shrinks_with_h(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        _, coarse = richardson_value(prob, default_spec(prob, h=1 / 25))
        _, fine = richardson_value(prob, default_spec(prob, h=1 / 50))
        assert fine <= coarse / 2.0

    def test_zero_diffusion_error_bar_is_zero(self):
        prob = GHeatProblem(0.0, 0.0, ABS)
        value, err = richardson_value(prob, SchemeSpec(h=0.05, tau=0.1, half_width=2.0))
        assert value == 0.0
        assert err == 0.0

    def test_cfl_violation(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        with pytest.raises(CFLViolatedError):
            solve_gheat(prob, SchemeSpec(h=0.1, tau=0.02, half_width=8.0))

    def test_half_width_enforced(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        with pytest.raises(GridTooSmallError):
            solve_gheat(prob, SchemeSpec(h=0.1, tau=0.01, half_width=2.0))

    def test_degenerate_grid(self):
        prob = GHeatProblem(0.1, 0.1, ABS)
        with pytest.raises(DegenerateGridError):
            solve_gheat(prob, SchemeSpec(h=1.0, tau=0.5, half_width=1.0))

    def test_comparison_principle(self):
        rng = np.random.default_rng(5)
        spec = SchemeSpec(h=1 / 25, tau=(1 / 25) ** 2, half_width=8.0)
        for _ in range(20):
            knots = np.array([-3.0, -1.0, 0.5, 2.0])
            low = np.cumsum(rng.uniform(-1, 1, 4) * 0.5)
            high = np.maximum(low, np.cumsum(rng.uniform(-1, 1, 4) * 0.5))
            u1 = solve_gheat(
                GHeatProblem(0.3, 1.0, piecewise_linear_payoff(knots, low)),
                spec,
                store="final",
            )
            u2 = solve_gheat(
                GHeatProblem(0.3, 1.0, piecewise_linear_payoff(knots, high)),
                spec,
                store="final",
            )
            assert np.all(u1.values[0] <= u2.values[0] + 1e-12)


class TestConvexOracle:
    def test_classical_abs(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        assert convex_oracle(prob) == pytest.approx(ROOT_2_OVER_PI, abs=1e-15)

    def test_variance_two(self):
        prob = GHeatProblem(math.sqrt(2), math.sqrt(2), ABS)
        assert convex_oracle(prob) == pytest.approx(TWO_OVER_ROOT_PI, abs=1e-14)

    def test_constant(self):
        const = piecewise_linear_payoff([-1.0, 1.0], [0.4, 0.4])
        prob = GHeatProblem(0.2, 1.0, const)
        assert convex_oracle(prob) == pytest.approx(0.4, abs=1e-12)

    def test_rejects_nonconvex(self):
        with pytest.raises(NotConvexError):
            convex_oracle(GHeatProblem(1.0, 1.0, neg_abs_payoff()))

    def test_closed_form_matches_quadrature(self):
        gh = gauss_hermite_expectation(ABS, 0.3, 1.2, nodes=4096)
        assert gaussian_abs_mean(0.3, 1.2) == pytest.approx(gh, abs=1e-3)

    def test_closed_form_even_in_x(self):
        assert gaussian_abs_mean(0.7, 0.9) == pytest.approx(
            gaussian_abs_mean(-0.7, 0.9), abs=1e-15
        )


@pytest.mark.parametrize(
    "payoff",
    [
        abs_payoff(),
        abs_pow_payoff(0.5),
        neg_abs_payoff(),
        cosine_payoff(),
        piecewise_linear_payoff([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),
    ],
    ids=lambda p: p.kind,
)
def test_degenerate_reduction_matches_heat_quadrature(payoff):
    # equal bounds turn the scheme linear; the heat value is a plain Gaussian
    # expectation. Gauss-Hermite converges slowly and erratically through
    # kinks, so its own bar is the gap across a 4x node jump, which dominates
    # the error at the larger count for every catalogue entry.
    prob = GHeatProblem(1.0, 1.0, payoff)
    value, scheme_err = richardson_value(prob, default_spec(prob, h=1 / 100))
    gh = gauss_hermite_expectation(payoff, 0.0, 1.0, nodes=16384)
    quad_err = abs(gh - gauss_hermite_expectation(payoff, 0.0, 1.0, nodes=4096))
    assert abs(value - gh) <= 3 * scheme_err + quad_err


@pytest.mark.parametrize("h, cfl_ratio", [(0.05, 1.0), (0.1, 0.5), (0.04, 0.8)])
@pytest.mark.parametrize(
    "payoff",
    [
        abs_payoff(),
        neg_abs_payoff(),
        cosine_payoff(),
        # not even, so the scheme marches the whole grid
        piecewise_linear_payoff([-1.0, 0.0, 2.0], [0.5, 0.0, 1.0]),
    ],
    ids=lambda p: p.kind,
)
@pytest.mark.parametrize(
    "sigma_under, sigma_bar", [(0.5, 1.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.7)]
)
def test_scheme_is_trinomial_sup_recursion(sigma_under, sigma_bar, payoff, h, cfl_ratio):
    # n scheme steps of tau = 1/n are n levels of the sup-recursion over two
    # trinomial laws on {-s, 0, s}, s = h * sqrt(n), whose end weights are the
    # scheme's weights at the two endpoint volatilities; only rounding and the
    # Gaussian-tail boundary bias at 8 * sigma_bar separate the two
    prob = GHeatProblem(sigma_under, sigma_bar, payoff)
    spec = SchemeSpec(h, cfl_ratio * h * h / sigma_bar**2, 8.0 * sigma_bar)
    field = solve_gheat(prob, spec, store="final")
    n = field.n
    s = h * math.sqrt(n)
    weights = [1.0 / n * sig**2 / (2.0 * h * h) for sig in (sigma_bar, sigma_under)]
    family = build_family(
        [make_discrete([-s, 0.0, s], [a, 1.0 - 2.0 * a, a]) for a in weights], beta=1.0
    )
    recursion = origin_value(family, payoff, n, mode="lattice")
    assert recursion == pytest.approx(field.origin_value(), abs=1e-12)


@pytest.mark.parametrize(
    "payoff",
    [abs_payoff(), neg_abs_payoff(), cosine_payoff(), abs_pow_payoff(0.5)],
    ids=lambda p: p.kind,
)
@pytest.mark.parametrize("sigma_under, sigma_bar", [(0.5, 1.0), (1.0, 1.0), (0.0, 1.0)])
def test_even_payoff_gives_even_field(sigma_under, sigma_bar, payoff):
    prob = GHeatProblem(sigma_under, sigma_bar, payoff)
    field = solve_gheat(prob, default_spec(prob, h=0.05), store="levels")
    assert len(field.values) > 2
    for v in field.values:
        assert np.array_equal(v, v[::-1])


class TestMonteCarlo:
    def test_classical_lower_bound(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        est, se = mc_lower_bound(prob, constant_control(1.0), 200_000, seed=7)
        assert abs(est - ROOT_2_OVER_PI) <= 3 * se
        assert se < 0.01

    def test_any_control_stays_below_solver(self):
        prob = GHeatProblem(0.5, 1.0, ABS)
        value, err = richardson_value(prob, default_spec(prob, h=1 / 100))
        for ctrl in (
            constant_control(0.5, 4),
            constant_control(1.0, 4),
            sign_feedback_control(1.0, 0.5, 8),
        ):
            est, se = mc_lower_bound(prob, ctrl, 100_000, seed=11)
            assert est - 3 * se <= value + err

    def test_zero_volatility_is_exact(self):
        prob = GHeatProblem(0.0, 1.0, ABS)
        est, se = mc_lower_bound(prob, constant_control(0.0, 3), 1000, seed=1)
        assert est == 0.0
        assert se == 0.0

    def test_out_of_band_control_rejected(self):
        prob = GHeatProblem(0.5, 1.0, ABS)
        with pytest.raises(ValueError):
            mc_lower_bound(prob, constant_control(2.0), 10, seed=0)

    def test_deterministic_given_seed(self):
        prob = GHeatProblem(0.5, 1.0, ABS)
        a = mc_lower_bound(prob, constant_control(1.0, 2), 5000, seed=3)
        b = mc_lower_bound(prob, constant_control(1.0, 2), 5000, seed=3)
        assert a == b
