import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cltlab import (
    CFLViolatedError,
    DegenerateGridError,
    GHeatProblem,
    GridTooSmallError,
    NotConvexError,
    Payoff,
    SchemeSpec,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    convex_oracle,
    cosine_payoff,
    default_spec,
    make_discrete,
    neg_abs_payoff,
    origin_value,
    piecewise_linear_payoff,
    richardson_value,
    solve_gheat,
)
from cltlab import gheat

from oracles import (
    ROOT_2_OVER_PI,
    TWO_OVER_ROOT_PI,
    gauss_hermite_expectation,
    long_double_heat_march,
    policy_march,
)

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


class TestEqualVolatility:
    """Equal bounds: every stored level of the linear scheme in closed form."""

    @pytest.mark.parametrize("h", [0.05, 0.01])
    def test_origin_is_the_binomial_mean_at_cfl_ratio_one(self, h):
        # at ratio 1 a step averages the two neighbours, so n steps are a
        # fair +-h walk and the origin holds h * E|S_n|, S_n even
        prob = GHeatProblem(1.0, 1.0, ABS)
        field = solve_gheat(prob, default_spec(prob, h=h), store="final")
        n = field.n
        assert n % 2 == 0
        exact = h * (n * math.comb(n, n // 2) / 2**n)
        assert abs(field.origin_value() - exact) <= 1e-14

    @pytest.mark.parametrize(
        "payoff, h, cfl_ratio",
        [
            (abs_payoff(), 0.04, 1.0),  # 625 steps: mu < 0 to an odd power
            (cosine_payoff(), 0.04, 1.0),
            (abs_payoff(), 0.05, 0.7),  # mu < 0 for the top modes only
            (neg_abs_payoff(), 0.05, 0.4),  # mu > 0 throughout
            # not even, and the frozen ends differ: 0.5 at -8, 1.0 at +8
            (piecewise_linear_payoff([-1.0, 0.0, 2.0], [0.5, 0.0, 1.0]), 0.04, 0.9),
        ],
        ids=["abs-odd-steps", "cosine", "abs-ratio-0.7", "neg_abs-ratio-0.4", "uneven-ends"],
    )
    def test_levels_match_a_long_double_march(self, payoff, h, cfl_ratio):
        prob = GHeatProblem(1.0, 1.0, payoff)
        field = solve_gheat(prob, SchemeSpec(h, cfl_ratio * h * h, 8.0))
        n = field.n
        ms = [n - round(t * n) for t in field.times]
        a = 1.0 / n / (2.0 * h * h)
        for level, oracle in zip(field.values, long_double_heat_march(payoff(field.xs[0]), a, ms)):
            assert np.max(np.abs(level - oracle)) <= 1e-14
        assert np.array_equal(field.values[-1], payoff(field.xs[0]))

    @pytest.mark.parametrize("payoff", [abs_payoff(), cosine_payoff()], ids=lambda p: p.kind)
    def test_final_is_the_first_stored_level(self, payoff):
        prob = GHeatProblem(1.0, 1.0, payoff)
        spec = SchemeSpec(0.04, 0.9 * 0.04**2, 8.0)
        levels = solve_gheat(prob, spec, store="levels")
        final = solve_gheat(prob, spec, store="final")
        assert len(levels.values) > 2
        assert np.array_equal(final.values[0], levels.values[0])


class TestRichardson:
    @staticmethod
    def refined_pair(prob, spec):
        coarse = solve_gheat(prob, spec, store="final").origin_value()
        half = SchemeSpec(spec.h / 2, spec.tau / 4, spec.half_width)
        fine = solve_gheat(prob, half, store="final").origin_value()
        return fine, abs(fine - coarse)

    def test_extrapolates_at_observed_order_two(self):
        prob = GHeatProblem(1.0, 1.0, cosine_payoff())
        value, err = richardson_value(prob, default_spec(prob, h=1 / 100))
        assert abs(value - math.exp(-0.5)) <= err / 100

    @pytest.fixture
    def marched(self, monkeypatch):
        """Spatial steps of the grids richardson_value marches, in order."""
        steps = []
        solve = gheat.solve_gheat

        def recorder(prob, spec, store="levels"):
            steps.append(spec.h)
            return solve(prob, spec, store)

        monkeypatch.setattr(gheat, "solve_gheat", recorder)
        return steps

    def test_marches_no_grid_finer_than_asked(self, marched):
        prob = GHeatProblem(1.0, 1.0, cosine_payoff())
        spec = default_spec(prob, h=1 / 100)
        richardson_value(prob, spec)
        assert sorted(marched) == [spec.h, 2 * spec.h, 4 * spec.h]

    def test_falls_back_to_refined_pair_off_order_two(self):
        # the cusp of |x|**0.5 gives an observed order near 1.7
        prob = GHeatProblem(0.5, 1.0, abs_pow_payoff(0.5))
        spec = default_spec(prob, h=1 / 100)
        assert richardson_value(prob, spec) == self.refined_pair(prob, spec)

    def test_degenerate_coarse_grid_falls_back(self):
        # steps 4, 16, 64 nest, but the 4h grid has one interior point
        prob = GHeatProblem(0.0, 0.1, ABS)
        spec = SchemeSpec(h=0.25, tau=1 / 64, half_width=1.0)
        assert richardson_value(prob, spec) == self.refined_pair(prob, spec)

    def test_unnested_steps_skip_coarse_levels(self, marched):
        # at h = 0.1 tau rounds to 7 steps at 4h, not 100 / 16: the CFL
        # ratio would differ, so only h/2 and h are marched
        prob = GHeatProblem(1.0, 1.0, cosine_payoff())
        spec = default_spec(prob, h=0.1)
        assert [spec.scaled(f).steps() for f in (1, 2, 4)] == [100, 25, 7]
        assert richardson_value(prob, spec) == self.refined_pair(prob, spec)
        assert marched == [spec.h / 2, spec.h]

    @pytest.mark.parametrize(
        "prob, spec, coarse",
        [
            (GHeatProblem(1.0, 1.0, cosine_payoff()), SchemeSpec(0.1, 0.01, 8.0), []),
            (GHeatProblem(0.0, 0.1, ABS), SchemeSpec(0.25, 1 / 64, 1.0), [1.0]),
        ],
        ids=["unnested", "degenerate-4h"],
    )
    def test_skipped_coarse_levels_march_h_half_before_reading_v_h(
        self, marched, prob, spec, coarse
    ):
        # the pair needs no v(h) to march h/2, so a v(h) marched elsewhere
        # is read after it; the degenerate 4h grid is tried and refused
        expected, origin = self.refined_pair(prob, spec), gheat.scheme_origin(prob, spec)
        del marched[:]

        def origin_h():
            marched.append("v(h)")
            return origin

        assert richardson_value(prob, spec, origin_h) == expected
        assert marched == [*coarse, spec.h / 2, "v(h)"]

    def test_exactly_zero_gaps_return_h_with_zero_bar(self, marched):
        # constant data: 4h, 2h and h agree exactly, so h/2 is not marched
        const = piecewise_linear_payoff([-8.0, 8.0], [0.25, 0.25])
        prob = GHeatProblem(0.5, 1.0, const)
        spec = default_spec(prob, h=0.05)
        assert richardson_value(prob, spec) == (0.25, 0.0)
        assert sorted(marched) == [spec.h, 2 * spec.h, 4 * spec.h]

    @pytest.mark.parametrize(
        "prob",
        [
            GHeatProblem(1.0, 1.0, cosine_payoff()),  # extrapolates
            GHeatProblem(0.5, 1.0, abs_pow_payoff(0.5)),  # falls back
        ],
        ids=["order_two", "fallback"],
    )
    def test_reuses_a_marched_h_field(self, prob, marched):
        spec = default_spec(prob, h=1 / 50)
        expected = richardson_value(prob, spec)
        for store in ("levels", "final"):
            origin_h = solve_gheat(prob, spec, store=store).origin_value()
            del marched[:]
            assert richardson_value(prob, spec, origin_h) == expected
            assert spec.h not in marched


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
        assert convex_oracle(prob) == 0.4

    def test_rejects_nonconvex(self):
        with pytest.raises(NotConvexError):
            convex_oracle(GHeatProblem(1.0, 1.0, neg_abs_payoff()))

    def test_closed_form_matches_quadrature(self):
        gh = gauss_hermite_expectation(ABS, 1.2, nodes=4096)
        assert convex_oracle(GHeatProblem(1.2, 1.2, ABS)) == pytest.approx(gh, abs=1e-3)


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
    gh = gauss_hermite_expectation(payoff, 1.0, nodes=16384)
    quad_err = abs(gh - gauss_hermite_expectation(payoff, 1.0, nodes=4096))
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
    assert family.lattice_step is not None  # so origin_value marches the lattice
    recursion = origin_value(family, payoff, n)
    assert recursion == pytest.approx(field.origin_value(), abs=1e-12)


@pytest.mark.parametrize(
    "payoff",
    [
        abs_payoff(),
        neg_abs_payoff(),
        cosine_payoff(),
        abs_pow_payoff(0.5),
        piecewise_linear_payoff([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]),
    ],
    ids=lambda p: p.kind,
)
@pytest.mark.parametrize("sigma_under, sigma_bar", [(0.5, 1.0), (1.0, 1.0), (0.0, 1.0)])
def test_even_payoff_gives_even_field(sigma_under, sigma_bar, payoff):
    prob = GHeatProblem(sigma_under, sigma_bar, payoff)
    field = solve_gheat(prob, default_spec(prob, h=0.05), store="levels")
    assert len(field.values) > 2
    for v in field.values:
        assert np.array_equal(v, v[::-1])


@st.composite
def lipschitz_payoffs(draw):
    """Piecewise-linear data with knots on Z/4 and slopes in [-1, 1].

    About half the draws are folded into ``g(|x|)``, data even to the last
    bit, which the scheme marches on ``x >= 0`` only.
    """
    ks = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=5, unique=True))
    knots = np.sort(ks).astype(float) / 4.0
    slopes = np.array([draw(st.floats(-1.0, 1.0)) for _ in knots[1:]])
    values = np.concatenate(([0.0], np.cumsum(slopes * np.diff(knots))))
    payoff = piecewise_linear_payoff(knots, values)
    if draw(st.booleans()):
        return Payoff("folded", 1.0, False, lambda a: payoff(np.abs(a)))
    return payoff


@given(
    payoff=lipschitz_payoffs(),
    sigma_bar=st.floats(0.2, 1.0),
    under=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    h=st.floats(0.05, 0.2),
    cfl_ratio=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scheme_bounds_every_policy_march(payoff, sigma_bar, under, h, cfl_ratio, seed):
    # under CFL, u + a * d2u is monotone for every per-point a in [a_lo, a_hi],
    # and each scheme step takes the largest such update, so by induction the
    # scheme bounds the march of every policy; the bang-bang policy (a_hi
    # where d2u >= 0, else a_lo) is the scheme itself
    prob = GHeatProblem(under * sigma_bar, sigma_bar, payoff)
    spec = SchemeSpec(h, cfl_ratio * h * h / sigma_bar**2, 8.0 * sigma_bar)
    field = solve_gheat(prob, spec, store="final")
    n = field.n
    a_hi, a_lo = (1.0 / n * s**2 / (2.0 * h * h) for s in (sigma_bar, prob.sigma_under))
    terminal = payoff(field.xs[0])
    rng = np.random.default_rng(seed)

    def random_policy(k, d2):
        return a_lo + rng.random(d2.size) * (a_hi - a_lo)

    def bang_bang(k, d2):
        return np.where(d2 >= 0.0, a_hi, a_lo)

    scheme = field.values[0]
    assert np.all(scheme >= policy_march(terminal, a_lo, a_hi, n, random_policy) - 1e-12)
    assert np.max(np.abs(policy_march(terminal, a_lo, a_hi, n, bang_bang) - scheme)) <= 1e-12


@pytest.mark.parametrize("payoff", [abs_payoff(), neg_abs_payoff()], ids=lambda p: p.kind)
@pytest.mark.parametrize("c", [2.0, 0.5])
def test_scheme_scales_with_volatility(payoff, c):
    # sigma -> c sigma and x -> c x at a fixed time step multiply the value of
    # positively homogeneous data by c; c is a power of two, so the scaling
    # commutes with every rounding and the values agree exactly
    def origin(scale):
        prob = GHeatProblem(0.5 * scale, scale, payoff)
        spec = SchemeSpec(0.05 * scale, 0.0025, 8.0 * scale)
        return solve_gheat(prob, spec, store="final").origin_value()

    assert origin(c) == c * origin(1.0)
