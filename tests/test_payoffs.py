import numpy as np
import pytest
from hypothesis import given, strategies as st

from cltlab import (
    GridSpec,
    abs_payoff,
    abs_pow_payoff,
    cosine_payoff,
    make_payoff,
    neg_abs_payoff,
    payoff_from_config,
    piecewise_linear_payoff,
)

from oracles import sampled_pairs

ALL_BUILTINS = [
    abs_payoff(),
    abs_pow_payoff(0.5),
    abs_pow_payoff(1.0),
    neg_abs_payoff(),
    cosine_payoff(),
    piecewise_linear_payoff([-1.0, 0.0, 2.0], [0.5, 0.0, 1.0]),
]


class TestEval:
    def test_abs(self):
        assert abs_payoff()(-3.0) == 3.0

    def test_abs_pow(self):
        assert abs_pow_payoff(0.5)(4.0) == 2.0

    def test_cosine(self):
        assert cosine_payoff()(0.0) == 1.0

    def test_vectorized(self):
        out = abs_payoff()(np.array([-1.0, 2.0]))
        assert out.tolist() == [1.0, 2.0]

    def test_piecewise_constant_extension(self):
        p = piecewise_linear_payoff([0.0, 1.0], [0.0, 1.0])
        assert p(-5.0) == 0.0
        assert p(5.0) == 1.0


def holder_ratio(payoff, beta, count, seed, x_range=(-4.0, 4.0)) -> float:
    """Worst ``|f(x) - f(y)| / |x - y|**beta`` over sampled pairs."""
    xs, ys = sampled_pairs(count, seed, x_range)
    return float(np.max(np.abs(payoff(xs) - payoff(ys)) / np.abs(xs - ys) ** beta))


def midpoint_excess(payoff) -> float:
    """Worst ``f((x + y) / 2) - (f(x) + f(y)) / 2`` over sampled pairs."""
    xs, ys = sampled_pairs(512, seed=2)
    return float(np.max(payoff((xs + ys) / 2.0) - (payoff(xs) + payoff(ys)) / 2.0))


@pytest.mark.parametrize("payoff", ALL_BUILTINS, ids=lambda p: f"{p.kind}-{p.beta}")
def test_holder_certificates(payoff):
    assert holder_ratio(payoff, payoff.beta, 2048, seed=1) <= 1.0 + 1e-9


def test_abs_fails_half_exponent_on_wide_range():
    # gaps above 1 make |x - y| exceed its square root
    assert holder_ratio(abs_payoff(), 0.5, 256, seed=0, x_range=(-2.0, 2.0)) > 1.0 + 1e-9


class TestConvexity:
    def test_flags(self):
        assert abs_payoff().convex
        assert abs_pow_payoff(1.0).convex
        assert not abs_pow_payoff(0.5).convex
        assert not neg_abs_payoff().convex
        assert not cosine_payoff().convex

    def test_audit_agrees_with_abs(self):
        assert midpoint_excess(abs_payoff()) <= 1e-12

    def test_audit_rejects_cosine(self):
        assert midpoint_excess(cosine_payoff()) > 1e-12

    def test_audit_rejects_neg_abs(self):
        assert midpoint_excess(neg_abs_payoff()) > 1e-12

    def test_piecewise_convex_flag(self):
        vee = piecewise_linear_payoff([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5])
        assert not vee.convex  # flat extension breaks convexity at the ends
        flat = piecewise_linear_payoff([-1.0, 1.0], [0.3, 0.3])
        assert flat.convex


@pytest.mark.parametrize("h", [1 / 400, 1 / 100, 0.05])
@pytest.mark.parametrize(
    "knots, values",
    [([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5]), ([-0.75, 0.0, 0.75], [0.2, 0.7, 0.2])],
    ids=["vee", "tent"],
)
def test_mirrored_piecewise_is_exactly_even(knots, values, h):
    # plain np.interp breaks evenness by up to 1.1e-16 on these grids
    x = GridSpec(step=h, half_width=8.0).points()
    terminal = piecewise_linear_payoff(knots, values)(x)
    assert np.array_equal(terminal, terminal[::-1])
    right = x >= 0.0
    assert np.array_equal(terminal[right], np.interp(x[right], knots, values))


class TestPiecewiseValidation:
    def test_slope_bound(self):
        with pytest.raises(ValueError):
            piecewise_linear_payoff([0.0, 1.0], [0.0, 2.0])

    def test_knot_order(self):
        with pytest.raises(ValueError):
            piecewise_linear_payoff([1.0, 0.0], [0.0, 0.5])


@given(
    st.lists(st.integers(-16, 16), min_size=3, max_size=6, unique=True),
    st.data(),
)
def test_random_piecewise_is_one_lipschitz(knot_grid, data):
    knots = np.sort(np.asarray(knot_grid, dtype=float)) / 4.0
    values = [0.0]
    for gap in np.diff(knots):
        slope = data.draw(st.floats(-1.0, 1.0))
        values.append(values[-1] + slope * gap)
    p = piecewise_linear_payoff(knots, values)
    assert holder_ratio(p, 1.0, 512, seed=3, x_range=(-6.0, 6.0)) <= 1.0 + 1e-9


class TestConfig:
    def test_named(self):
        assert payoff_from_config({"phi": "abs"}).kind == "abs"

    def test_with_beta(self):
        p = payoff_from_config({"phi": "abs_pow", "beta": 0.5})
        assert p.beta == 0.5

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_payoff("heaviside")

    def test_missing_beta(self):
        with pytest.raises(ValueError):
            make_payoff("abs_pow")

    @pytest.mark.parametrize(
        "cfg, extra",
        [
            ({"phi": "abs", "beta": 0.3}, "beta"),
            ({"phi": "cosine_scaled", "knots": [-1, 1], "values": [0, 0]}, "knots, values"),
            ({"phi": "abs_pow", "beta": 0.5, "values": [0, 0]}, "values"),
            ({"phi": "piecewise_linear", "knots": [-1, 1], "values": [0, 0], "beta": 1},
             "beta"),
            ({"phi": "abs_pow", "beta": 0.5, "exponent": 0.5}, "exponent"),
        ],
    )
    def test_refuses_a_parameter_the_kind_does_not_take(self, cfg, extra):
        with pytest.raises(ValueError, match=f"{cfg['phi']} does not take {extra}$"):
            payoff_from_config(cfg)
