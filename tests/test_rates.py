import math

import pytest

from cltlab import (
    BadNError,
    ReferenceTooCoarseError,
    TooFewPointsError,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    builtin_family,
    conjecture_experiment,
    error_curve,
    fit_loglog,
    make_discrete,
    piecewise_linear_payoff,
    theoretical_exponent,
)
from cltlab.gheat import GHeatProblem, default_spec
from cltlab.rates import SCALED_TARGET, ConjectureReport, ConjectureRow
from cltlab.recursion import lattice_window, law_window

from oracles import (
    ROOT_2_OVER_PI,
    TWO_OVER_ROOT_PI,
    convolution_value,
    enumerate_value,
)

ABS = abs_payoff()
RADEMACHER = builtin_family("rademacher")


class TestFit:
    def test_exact_half_power(self):
        ns = [4, 16, 64, 256]
        errs = [3.0 * n**-0.5 for n in ns]
        slope, intercept, resid = fit_loglog(ns, errs)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert resid <= 1e-12

    def test_exact_quarter_power(self):
        ns = [4, 16, 64]
        slope, _, _ = fit_loglog(ns, [n**-0.25 for n in ns])
        assert slope == pytest.approx(-0.25, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            fit_loglog([4], [0.1])
        with pytest.raises(TooFewPointsError):
            fit_loglog([4, 16, 64], [0.1, 0.0, 0.0])  # zeros are excluded


class TestExponent:
    def test_basic_rule_lipschitz(self):
        assert theoretical_exponent(RADEMACHER, ABS, "basic") == pytest.approx(1 / 6)

    def test_basic_rule_half(self):
        assert theoretical_exponent(
            RADEMACHER, abs_pow_payoff(0.5), "basic"
        ) == pytest.approx(0.05)

    def test_auto_improves_for_symmetric(self):
        assert theoretical_exponent(RADEMACHER, ABS) == 0.25

    def test_auto_keeps_basic_for_skewed(self):
        skewed = build_family([make_discrete([-2, 1], [1 / 3, 2 / 3])], 1.0)
        assert theoretical_exponent(skewed, ABS) == pytest.approx(1 / 6)

    def test_auto_keeps_basic_for_rough_payoff(self):
        assert theoretical_exponent(RADEMACHER, abs_pow_payoff(0.5)) == pytest.approx(0.05)


class TestErrorCurve:
    def test_analytic_reference_and_first_error(self):
        report = error_curve(RADEMACHER, ABS, [4, 16, 64])
        assert report.rows[0].vref == ROOT_2_OVER_PI
        assert report.rows[0].vref_err == 0.0
        assert report.rows[0].err == pytest.approx(0.0478845608, abs=1e-9)
        assert report.exponent == 0.25
        assert report.verdict == "pass"
        assert not report.reference_limited

    def test_degenerate_constant_payoff(self):
        const = piecewise_linear_payoff([-1.0, 1.0], [0.2, 0.2])
        report = error_curve(RADEMACHER, const, [4, 16, 64])
        assert report.verdict == "degenerate"
        # the analytic reference of constant data is the constant itself
        assert all(r.vref == 0.2 and r.err == 0.0 for r in report.rows)
        assert report.slope is None

    def test_reference_limited_flag_and_strict_raise(self):
        pair = builtin_family("rademacher_pair")
        prob = GHeatProblem(pair.sigma_under, pair.sigma_bar, ABS)
        coarse = default_spec(prob, h=1 / 10)  # bar far above the n=256 error
        report = error_curve(pair, ABS, [16, 64, 256], ref_spec=coarse)
        assert report.reference_limited
        assert report.verdict == "reference-limited"
        with pytest.raises(ReferenceTooCoarseError):
            error_curve(pair, ABS, [16, 64, 256], ref_spec=coarse, strict_reference=True)

    def test_rows_carry_the_window_of_their_march(self):
        # a one-member family is priced by its law, a pair by the march
        report = error_curve(RADEMACHER, ABS, [16, 4096])
        assert [(r.method, r.window) for r in report.rows] == [
            ("law", law_window(RADEMACHER, ABS, n)) for n in (16, 4096)
        ]
        assert report.rows[1].window.J < 4096
        pair = builtin_family("rademacher_pair")
        prob = GHeatProblem(pair.sigma_under, pair.sigma_bar, ABS)
        report = error_curve(pair, ABS, [16, 64, 256], ref_spec=default_spec(prob, h=1 / 10))
        assert [(r.method, r.window) for r in report.rows] == [
            ("march", lattice_window(pair, ABS, n)) for n in (16, 64, 256)
        ]

    def test_grid_mode_rows_have_no_window(self):
        fam = build_family([make_discrete([-1, 1], [0.5, 0.5]),
                            make_discrete([-2**0.5, 2**0.5], [0.5, 0.5])], 1.0)
        assert fam.lattice_step is None
        prob = GHeatProblem(fam.sigma_under, fam.sigma_bar, ABS)
        report = error_curve(fam, ABS, [4, 8, 16], ref_spec=default_spec(prob, h=1 / 10))
        assert all(r.method == "grid" and r.window is None for r in report.rows)

    def test_ns_validation(self):
        with pytest.raises(ValueError):
            error_curve(RADEMACHER, ABS, [4, 4, 16])


class TestConjecture:
    def test_continuous_column_is_exact_constant(self):
        report = conjecture_experiment([16, 64])
        assert report.target == TWO_OVER_ROOT_PI
        for row in report.rows:
            assert row.scaled_continuous == TWO_OVER_ROOT_PI

    def test_scaled_discrete_at_four(self):
        # depth 4 makes the family Rademacher in law: value 0.75, scale 4**0.25
        report = conjecture_experiment([4])
        assert report.rows[0].scaled_discrete == pytest.approx(
            1.0606601717798212, abs=1e-12
        )

    @pytest.mark.parametrize("n", range(4, 9))
    def test_matches_enumeration(self, n):
        from cltlab import conjecture_family

        report = conjecture_experiment([n])
        bf = n**0.25 * enumerate_value(conjecture_family(n).members[0], ABS, n)
        assert report.rows[0].scaled_discrete == pytest.approx(bf, abs=1e-12)

    def test_depth_sixteen_matches_exact_convolution(self):
        # at depth 16 full enumeration would cost 3^16 terms; the pmf
        # convolution gives the same expectation exactly (dyadic weights)
        from cltlab import conjecture_family

        dist = conjecture_family(16).members[0]
        assert convolution_value(dist, ABS, 6) == pytest.approx(
            enumerate_value(dist, ABS, 6), abs=1e-14
        )
        report = conjecture_experiment([16])
        oracle = 16**0.25 * convolution_value(dist, ABS, 16)
        assert report.rows[0].scaled_discrete == pytest.approx(oracle, abs=1e-12)

    def test_approach_rates_over_the_last_three_rows(self):
        def report(*gaps):
            ns = [4**i for i in range(1, len(gaps) + 1)]
            rows = [
                ConjectureRow(n, SCALED_TARGET, SCALED_TARGET - g, "law", None)
                for n, g in zip(ns, gaps)
            ]
            return ConjectureReport(tuple(rows), SCALED_TARGET)

        # each 4x in n halves the gap: rate log 2 / log 4 = 1/2
        rates = report(0.8, 0.4, 0.2, 0.1).approach_rates()
        assert [(a, b) for a, b, _ in rates] == [(16, 64), (64, 256)]
        assert [r for _, _, r in rates] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert report(0.4, 0.0).approach_rates() == [(4, 16, None)]
        assert report(0.4).approach_rates() == []

    def test_bad_n(self):
        with pytest.raises(BadNError):
            conjecture_experiment([3, 16])

    def test_target_value(self):
        assert SCALED_TARGET == pytest.approx(1.1283791670955126, abs=1e-15)
