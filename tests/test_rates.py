import math

import pytest

from cltlab import (
    BadNError,
    TooFewPointsError,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    builtin_family,
    conjecture_experiment,
    cosine_payoff,
    error_curve,
    fit_loglog,
    make_discrete,
    neg_abs_payoff,
    piecewise_linear_payoff,
    theoretical_exponent,
)
from cltlab import rates, recursion
from cltlab.cli import main
from cltlab.gheat import GHeatProblem, default_spec, richardson_value
from cltlab.rates import SCALED_TARGET, ConjectureReport, ConjectureRow
from cltlab.recursion import lattice_window, law_window, origin_window

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

    @pytest.mark.parametrize(
        "ns, errs", [([4, 4, 4], [1.0, 2.0, 3.0]), ([4, 4, 4, 16], [1.0, 2.0, 3.0, 0.0])]
    )
    def test_positive_errors_at_one_n_are_too_few(self, ns, errs):
        # every log n is the same, so the fit has no slope to find
        with pytest.raises(TooFewPointsError, match="distinct n"):
            fit_loglog(ns, errs)


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
        skewed = build_family([make_discrete([-2, 1], [1 / 3, 2 / 3])])
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

    def test_coarse_reference_is_flagged_reference_limited(self):
        pair = builtin_family("rademacher_pair")
        coarse = 1 / 10  # bar far above the n=256 error
        report = error_curve(pair, ABS, [16, 64, 256], ref_h=coarse)
        assert report.reference_limited
        assert report.verdict == "reference-limited"

    def test_rows_carry_the_window_of_their_march(self):
        # a one-member family is priced by its law, a pair by the march
        report = error_curve(RADEMACHER, ABS, [16, 4096])
        assert [(r.method, r.window) for r in report.rows] == [
            ("law", law_window(RADEMACHER, ABS, n)) for n in (16, 4096)
        ]
        assert report.rows[1].window.J < 4096
        pair = builtin_family("rademacher_pair")
        report = error_curve(pair, ABS, [16, 64, 256], ref_h=1 / 10)
        assert [(r.method, r.window) for r in report.rows] == [
            ("march", lattice_window(pair, ABS, n)) for n in (16, 64, 256)
        ]

    def test_rows_report_the_window_they_ran(self, monkeypatch):
        # origin_value hands each pricing function the J that origin_window
        # certified, and the row reports that window; the grid gets None
        ran = []

        def recorder(price):
            def record(family, payoff, n, window, *rest):
                ran.append((price.__name__, n, window))
                return price(family, payoff, n, window, *rest)

            return record

        for name in ("_lattice_march", "_law_value", "_grid_march"):
            monkeypatch.setattr(recursion, name, recorder(getattr(recursion, name)))
        pair = builtin_family("rademacher_pair")
        for family, method in ((RADEMACHER, "_law_value"), (pair, "_lattice_march")):
            del ran[:]
            report = error_curve(family, ABS, [16, 4096], ref_h=1 / 10)
            assert ran == [(method, n, origin_window(family, ABS, n)[1].J) for n in (16, 4096)]
            assert [r.window.J for r in report.rows] == [J for _, _, J in ran]
        off_lattice = build_family([make_discrete([-1, 1], [0.5, 0.5]),
                                    make_discrete([-2**0.5, 2**0.5], [0.5, 0.5])])
        del ran[:]
        report = error_curve(off_lattice, ABS, [4, 8, 16], ref_h=1 / 10)
        assert ran == [("_grid_march", n, None) for n in (4, 8, 16)]

    def test_grid_mode_rows_have_no_window(self):
        fam = build_family([make_discrete([-1, 1], [0.5, 0.5]),
                            make_discrete([-2**0.5, 2**0.5], [0.5, 0.5])])
        assert fam.lattice_step is None
        report = error_curve(fam, ABS, [4, 8, 16], ref_h=1 / 10)
        assert all(r.method == "grid" and r.window is None for r in report.rows)

    def test_ns_validation(self):
        with pytest.raises(ValueError):
            error_curve(RADEMACHER, ABS, [4, 4, 16])

    def test_non_integer_n_is_refused_not_truncated(self):
        # int(4.5) would silently price n = 4
        with pytest.raises(ValueError, match="integers"):
            error_curve(RADEMACHER, ABS, [4.5, 16, 64])
        with pytest.raises(ValueError, match="integers"):
            conjecture_experiment([4.5, 16])
        assert [r.n for r in error_curve(RADEMACHER, ABS, [4.0, 16, 64]).rows] == [4, 16, 64]


class TestSchemeReference:
    """The reference set is the coarsest tried whose bar meets the rows' target."""

    PAIR = builtin_family("rademacher_pair")

    @pytest.fixture
    def marched(self, monkeypatch):
        """The specs of every ``richardson_value`` call that ``error_curve`` makes."""
        specs = []

        def recorder(prob, spec, *args):
            specs.append(spec)
            return richardson_value(prob, spec, *args)

        monkeypatch.setattr(rates, "richardson_value", recorder)
        return specs

    @staticmethod
    def assert_nested_sets(prob, specs, ref_h):
        # every chosen set is h_m = sigma_bar / (4 m): 16 m^2 steps, nested, never finer than ref_h
        for spec in specs:
            m = round(prob.sigma_bar / (4 * spec.h))
            assert spec == default_spec(prob, h=prob.sigma_bar / (4 * m))
            assert spec.steps() == 16 * m * m
            assert all(spec.scaled(f).steps() * f * f == spec.steps() for f in (2.0, 4.0))
            assert spec.h >= ref_h

    def test_switching_case_takes_the_set_at_one_140th(self, marched):
        payoff = cosine_payoff()
        prob = GHeatProblem(self.PAIR.sigma_under, self.PAIR.sigma_bar, payoff)
        report = error_curve(self.PAIR, payoff, [4, 16, 64, 256, 1024, 4096],
                             ref_h=0.005, exponent_rule="basic")
        expected = richardson_value(prob, default_spec(prob, h=1 / 140))
        assert all((r.vref, r.vref_err) == expected for r in report.rows)
        assert report.reference_h == 1 / 140
        assert [spec.h for spec in marched] == [1 / 48, 1 / 140]  # probe at m = 12, then m = 35
        self.assert_nested_sets(prob, marched, 0.005)
        assert not report.reference_limited and report.verdict == "pass"

    def test_readme_pair_returns_its_probe(self, marched):
        prob = GHeatProblem(self.PAIR.sigma_under, self.PAIR.sigma_bar, ABS)
        report = error_curve(self.PAIR, ABS, [4, 16, 64, 256, 1024], exponent_rule="basic")
        spec = default_spec(prob, h=0.01)
        assert marched == [spec]
        expected = richardson_value(prob, spec)
        assert all((r.vref, r.vref_err) == expected for r in report.rows)
        assert report.reference_h == 0.01
        assert report.rows[0].vref_err <= min(r.err for r in report.rows) / 10.0

    @pytest.mark.parametrize(
        "family, payoff, ns, ref_h",
        [
            ("rademacher_pair", abs_pow_payoff(0.5), [4, 16, 64, 256], 1 / 100),  # misses: ref_h
            ("rademacher_pair", neg_abs_payoff(), [4, 16, 64, 256], 1 / 100),  # predicted
            ("rademacher", abs_pow_payoff(0.5), [4, 16, 64, 256, 1024], None),  # equal bounds
            ("rademacher_half", cosine_payoff(), [4, 16, 64, 256], 1 / 200),  # sigma_bar 1/2
        ],
        ids=["kinked-pair", "concave-pair", "kinked-equal", "half"],
    )
    def test_a_set_other_than_ref_h_meets_the_rule(self, marched, family, payoff, ns, ref_h):
        family = builtin_family(family)
        prob = GHeatProblem(family.sigma_under, family.sigma_bar, payoff)
        ref = default_spec(prob) if ref_h is None else default_spec(prob, h=ref_h)
        report = error_curve(family, payoff, ns, ref_h=ref_h)
        self.assert_nested_sets(prob, [spec for spec in marched if spec != ref], ref.h)
        assert marched[-1].h == report.reference_h
        if report.reference_h != ref.h:
            fit = [r.err for r in report.rows if r.err > rates.ERR_FLOOR]
            assert report.rows[0].vref_err <= min(fit) / 10.0
            assert not report.reference_limited

    def test_missed_predictions_end_at_the_set_of_ref_h(self, monkeypatch):
        # equal bounds: closed-form levels, so every set is cheap. A bar that
        # falls only like h makes each order-2 prediction miss: the probe
        # (m = 25), its prediction and one re-prediction are marched, then ref_h
        payoff = cosine_payoff()
        prob = GHeatProblem(RADEMACHER.sigma_under, RADEMACHER.sigma_bar, payoff)
        ref = default_spec(prob, h=1 / 400)
        true = error_curve(RADEMACHER, payoff, [4, 16, 64, 256])
        target = min(r.err for r in true.rows) / 10.0
        specs = []

        def first_order(prob, spec, *args):
            specs.append(spec)
            value, bar = richardson_value(prob, spec, *args)
            return (value, bar) if spec == ref else (value, 400.0 * target * spec.h)

        monkeypatch.setattr(rates, "richardson_value", first_order)
        report = error_curve(RADEMACHER, payoff, [4, 16, 64, 256], ref_h=1 / 400)
        expected = richardson_value(prob, ref)
        assert all((r.vref, r.vref_err) == expected for r in report.rows)
        assert report.reference_h == 1 / 400
        assert [round(1 / (4 * spec.h)) for spec in specs] == [25, 50, 71, 100]
        self.assert_nested_sets(prob, specs[:-1], 1 / 400)
        assert specs[-1] == ref

    def test_a_bar_that_never_meets_its_target_goes_to_ref_h(self, monkeypatch):
        prob = GHeatProblem(self.PAIR.sigma_under, self.PAIR.sigma_bar, ABS)
        ref = default_spec(prob, h=1 / 40)
        specs = []

        def never(prob, spec, *args):
            specs.append(spec)
            value, bar = richardson_value(prob, spec, *args)
            return (value, bar) if spec == ref else (value, 1.0)

        monkeypatch.setattr(rates, "richardson_value", never)
        report = error_curve(self.PAIR, ABS, [4, 16, 64], ref_h=1 / 40)
        assert [spec.h for spec in specs] == [prob.sigma_bar / 8, 1 / 40]  # probe at m = 2
        expected = richardson_value(prob, ref)
        assert all((r.vref, r.vref_err) == expected for r in report.rows)

    def test_ref_h_coarser_than_every_set_is_marched_directly(self, marched):
        # ref_h = 1/3 is coarser than the coarsest set, sigma_bar / 4 at m = 1
        report = error_curve(self.PAIR, ABS, [16, 64, 256], ref_h=1 / 3)
        assert [spec.h for spec in marched] == [1 / 3]
        assert report.reference_h == 1 / 3

    def test_refused_reference_grid_prices_no_row(self, capsys, monkeypatch, tmp_path):
        # h = 6 leaves one interior point: refused before the rows are priced
        priced = []
        monkeypatch.setattr(rates, "origin_value", lambda *args: priced.append(args))
        assert main(["rates", "--family", "rademacher_pair", "--phi", "cosine_scaled",
                     "--ns", "4,16,64,256,1024,4096,16384", "--ref-h", "6",
                     "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == "ERROR DegenerateGrid: need at least 3 interior points\n"
        assert priced == []


class TestConjecture:
    def test_continuous_column_is_exact_constant(self):
        report = conjecture_experiment([16, 64])
        assert report.target == TWO_OVER_ROOT_PI

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
                ConjectureRow(n, SCALED_TARGET - g, "law", None)
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

    def test_repeated_depths_are_refused_by_both_experiments(self):
        # a repeated depth would divide log(1) by log(1) in approach_rates
        for ns in ([16, 16, 64], [16, 16.0, 64]):
            with pytest.raises(ValueError, match="distinct"):
                conjecture_experiment(ns)
            with pytest.raises(ValueError, match="distinct"):
                error_curve(RADEMACHER, ABS, ns)

    @pytest.mark.parametrize("ns", [[0, 16, 64], [-4, 16, 64]])
    def test_depths_below_one_are_refused_by_both_experiments(self, ns):
        for experiment in (conjecture_experiment, lambda ns: error_curve(RADEMACHER, ABS, ns)):
            with pytest.raises(ValueError, match=">= 1"):
                experiment(ns)

    def test_target_value(self):
        assert SCALED_TARGET == pytest.approx(1.1283791670955126, abs=1e-15)
