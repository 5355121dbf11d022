import math
import os
import time

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
    cosine_payoff,
    error_curve,
    fit_loglog,
    make_discrete,
    piecewise_linear_payoff,
    theoretical_exponent,
)
from cltlab import gheat, rates
from cltlab.gheat import GHeatProblem, default_spec, richardson_value
from cltlab.rates import SCALED_TARGET, ConjectureReport, ConjectureRow, _beside
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

    def test_non_integer_n_is_refused_not_truncated(self):
        # int(4.5) would silently price n = 4
        with pytest.raises(ValueError, match="integers"):
            error_curve(RADEMACHER, ABS, [4.5, 16, 64])
        with pytest.raises(ValueError, match="integers"):
            conjecture_experiment([4.5, 16])
        assert [r.n for r in error_curve(RADEMACHER, ABS, [4.0, 16, 64]).rows] == [4, 16, 64]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def solves(monkeypatch, tmp_path):
    """Reads ``(pid, h, event)`` of every ``solve_gheat`` start and end, a forked child's too."""
    log = tmp_path / "solves.txt"
    solve = gheat.solve_gheat

    def note(spec, event):
        with open(log, "a") as f:  # one small O_APPEND write per line
            f.write(f"{os.getpid()} {spec.h!r} {event}\n")

    def recorder(prob, spec, store="levels"):
        note(spec, "start")
        field = solve(prob, spec, store)
        note(spec, "end")
        return field

    monkeypatch.setattr(gheat, "solve_gheat", recorder)

    def read(clear=False):
        lines = log.read_text().splitlines() if log.exists() else []
        if clear:
            log.unlink(missing_ok=True)
        return [(int(pid), float(h), event) for pid, h, event in map(str.split, lines)]

    return read


class TestForkedReference:
    """A marched reference's finest level runs in a forked child; no value moves."""

    PAIR = builtin_family("rademacher_pair")

    @pytest.mark.parametrize(
        "payoff, h, caller_hs",
        [
            (cosine_payoff(), 1 / 100, (2, 4)),  # nested, extrapolates
            (abs_pow_payoff(0.5), 1 / 100, (0.5, 2, 4)),  # nested, falls back to h/2
            (cosine_payoff(), 1 / 10, (0.5,)),  # unnested: h and h/2 only
        ],
        ids=["extrapolated", "fallback", "unnested"],
    )
    def test_reference_bits_and_where_each_level_ran(self, solves, payoff, h, caller_hs):
        prob = GHeatProblem(self.PAIR.sigma_under, self.PAIR.sigma_bar, payoff)
        spec = default_spec(prob, h=h)
        expected = richardson_value(prob, spec)
        solves(clear=True)
        report = error_curve(self.PAIR, payoff, [4, 16, 64], ref_spec=spec)
        assert all((r.vref, r.vref_err) == expected for r in report.rows)
        me = os.getpid()
        starts = [(pid, s) for pid, s, event in solves() if event == "start"]
        assert [s for pid, s in starts if pid != me] == [spec.h]
        assert sorted(s for pid, s in starts if pid == me) == sorted(spec.h * f for f in caller_hs)
        assert_no_child_left()

    def test_equal_bounds_reference_stays_in_process(self, solves):
        # equal bounds: every level is a closed form, so nothing is forked
        prob = GHeatProblem(1.0, 1.0, cosine_payoff())
        error_curve(RADEMACHER, cosine_payoff(), [4, 16, 64], ref_spec=default_spec(prob, h=0.05))
        assert {pid for pid, _, _ in solves()} == {os.getpid()}

    def test_failing_row_kills_and_reaps_the_marching_child(self, solves, monkeypatch):
        me = os.getpid()

        def failing_row(family, payoff, n):
            for _ in range(2000):  # wait until the child has started its march
                if any(pid != me for pid, _, _ in solves()):
                    raise RuntimeError("row failed")
                time.sleep(0.005)
            raise AssertionError("the child never started")

        monkeypatch.setattr(rates, "origin_value", failing_row)
        prob = GHeatProblem(self.PAIR.sigma_under, self.PAIR.sigma_bar, cosine_payoff())
        with pytest.raises(RuntimeError, match="row failed"):
            error_curve(self.PAIR, cosine_payoff(), [4, 16, 64],
                        ref_spec=default_spec(prob, h=1 / 400))
        (child, _, _), = [line for line in solves() if line[0] != me]  # started, never ended
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)  # killed and reaped
        assert_no_child_left()

    def test_child_exception_is_raised_in_the_caller(self):
        with pytest.raises(ZeroDivisionError):
            _beside(lambda: 1 / 0, lambda collect: collect())
        assert_no_child_left()

    def test_child_that_sends_nothing_is_replaced_in_process(self):
        parent = os.getpid()

        def background():
            if os.getpid() != parent:
                os._exit(3)  # dies without an answer
            return 7

        assert _beside(background, lambda collect: collect()) == 7
        assert_no_child_left()

    def test_background_runs_in_another_process(self):
        here, there = _beside(os.getpid, lambda collect: (os.getpid(), collect()))
        assert here == os.getpid() != there
        assert_no_child_left()


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
