import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cltlab import (
    GridSpec,
    GridTooSmallError,
    ModeMismatchError,
    OutOfHullError,
    abs_payoff,
    build_family,
    builtin_family,
    make_discrete,
    piecewise_linear_payoff,
    rademacher,
)
from cltlab.recursion import origin_value, solve_recursion

from conftest import zero_mean_dists, zero_mean_families
from oracles import binomial_abs_mean, enumerate_value

RADEMACHER = builtin_family("rademacher")
ABS = abs_payoff()


class TestKnownValues:
    def test_depth_one(self):
        assert origin_value(RADEMACHER, ABS, 1) == 1.0

    def test_depth_two(self):
        # walk ends at -2, 0, 2 with weights 1/4, 1/2, 1/4
        assert origin_value(RADEMACHER, ABS, 2) == pytest.approx(2**-0.5, abs=1e-15)

    def test_depth_four(self):
        assert origin_value(RADEMACHER, ABS, 4) == 0.75

    def test_rejects_depth_zero(self):
        with pytest.raises(ValueError):
            origin_value(RADEMACHER, ABS, 0)

    def test_solve_matches_streaming(self):
        field = solve_recursion(RADEMACHER, ABS, 8)
        assert field.origin_value() == origin_value(RADEMACHER, ABS, 8)


class TestStepExpectation:
    """One level of the recursion, observed through the public solvers."""

    def test_abs_slice(self):
        field = solve_recursion(RADEMACHER, ABS, 1)
        assert field.xs[1].tolist() == [-1.0, 0.0, 1.0]
        assert field.values[1].tolist() == [1.0, 0.0, 1.0]
        assert field.xs[0].tolist() == [0.0]
        assert field.values[0].tolist() == [1.0]

    def test_point_mass_identity(self):
        fam = build_family([make_discrete([0.0], [1.0])], beta=1.0)
        tilted = piecewise_linear_payoff([-1.0, 1.0], [0.3, -0.2])
        for mode in ("lattice", "grid"):
            assert origin_value(fam, tilted, 4, mode=mode) == tilted(0.0)

    def test_constant_slice(self):
        fam = build_family([make_discrete([-2, 1], [1 / 3, 2 / 3])], beta=1.0)
        const = piecewise_linear_payoff([-1.0, 1.0], [5.0, 5.0])
        assert origin_value(fam, const, 3) == pytest.approx(5.0, abs=1e-14)

    def test_grid_boundary_rule_prices_with_payoff(self):
        # steps of +-1 from the end points leave the grid; the overhang is
        # priced by the terminal function, so the ends keep |x| = 8 where
        # clamped interpolation would give (8 + 7)/2
        field = solve_recursion(
            RADEMACHER, ABS, 1, mode="grid", grid=GridSpec(step=1.0, half_width=8.0)
        )
        x = field.xs[0]
        assert field.values[0].tolist() == np.maximum(np.abs(x), 1.0).tolist()
        assert field.values[0][0] == field.values[0][-1] == 8.0

    def test_mode_mismatch(self):
        fam = build_family([rademacher(), rademacher(math.sqrt(2))], beta=1.0)
        with pytest.raises(ModeMismatchError):
            origin_value(fam, ABS, 4, mode="lattice")


class TestBruteForce:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_rademacher(self, n):
        bf = enumerate_value(RADEMACHER.members[0], ABS, n)
        assert origin_value(RADEMACHER, ABS, n) == pytest.approx(bf, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_asymmetric(self, n):
        d = make_discrete([-2, 1], [1 / 3, 2 / 3])
        fam = build_family([d], beta=1.0)
        bf = enumerate_value(d, ABS, n)
        assert origin_value(fam, ABS, n) == pytest.approx(bf, abs=1e-10)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_binomial_closed_form_beyond_enumeration(self, n):
        # at depths enumeration cannot reach, the fair-walk value still has
        # an exact binomial expression
        assert origin_value(RADEMACHER, ABS, n) == pytest.approx(
            binomial_abs_mean(n), abs=1e-12
        )


class TestField:
    def test_times_are_exact_fractions(self):
        field = solve_recursion(RADEMACHER, ABS, 4)
        assert field.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_terminal_is_payoff(self):
        field = solve_recursion(RADEMACHER, ABS, 6)
        assert field.terminal_matches(ABS, tol=1e-14)

    def test_time_lookup_floor_rule(self):
        field = solve_recursion(RADEMACHER, ABS, 2)
        assert field.at(0.49, 0.0) == field.values[0][0]
        assert field.at(0.5, 0.0) == field.at(0.5 + 1e-13, 0.0)
        assert field.at(1.0, 0.0) == 0.0  # terminal payoff at the origin

    def test_off_lattice_and_out_of_hull(self):
        field = solve_recursion(RADEMACHER, ABS, 4)
        with pytest.raises(OutOfHullError):
            field.at(1.0, 0.3)  # between lattice points
        with pytest.raises(OutOfHullError):
            field.at(1.0, 99.0)
        with pytest.raises(OutOfHullError):
            field.at(0.0, 0.5)  # level-0 cone is the origin alone

    def test_spatial_and_temporal_certificates(self):
        # exact inequalities up to the documented 1e-12 rounding envelope
        field = solve_recursion(RADEMACHER, ABS, 16)
        for pts, vals in zip(field.xs, field.values):
            diff = np.abs(vals[:, None] - vals[None, :])
            gap = np.abs(pts[:, None] - pts[None, :])
            assert np.max(diff - gap) <= 1e-12
        for i in range(len(field.times)):
            for j in range(i + 1, len(field.times)):
                small, big = field.values[i], field.values[j]
                off = (big.size - small.size) // 2
                bound = abs(field.times[j] - field.times[i]) ** 0.5
                assert np.max(np.abs(small - big[off : off + small.size])) <= bound + 1e-12


class TestGridMode:
    def test_constant_payoff_both_modes(self):
        const = piecewise_linear_payoff([-1.0, 1.0], [0.7, 0.7])
        for mode in ("lattice", "grid"):
            v = origin_value(RADEMACHER, const, 12, mode=mode)
            assert v == pytest.approx(0.7, abs=1e-12)

    def test_converges_to_lattice_under_refinement(self):
        lattice = origin_value(RADEMACHER, ABS, 6, mode="lattice")
        errs = [
            abs(origin_value(RADEMACHER, ABS, 6, mode="grid",
                             grid=GridSpec(step=h, half_width=8.0)) - lattice)
            for h in (0.2, 0.05, 0.0125)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            origin_value(
                RADEMACHER, ABS, 4, mode="grid", grid=GridSpec(step=0.1, half_width=2.0)
            )

    def test_auto_mode_without_lattice(self):
        fam = build_family([rademacher(), rademacher(math.sqrt(2))], beta=1.0)
        assert fam.lattice_step is None
        with pytest.raises(ModeMismatchError):
            origin_value(fam, ABS, 4, mode="lattice")
        v = origin_value(fam, ABS, 4)  # auto-selects grid mode
        assert v > 0


@given(zero_mean_families(max_members=2), st.integers(1, 5))
@settings(max_examples=20)
def test_enlarging_family_never_decreases_value(family, n):
    extra = build_family(
        family.members + (make_discrete([-0.5, 0.5], [0.5, 0.5]),), family.beta
    )
    grid = GridSpec(step=0.1, half_width=8.0 * extra.sigma_bar + 0.1)
    small = origin_value(family, ABS, n, mode="grid", grid=grid)
    big = origin_value(extra, ABS, n, mode="grid", grid=grid)
    assert big >= small  # float-monotone ops keep this exact


@given(zero_mean_dists(), st.integers(1, 6))
@settings(max_examples=15)
def test_singleton_matches_enumeration(dist, n):
    fam = build_family([dist], beta=1.0)
    bf = enumerate_value(dist, ABS, n)
    if fam.lattice_step is not None:
        assert origin_value(fam, ABS, n) == pytest.approx(bf, abs=1e-10)
