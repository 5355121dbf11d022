import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cltlab import (
    GridSpec,
    GridTooSmallError,
    ModeMismatchError,
    OutOfHullError,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    builtin_family,
    conjecture_family,
    cosine_payoff,
    make_discrete,
    moment,
    neg_abs_payoff,
    piecewise_linear_payoff,
    rademacher,
)
from cltlab.recursion import (
    FLOAT_ROUNDING,
    WINDOW_TOL,
    Window,
    _lattice_march,
    _law_value,
    _powering_nodes,
    lattice_window,
    law_window,
    origin_value,
    origin_window,
    solve_recursion,
)

from conftest import zero_mean_dists, zero_mean_families
from oracles import (
    binomial_abs_mean,
    convolution_value,
    enumerate_value,
    law_expectation,
    sup_recursion_value,
)

RADEMACHER = builtin_family("rademacher")
ABS = abs_payoff()


def streaming_march(family, payoff, n):
    # the windowed march; origin_value takes it for families of two or more
    # members and prices one-member families by the law of the walk
    return _lattice_march(family, payoff, n, WINDOW_TOL)[1]


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
        assert field.origin_value() == streaming_march(RADEMACHER, ABS, 8)


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
        assert origin_value(fam, tilted, 4) == tilted(0.0)  # lattice step 1
        assert solve_recursion(fam, tilted, 4, mode="grid").origin_value() == tilted(0.0)

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
            solve_recursion(fam, ABS, 4, mode="lattice")


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

    @pytest.mark.parametrize("n", [16, 64, 256, 1100, 16384])
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
        assert np.max(np.abs(field.values[-1] - ABS(field.xs[-1]))) <= 1e-14

    def test_time_lookup_floor_rule(self):
        field = solve_recursion(RADEMACHER, ABS, 2)
        assert field.level_index(0.0) == field.level_index(0.49) == 0
        assert field.level_index(0.5) == field.level_index(0.5 + 1e-13) == 1
        assert field.level_index(0.5 - 1e-13) == 1  # within the lookup tolerance
        assert field.level_index(1.0) == 2

    def test_off_lattice_and_out_of_hull(self):
        field = solve_recursion(RADEMACHER, ABS, 4)
        with pytest.raises(OutOfHullError):
            field.level_index(1.0 + 1e-9)
        with pytest.raises(OutOfHullError):
            field.level_index(-1e-9)
        # level k holds exactly the lattice points j / 2 with |j| <= k
        for k, pts in enumerate(field.xs):
            assert pts.tolist() == [j / 2.0 for j in range(-k, k + 1)]

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

    @pytest.mark.parametrize(
        "mode, payoff",
        [
            ("lattice", ABS),
            ("lattice", piecewise_linear_payoff([-8.0, 0.25, 8.0], [8.25, 0.0, 7.75])),
            ("grid", ABS),
        ],
        ids=["lattice_even", "lattice_uneven", "grid"],
    )
    def test_stored_levels_do_not_alias(self, mode, payoff):
        field = solve_recursion(RADEMACHER, payoff, 6, mode=mode)
        before = [v.copy() for v in field.values]
        for k, level in enumerate(field.values):
            level += 1.0
            for j, (other, old) in enumerate(zip(field.values, before)):
                assert j == k or np.array_equal(other, old), (k, j)
            level[:] = before[k]


SKEW = make_discrete([-1, 2], [2 / 3, 1 / 3])
SKEW_MIRROR = make_discrete([-2, 1], [1 / 3, 2 / 3])
# two three-atom laws on {-1, 0, 1}: the sup switches between them
THREE_ATOM_PAIR = build_family(
    [make_discrete([-1, 0, 1], [0.25, 0.5, 0.25]), make_discrete([-1, 0, 1], [0.1, 0.8, 0.1])],
    beta=1.0,
)
MIRROR_CLOSED = {
    "rademacher": builtin_family("rademacher"),
    "rademacher_pair": builtin_family("rademacher_pair"),
    "conjecture_64": conjecture_family(64),
    "skew_and_mirror": build_family([SKEW, SKEW_MIRROR], beta=1.0),
    "three_atom_pair": THREE_ATOM_PAIR,
}
# two-atom laws: the sum at -j adds the same two products as at +j, and
# float + and max commute, so even data stays an exact palindrome
TWO_ATOM_MIRROR_CLOSED = {
    f: MIRROR_CLOSED[f] for f in ("rademacher", "rademacher_pair", "skew_and_mirror")
}
EVEN_PAYOFFS = {
    "abs": ABS,
    "cosine_scaled": cosine_payoff(),
    "abs_pow_0.5": abs_pow_payoff(0.5),
}


def lattice_oracle(family, payoff, n):
    if len(family.members) == 1 and family.lattice_step == 1.0:
        return convolution_value(family.members[0], payoff, n)
    return sup_recursion_value(family.members, payoff, n, family.lattice_step)


class TestHalfCone:
    """Even data under a mirror-closed family: the march covers both half cones."""

    @pytest.mark.parametrize("payoff", EVEN_PAYOFFS.values(), ids=EVEN_PAYOFFS)
    @pytest.mark.parametrize(
        "family", TWO_ATOM_MIRROR_CLOSED.values(), ids=TWO_ATOM_MIRROR_CLOSED
    )
    def test_levels_are_palindromes(self, family, payoff):
        field = solve_recursion(family, payoff, 24)
        for k, (pts, vals) in enumerate(zip(field.xs, field.values)):
            assert vals.size == pts.size
            assert np.array_equal(vals, vals[::-1]), k
            assert np.array_equal(pts, -pts[::-1]), k

    @pytest.mark.parametrize("payoff", EVEN_PAYOFFS.values(), ids=EVEN_PAYOFFS)
    @pytest.mark.parametrize("family", MIRROR_CLOSED.values(), ids=MIRROR_CLOSED)
    @pytest.mark.parametrize("n", [1, 2, 5, 24])
    def test_origin_matches_oracle(self, family, payoff, n):
        v = origin_value(family, payoff, n)
        assert solve_recursion(family, payoff, n).origin_value() == streaming_march(
            family, payoff, n
        )
        assert v == pytest.approx(lattice_oracle(family, payoff, n), abs=FLOAT_ROUNDING)

    @pytest.mark.parametrize(
        "family, payoff",
        [
            (build_family([SKEW], beta=1.0), ABS),  # mirror law not a member
            # |x - 1/4| on the +-8 window: a shifted payoff is not even
            (RADEMACHER, piecewise_linear_payoff([-8.0, 0.25, 8.0], [8.25, 0.0, 7.75])),
        ],
        ids=["skew_law", "shifted_payoff"],
    )
    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_uneven_cases_march_the_whole_cone(self, family, payoff, n):
        field = solve_recursion(family, payoff, n)
        assert not all(np.array_equal(v, v[::-1]) for v in field.values[1:])
        v = origin_value(family, payoff, n)
        assert field.origin_value() == streaming_march(family, payoff, n)
        assert v == pytest.approx(lattice_oracle(family, payoff, n), abs=FLOAT_ROUNDING)
        assert v == pytest.approx(enumerate_value(family.members[0], payoff, n), abs=1e-10)


WINDOW_FAMILIES = {
    "rademacher": lambda n: RADEMACHER,
    "rademacher_half": lambda n: builtin_family("rademacher_half"),
    "rademacher_pair": lambda n: builtin_family("rademacher_pair"),
    "conjecture": conjecture_family,
    "skew_law": lambda n: build_family([SKEW], beta=1.0),  # not mirror-closed
    "three_atom_pair": lambda n: THREE_ATOM_PAIR,
}
WINDOW_PAYOFFS = {
    "abs": ABS,
    "neg_abs": neg_abs_payoff(),
    "cosine_scaled": cosine_payoff(),
    "abs_pow_0.5": abs_pow_payoff(0.5),
    # not even
    "piecewise_linear": piecewise_linear_payoff([-1.0, 0.25, 2.0], [0.5, -0.25, 0.5]),
}


def whole_cone(family, payoff, n):
    return _lattice_march(family, payoff, n, tol=0.0)[1]


@pytest.mark.parametrize("pname", WINDOW_PAYOFFS)
@pytest.mark.parametrize("fname", WINDOW_FAMILIES)
class TestWindow:
    """The streaming march updates only |j| <= J; beyond it levels keep terminal data."""

    @pytest.mark.parametrize("n", [300, 4096])
    def test_matches_the_whole_cone(self, fname, pname, n):
        family, payoff = WINDOW_FAMILIES[fname](n), WINDOW_PAYOFFS[pname]
        window = lattice_window(family, payoff, n)
        assert window.J < window.cone  # the window bites
        assert 0.0 < window.bound <= WINDOW_TOL
        assert streaming_march(family, payoff, n) == pytest.approx(
            whole_cone(family, payoff, n), abs=1e-15
        )

    def test_freezes_terminal_data_beyond_the_window(self, fname, pname):
        n = 40
        family, payoff = WINDOW_FAMILIES[fname](n), WINDOW_PAYOFFS[pname]
        tol = 2.0 * family.sigma_bar**payoff.beta * math.exp(-0.5)  # J ~ sqrt(V)
        window = lattice_window(family, payoff, n, tol)
        assert window.J < window.cone
        oracle = sup_recursion_value(
            family.members, payoff, n, family.lattice_step, window=window.J
        )
        windowed = _lattice_march(family, payoff, n, tol=tol)[1]
        assert windowed == pytest.approx(oracle, abs=FLOAT_ROUNDING)
        assert abs(windowed - whole_cone(family, payoff, n)) > FLOAT_ROUNDING

    def test_bound_is_honest_at_a_small_window(self, fname, pname):
        # c = ln(2 L / tol) = 2 puts J near 2 sqrt(V): the error shows and
        # must stay below the certified bound. Concave data under
        # rademacher_pair runs on the narrow member, whose walk is half as
        # wide as V assumes, so its error shows only at c = 1
        n = 1024
        family, payoff = WINDOW_FAMILIES[fname](n), WINDOW_PAYOFFS[pname]
        c = 1.0 if (fname, pname) == ("rademacher_pair", "neg_abs") else 2.0
        tol = 2.0 * family.sigma_bar**payoff.beta * math.exp(-c)
        window = lattice_window(family, payoff, n, tol)
        m = window.cone // n
        var = n * max(moment(d, 2) for d in family.members) / family.lattice_step**2
        assert math.sqrt(2 * c * var) <= window.J <= math.sqrt(2 * c * var) + c * m + 1
        err = abs(_lattice_march(family, payoff, n, tol=tol)[1]
                  - whole_cone(family, payoff, n))
        assert 0.0 < err <= window.bound


class TestWindowBounds:
    def test_whole_cone_below_the_window(self):
        assert lattice_window(RADEMACHER, ABS, 64) == Window(J=64, cone=64, bound=0.0)

    def test_point_mass_has_an_empty_window(self):
        fam = build_family([make_discrete([0.0], [1.0])], beta=1.0)
        assert lattice_window(fam, ABS, 100) == Window(J=0, cone=0, bound=0.0)

    def test_drift_widens_the_window(self):
        # |mean| = 1e-13 is admitted; n = 2^20 steps of drift add one unit
        n = 2**20
        drifting = build_family([make_discrete([-1.0, 1.0], [0.5 - 5e-14, 0.5 + 5e-14])], 1.0)
        assert lattice_window(drifting, ABS, n).J == lattice_window(RADEMACHER, ABS, n).J + 1

    def test_solve_recursion_keeps_the_whole_cone(self):
        family = conjecture_family(256)
        assert lattice_window(family, ABS, 256).J < 256
        field = solve_recursion(family, ABS, 256)
        for k, (pts, vals) in enumerate(zip(field.xs, field.values)):
            assert pts.size == vals.size == 2 * k + 1, k
        assert field.origin_value() == whole_cone(family, ABS, 256)


LAW_FAMILIES = {
    **{f: WINDOW_FAMILIES[f] for f in ("rademacher", "rademacher_half", "conjecture", "skew_law")},
    "point_mass": lambda n: build_family([make_discrete([0.0], [1.0])], beta=1.0),
}
# the skew law's exact 1024-step power takes about 16 s, so it stops at n = 300
LAW_CASES = [(f, n) for n in (300, 1024) for f in LAW_FAMILIES if (f, n) != ("skew_law", 1024)]


@pytest.mark.parametrize("pname", WINDOW_PAYOFFS)
class TestLawPath:
    """origin_value prices a one-member lattice family by the law of its walk."""

    @pytest.mark.parametrize("fname, n", LAW_CASES)
    def test_matches_the_exact_rational_expectation(self, fname, n, pname):
        family, payoff = LAW_FAMILIES[fname](n), WINDOW_PAYOFFS[pname]
        assert origin_window(family, payoff, n)[0] == "law"
        exact = law_expectation(family.members[0], payoff, n, family.lattice_step)
        assert abs(Fraction(origin_value(family, payoff, n)) - exact) <= 1e-15
        assert law_window(family, payoff, n).bound <= WINDOW_TOL

    @pytest.mark.parametrize("fname", [f for f in LAW_FAMILIES if f != "point_mass"])
    def test_bound_is_honest_at_a_small_window(self, fname, pname):
        # at tol = 1e-4 L the trims move the value by 1e-12 to 1e-9: well
        # above rounding, and below the certified bound
        n = 1024
        family, payoff = LAW_FAMILIES[fname](n), WINDOW_PAYOFFS[pname]
        tol = 1e-4 * family.sigma_bar**payoff.beta
        window = law_window(family, payoff, n, tol)
        assert window.J < law_window(family, payoff, n).J
        err = abs(_law_value(family, payoff, n, tol)[1] - _law_value(family, payoff, n, 0.0)[1])
        assert 1e-13 < err <= window.bound <= tol


class TestLawWindow:
    def test_whole_cone_below_the_window(self):
        assert law_window(RADEMACHER, ABS, 64) == Window(J=64, cone=64, bound=0.0)
        assert law_window(RADEMACHER, ABS, 64, tol=0.0) == Window(J=64, cone=64, bound=0.0)

    def test_point_mass_has_an_empty_window(self):
        fam = build_family([make_discrete([0.0], [1.0])], beta=1.0)
        assert law_window(fam, ABS, 100) == Window(J=0, cone=0, bound=0.0)

    def test_needs_one_member_on_a_lattice(self):
        with pytest.raises(ModeMismatchError):
            law_window(builtin_family("rademacher_pair"), ABS, 64)

    def test_powering_nodes_are_the_trimmed_partial_sums(self):
        # 13 = 1 + 4 + 8: powers of 1, 2, 4 and 8 steps stand for 13, 6, 3 and 1
        # blocks; the accumulations hold 5 and then 13 steps
        assert _powering_nodes(13) == [(1, 13), (2, 6), (4, 3), (8, 1), (5, 1), (13, 1)]
        assert _powering_nodes(8) == [(1, 8), (2, 4), (4, 2), (8, 1)]

    def test_origin_window_names_the_method(self):
        pair = builtin_family("rademacher_pair")
        off_lattice = build_family([rademacher(), rademacher(math.sqrt(2))], beta=1.0)
        assert origin_window(RADEMACHER, ABS, 4096) == ("law", law_window(RADEMACHER, ABS, 4096))
        assert origin_window(pair, ABS, 4096) == ("march", lattice_window(pair, ABS, 4096))
        assert origin_window(off_lattice, ABS, 16) == ("grid", None)


class TestGridMode:
    def test_constant_payoff_both_modes(self):
        const = piecewise_linear_payoff([-1.0, 1.0], [0.7, 0.7])
        assert origin_value(RADEMACHER, const, 12) == pytest.approx(0.7, abs=1e-12)
        grid = solve_recursion(RADEMACHER, const, 12, mode="grid").origin_value()
        assert grid == pytest.approx(0.7, abs=1e-12)

    def test_converges_to_lattice_under_refinement(self):
        lattice = origin_value(RADEMACHER, ABS, 6)
        errs = [
            abs(solve_recursion(RADEMACHER, ABS, 6, mode="grid",
                                grid=GridSpec(step=h, half_width=8.0)).origin_value() - lattice)
            for h in (0.2, 0.05, 0.0125)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            solve_recursion(
                RADEMACHER, ABS, 4, mode="grid", grid=GridSpec(step=0.1, half_width=2.0)
            )

    def test_auto_mode_without_lattice(self):
        fam = build_family([rademacher(), rademacher(math.sqrt(2))], beta=1.0)
        assert fam.lattice_step is None
        with pytest.raises(ModeMismatchError):
            solve_recursion(fam, ABS, 4, mode="lattice")
        v = origin_value(fam, ABS, 4)  # marches the default grid
        assert v == solve_recursion(fam, ABS, 4).origin_value()
        assert v > 0


@given(zero_mean_families(max_members=2), st.integers(1, 5))
@settings(max_examples=20)
def test_enlarging_family_never_decreases_value(family, n):
    extra = build_family(
        family.members + (make_discrete([-0.5, 0.5], [0.5, 0.5]),), family.beta
    )
    grid = GridSpec(step=0.1, half_width=8.0 * extra.sigma_bar + 0.1)
    small = solve_recursion(family, ABS, n, mode="grid", grid=grid).origin_value()
    big = solve_recursion(extra, ABS, n, mode="grid", grid=grid).origin_value()
    assert big >= small  # float-monotone ops keep this exact


@given(zero_mean_dists(), st.integers(1, 6))
@settings(max_examples=15)
def test_singleton_matches_enumeration(dist, n):
    fam = build_family([dist], beta=1.0)
    bf = enumerate_value(dist, ABS, n)
    if fam.lattice_step is not None:
        assert origin_value(fam, ABS, n) == pytest.approx(bf, abs=1e-10)


@pytest.mark.parametrize("payoff", [ABS, neg_abs_payoff()], ids=lambda p: p.kind)
@pytest.mark.parametrize("c", [2.0, 0.5])
def test_value_scales_with_support(payoff, c):
    # scaling every support point by c scales the value of positively
    # homogeneous data by c; c is a power of two, so the values agree exactly
    family = builtin_family("rademacher_pair")
    scaled = build_family(
        [make_discrete([c * x for x in d.support], d.probs) for d in family.members],
        family.beta,
    )
    for n in (4, 16, 64):
        assert origin_value(scaled, payoff, n) == c * origin_value(family, payoff, n)


@pytest.mark.parametrize(
    "payoff", [ABS, neg_abs_payoff(), cosine_payoff()], ids=lambda p: p.kind
)
@pytest.mark.parametrize("n", [3, 12])
@given(zero_mean_families(max_members=2), zero_mean_dists())
@settings(max_examples=10)
def test_enlarging_family_never_decreases_lattice_value(payoff, n, family, extra):
    # both families live on Z/8, so both march in lattice mode, where the
    # value is exact up to the 1e-12 rounding envelope
    bigger = build_family(family.members + (extra,), family.beta)
    assert None not in (family.lattice_step, bigger.lattice_step)
    small = origin_value(family, payoff, n)
    assert origin_value(bigger, payoff, n) >= small - FLOAT_ROUNDING
