import math

import pytest
from hypothesis import given

from cltlab import (
    BadNError,
    DuplicateSupportError,
    EmptyFamilyError,
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
from cltlab.families import BUILTIN_FAMILIES, LATTICE_TOL

from conftest import zero_mean_dists, zero_mean_families


class TestMakeDiscrete:
    def test_rademacher(self):
        d = make_discrete([-1, 1], [0.5, 0.5])
        assert moment(d, 1) == 0.0
        assert moment(d, 2) == 1.0

    def test_three_point_variance(self):
        d = make_discrete([-1, 0, 1], [0.25, 0.5, 0.25])
        assert moment(d, 2) == 0.5

    def test_non_unit_mass(self):
        with pytest.raises(NonUnitMassError):
            make_discrete([-1, 1], [0.3, 0.5])

    def test_nonzero_mean(self):
        with pytest.raises(NonZeroMeanError):
            make_discrete([-1, 1], [0.25, 0.75])

    def test_duplicate_support(self):
        with pytest.raises(DuplicateSupportError):
            make_discrete([1, 1, -2], [0.4, 0.4, 0.2])

    def test_negative_prob(self):
        with pytest.raises(ValueError):
            make_discrete([-1, 0, 1], [0.6, -0.2, 0.6])

    def test_support_sorted(self):
        d = make_discrete([2, -1], [1 / 3, 2 / 3])
        assert d.support == (-1.0, 2.0)
        assert d.probs == (2 / 3, 1 / 3)

    @pytest.mark.parametrize("scale", [1e200, 1e110])  # the square, then only the cube overflows
    def test_support_whose_moments_overflow_is_refused(self, scale):
        with pytest.raises(ValueError, match="^support points and their cubes must be finite$"):
            make_discrete([-scale, scale], [0.5, 0.5])

    def test_every_moment_a_command_reads_is_finite(self):
        family = build_family([make_discrete([-1e102, 1e102], [0.5, 0.5])])
        assert family.sigma_bar == pytest.approx(1e102, rel=1e-15)
        assert all(math.isfinite(moment(family.members[0], k)) for k in (1, 2, 3))
        assert check_cubic_condition(family)


class TestMoment:
    def test_rademacher_second(self):
        assert moment(rademacher(), 2) == 1.0

    def test_rademacher_third_vanishes(self):
        assert moment(rademacher(), 3) == 0.0

    def test_asymmetric_third(self):
        d = make_discrete([-2, 1], [1 / 3, 2 / 3])
        assert moment(d, 3) == pytest.approx(-2.0, abs=1e-14)

    def test_fractional_order_is_refused(self):
        with pytest.raises(ValueError):
            moment(rademacher(), 2.5)


class TestBuildFamily:
    def test_single_rademacher(self):
        f = build_family([rademacher()])
        assert f.sigma_bar == f.sigma_under == 1.0
        assert f.lattice_step == 1.0

    def test_pair(self):
        f = build_family([rademacher(), rademacher(0.5)])
        assert f.sigma_bar == 1.0
        assert f.sigma_under == 0.5
        assert f.lattice_step == 0.5

    def test_three_point_bounds_are_equal(self):
        d = make_discrete([-1, 0, 1], [0.25, 0.5, 0.25])
        f = build_family([d])
        assert f.sigma_bar == f.sigma_under == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyFamilyError):
            build_family([])

    def test_no_common_lattice(self):
        f = build_family([rademacher(), rademacher(math.sqrt(2))])
        assert f.lattice_step is None

    def test_lattice_capped_at_one(self):
        # supports on 2Z still lie on 1Z, and 1 is the greatest step <= 1
        f = build_family([rademacher(2.0)])
        assert f.lattice_step == 1.0

    def test_point_mass_lattice(self):
        assert build_family([make_discrete([0.0], [1.0])]).lattice_step == 1.0


class TestConjectureFamily:
    def test_n4_is_rademacher_in_law(self):
        f = conjecture_family(4)
        assert f.members[0].probs == (0.5, 0.0, 0.5)
        assert moment(f.members[0], 2) == 1.0

    def test_n16(self):
        f = conjecture_family(16)
        assert f.members[0].probs == (0.25, 0.5, 0.25)
        assert f.sigma_bar**2 == pytest.approx(0.5, abs=1e-15)

    def test_bad_n(self):
        with pytest.raises(BadNError):
            conjecture_family(3)

    @pytest.mark.parametrize("n", [4, 9, 25, 100, 10_000])
    def test_second_moment_closed_form(self, n):
        f = conjecture_family(n)
        assert moment(f.members[0], 2) == 2.0 * n**-0.5


class TestCubicCondition:
    def test_rademacher(self):
        assert check_cubic_condition(build_family([rademacher()]))

    def test_asymmetric(self):
        d = make_discrete([-2, 1], [1 / 3, 2 / 3])
        assert not check_cubic_condition(build_family([d]))

    def test_conjecture(self):
        assert check_cubic_condition(conjecture_family(16))


class TestConfig:
    def test_round_trip(self):
        for f in [*map(builtin_family, BUILTIN_FAMILIES), conjecture_family(16)]:
            assert family_from_config(family_to_config(f)) == f

    @pytest.mark.parametrize("key", ["beta", "name"])
    def test_other_top_level_key_is_refused(self, key):
        cfg = {key: 1, "members": [{"support": [-1, 1], "probs": [0.5, 0.5]}]}
        with pytest.raises(ValueError, match=f"family config .* got .*'{key}'"):
            family_from_config(cfg)

    def test_other_member_key_is_refused(self):
        member = {"support": [-1, 1], "probs": [0.5, 0.5], "weights": [9, 9]}
        with pytest.raises(ValueError, match="family member .* got .*'weights'"):
            family_from_config({"members": [member]})

    def test_malformed(self):
        member = {"support": [-1, 0, 1], "probs": [0.5, 0.5]}
        with pytest.raises(ValueError, match="^support and probs must have equal length >= 1$"):
            family_from_config({"members": [member]})

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_family("cauchy")


@given(zero_mean_families())
def test_family_invariants(f):
    assert f.sigma_under <= f.sigma_bar
    for d in f.members:
        if f.lattice_step is not None:
            for x in d.support:
                assert abs(x - round(x / f.lattice_step) * f.lattice_step) <= 1e-12


def assert_offsets_place_the_support(f):
    assert (f.offsets is None) == (f.lattice_step is None)
    if f.offsets is None:
        return
    assert len(f.offsets) == len(f.members)
    for d, offs in zip(f.members, f.offsets):
        assert len(offs) == len(d.support)
        for x, j in zip(d.support, offs):
            assert type(j) is int
            assert abs(x - j * f.lattice_step) <= LATTICE_TOL


@given(zero_mean_families())
def test_offsets_place_every_support_point(f):
    assert_offsets_place_the_support(f)


OFF_LATTICE = build_family([rademacher(), rademacher(math.sqrt(2))])


@pytest.mark.parametrize(
    "f",
    [*map(builtin_family, BUILTIN_FAMILIES), conjecture_family(16), OFF_LATTICE],
    ids=[*BUILTIN_FAMILIES, "conjecture-16", "off-lattice"],
)
def test_offsets_of_fixed_families(f):
    assert_offsets_place_the_support(f)


def test_offsets_are_the_support_in_lattice_units():
    assert builtin_family("rademacher_pair").offsets == ((-2, 2), (-1, 1))  # step 1/2
    assert conjecture_family(16).offsets == ((-1, 0, 1),)
    assert build_family([make_discrete([0.0], [1.0])]).offsets == ((0,),)
    assert OFF_LATTICE.offsets is None


@given(zero_mean_dists())
def test_dist_invariants(d):
    assert abs(math.fsum(d.probs) - 1.0) <= 1e-12
    assert abs(moment(d, 1)) <= 1e-12
    assert all(b > a for a, b in zip(d.support, d.support[1:]))
