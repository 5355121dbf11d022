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
from cltlab.families import common_lattice_step

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


class TestMoment:
    def test_rademacher_second(self):
        assert moment(rademacher(), 2) == 1.0

    def test_rademacher_third_vanishes(self):
        assert moment(rademacher(), 3) == 0.0

    def test_asymmetric_third(self):
        d = make_discrete([-2, 1], [1 / 3, 2 / 3])
        assert moment(d, 3) == pytest.approx(-2.0, abs=1e-14)

    def test_fractional_requires_absolute(self):
        with pytest.raises(ValueError):
            moment(rademacher(), 2.5)
        assert moment(rademacher(), 2.5, absolute=True) == 1.0


class TestBuildFamily:
    def test_single_rademacher(self):
        f = build_family([rademacher()], beta=1.0)
        assert f.sigma_bar == f.sigma_under == 1.0
        assert f.lattice_step == 1.0

    def test_pair(self):
        f = build_family([rademacher(), rademacher(0.5)], beta=1.0)
        assert f.sigma_bar == 1.0
        assert f.sigma_under == 0.5
        assert f.lattice_step == 0.5

    def test_three_point_beta_two(self):
        d = make_discrete([-1, 0, 1], [0.25, 0.5, 0.25])
        f = build_family([d], beta=2.0)
        assert f.sigma_bar == f.sigma_under == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_empty(self):
        with pytest.raises(EmptyFamilyError):
            build_family([], beta=1.0)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            build_family([rademacher()], beta=1.5)

    def test_no_common_lattice(self):
        f = build_family([rademacher(), rademacher(math.sqrt(2))], beta=1.0)
        assert f.lattice_step is None

    def test_lattice_capped_at_one(self):
        # supports on 2Z still lie on 1Z, and 1 is the greatest step <= 1
        f = build_family([rademacher(2.0)], beta=1.0)
        assert f.lattice_step == 1.0

    def test_point_mass_lattice(self):
        assert common_lattice_step([0.0]) == 1.0


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
        assert check_cubic_condition(build_family([rademacher()], 1.0))

    def test_asymmetric(self):
        d = make_discrete([-2, 1], [1 / 3, 2 / 3])
        assert not check_cubic_condition(build_family([d], 1.0))

    def test_conjecture(self):
        assert check_cubic_condition(conjecture_family(16))


class TestConfig:
    def test_round_trip(self):
        f = builtin_family("rademacher_pair")
        again = family_from_config(family_to_config(f))
        assert again == f

    def test_malformed(self):
        with pytest.raises(ValueError):
            family_from_config({"members": [{"support": [1], "probs": [1]}]})

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


@given(zero_mean_dists())
def test_dist_invariants(d):
    assert abs(math.fsum(d.probs) - 1.0) <= 1e-12
    assert abs(moment(d, 1)) <= 1e-12
    assert all(b > a for a, b in zip(d.support, d.support[1:]))
