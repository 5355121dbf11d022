import numpy as np
import pytest

from cltlab import (
    DomainTooSmallError,
    GHeatProblem,
    GridSpec,
    HypothesisViolatedError,
    MollifierSpec,
    ResolutionTooCoarseError,
    abs_payoff,
    abs_pow_payoff,
    builtin_family,
    default_spec,
    mollify,
    piecewise_linear_payoff,
    regularity_audit,
    richardson_value,
    solve_gheat,
    surface_from_field,
    surface_from_function,
    verify_smoothing_bounds,
)
from cltlab.recursion import solve_recursion
from cltlab.smoothing import (
    DERIV_BLOCK,
    VERIFY_LINES,
    SmoothingRow,
    _max_core_derivatives,
    _strided,
    _valid_correlation,
    kernel_shape,
)

ABS = abs_payoff()
RADEMACHER = builtin_family("rademacher")


def abs_surface(beta=1.0, eps=0.2, half_width=1.5):
    pay = abs_pow_payoff(beta)
    return surface_from_function(
        lambda t, x: pay(x) + 0.0 * t,
        x_half_width=half_width,
        dt=eps * eps / 16.0,
        dx=eps / 16.0,
        beta=beta,
    )


def whole_array_derivatives(u, dt, dx):
    """First time and second space derivatives, and the core derivative sum."""
    d2t = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / dt**2
    d4x = (
        u[:, 4:] - 4.0 * u[:, 3:-1] + 6.0 * u[:, 2:-2] - 4.0 * u[:, 1:-3] + u[:, :-4]
    ) / dx**4
    d2x = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dx**2
    d1t = (u[2:, :] - u[:-2, :]) / (2.0 * dt)
    dt_d2x = (d2x[2:, :] - d2x[:-2, :]) / (2.0 * dt)
    core = np.abs(d2t[:, 2:-2]) + np.abs(d4x[1:-1, :]) + np.abs(dt_d2x[:, 1:-1])
    return d1t, d2x, core


class TestKernel:
    def test_support_containment(self):
        ts = np.array([-1.0, 0.0, 0.5, -0.5])
        xs = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.all(kernel_shape(ts, xs) == 0.0)
        assert kernel_shape(-0.5, 0.0) > 0.0

    def test_unit_mass(self):
        spec = MollifierSpec(0.3)
        m = 1200
        dt = spec.epsilon**2 / m
        dx = 2 * spec.epsilon / m
        ts = -spec.epsilon**2 + (np.arange(m) + 0.5) * dt
        xs = -spec.epsilon + (np.arange(m) + 0.5) * dx
        mass = float(spec.kernel(ts[:, None], xs[None, :]).sum() * dt * dx)
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            MollifierSpec(1.0)


class TestMollify:
    def test_constant_preserved(self):
        surf = surface_from_function(
            lambda t, x: 2.5 + 0.0 * t + 0.0 * x,
            x_half_width=1.0, dt=0.0025, dx=0.0125, beta=1.0,
        )
        sm = mollify(surf, MollifierSpec(0.2))
        assert np.max(np.abs(sm.values - 2.5)) <= 1e-8

    def test_linear_offset_bounded_by_eps(self):
        surf = surface_from_function(
            lambda t, x: x + 0.0 * t,
            x_half_width=1.0, dt=0.0025, dx=0.0125, beta=1.0,
        )
        sm = mollify(surf, MollifierSpec(0.2))
        offset = np.max(np.abs(sm.values - sm.xs[None, :]))
        assert offset <= 0.2
        # this kernel is even in x, so the offset is actually zero
        assert offset <= 1e-10

    def test_sup_contraction(self):
        surf = abs_surface()
        sm = mollify(surf, MollifierSpec(0.2))
        assert np.max(np.abs(sm.values)) <= np.max(np.abs(surf.values)) + 1e-8

    def test_output_domain(self):
        surf = abs_surface(eps=0.2)
        sm = mollify(surf, MollifierSpec(0.2))
        assert sm.times[-1] <= 1.0 - 0.2**2 + 1e-12
        assert sm.xs[0] >= surf.xs[0] + 0.2 - 1e-12

    def test_resolution_guard(self):
        surf = abs_surface(eps=0.2)
        with pytest.raises(ResolutionTooCoarseError):
            mollify(surf, MollifierSpec(0.05))

    @pytest.mark.parametrize("shape", [(5, 7), (9, 4), (2, 2)])
    def test_valid_correlation_is_the_direct_sum(self, shape):
        # random weights are asymmetric on both axes, so a kernel that is not
        # flipped, or a window off by one, gives a different sum
        rng = np.random.default_rng(7)
        values = rng.standard_normal((40, 33))
        weights = rng.random(shape)
        windows = np.lib.stride_tricks.sliding_window_view(values, shape)
        direct = np.einsum("rcpq,pq->rc", windows, weights)
        got = _valid_correlation(values, weights)
        assert got.shape == direct.shape == (41 - shape[0], 34 - shape[1])
        assert np.max(np.abs(got - direct)) <= 1e-12

    def test_domain_guard(self):
        surf = surface_from_function(
            lambda t, x: 0.0 * t + 0.0 * x,
            x_half_width=0.2, dt=0.0025, dx=0.0125, beta=1.0,
        )
        with pytest.raises(DomainTooSmallError):
            mollify(surf, MollifierSpec(0.25))


class TestVerify:
    def test_abs_power_surfaces_pass(self):
        surf = abs_surface(beta=0.5, eps=0.1)
        report = verify_smoothing_bounds(surf, [0.2, 0.1])
        assert report.passed
        for row in report.rows:
            assert row.sup_gap <= 2.0 * row.eps**0.5

    def test_zero_surface(self):
        surf = surface_from_function(
            lambda t, x: 0.0 * t + 0.0 * x,
            x_half_width=1.0, dt=0.0025, dx=0.0125, beta=1.0,
        )
        report = verify_smoothing_bounds(surf, [0.2])
        assert report.passed
        assert report.rows[0].sup_gap == 0.0
        assert report.rows[0].scaled_derivatives <= 1e-8

    def test_recursion_surface_passes(self):
        n = 16
        field = solve_recursion(
            RADEMACHER, ABS, n, mode="grid", grid=GridSpec(step=0.0125, half_width=8.0)
        )
        surf = surface_from_field(
            field, x_half_width=1.5, dt=0.0025, dx=0.0125,
            beta=1.0, slack=n**-0.5,
        )
        report = verify_smoothing_bounds(surf, [0.2])
        assert report.passed

    def test_rows_match_whole_array_derivatives(self):
        # the derivative pass runs in row blocks; on a surface taller than one
        # block every row field equals the whole-array computation exactly
        eps, beta = 0.2, 1.0
        surf = surface_from_function(
            lambda t, x: 0.5 * np.abs(x) + 0.5 * np.sqrt(1.0 - t) * np.cos(x),
            x_half_width=1.0, dt=0.0025, dx=0.0125, beta=beta,
        )
        (row,) = verify_smoothing_bounds(surf, [eps]).rows
        sm = mollify(surf, MollifierSpec(eps))
        u, dt, dx = sm.values, sm.dt, sm.dx
        assert u.shape[0] - 2 > DERIV_BLOCK

        q = (surf.xs.size - sm.xs.size) // 2
        sup_gap = float(np.max(np.abs(u - surf.values[: u.shape[0], q : q + sm.xs.size])))

        d1t, d2x, core = whole_array_derivatives(u, dt, dx)
        lines = _strided(d1t.shape[0], VERIFY_LINES)
        cols = _strided(d1t.shape[1] - 2, VERIFY_LINES)
        f1 = d1t[np.ix_(lines, cols + 1)]
        f2 = d2x[np.ix_(lines + 1, cols)]
        # pair[i, j, c]: both derivative gaps between strided lines i and j
        pair_t = np.abs(f1[:, None] - f1[None, :]) + np.abs(f2[:, None] - f2[None, :])
        t = sm.times[1:-1][lines]
        t_gap = np.abs(t[:, None] - t[None, :]) ** (beta / 2.0) + 1e-300
        temporal = float(np.max(np.max(pair_t, axis=2) / t_gap))
        pair_x = np.abs(f1[:, :, None] - f1[:, None]) + np.abs(f2[:, :, None] - f2[:, None])
        x = sm.xs[1:-1][cols]
        x_gap = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(x_gap, np.inf)
        spatial = float(np.max(np.max(pair_x, axis=0) / x_gap**beta))

        assert row == SmoothingRow(
            eps=eps,
            sup_gap=sup_gap,
            sup_bound=2.0 * eps**beta,
            sup_ok=True,
            scaled_derivatives=eps**4 * float(np.max(core)) / eps**beta,
            scaled_temporal_modulus=eps**2 * temporal,
            scaled_spatial_modulus=eps**2 * spatial,
        )
        assert temporal > 0.0 and spatial > 0.0

    def test_blocked_derivative_max_sees_every_row(self):
        # a spike makes its own row the largest; no row may fall between blocks
        u = np.random.default_rng(0).random((2 * DERIV_BLOCK + 3, 9))
        for r in range(1, u.shape[0] - 1):
            spiked = u.copy()
            spiked[r, 4] += 100.0
            _, _, core = whole_array_derivatives(spiked, 0.5, 0.25)
            assert _max_core_derivatives(spiked, 0.5, 0.25) == float(np.max(core))

    def test_hypothesis_gate(self):
        # x is 1-Lipschitz but not Holder-1/2 with constant 1 on a wide range
        surf = surface_from_function(
            lambda t, x: x + 0.0 * t,
            x_half_width=2.0, dt=0.0025, dx=0.0125, beta=0.5,
        )
        with pytest.raises(HypothesisViolatedError):
            verify_smoothing_bounds(surf, [0.2])


class TestRegularityAudit:
    def test_lattice_zero_slack(self):
        field = solve_recursion(RADEMACHER, ABS, 8)
        report = regularity_audit(field, 1.0, 1.0, 0.0)
        assert report.passed
        assert report.spatial_excess <= 1e-12
        assert report.temporal_excess <= 1e-12

    def test_lattice_fractional_exponent(self):
        field = solve_recursion(RADEMACHER, abs_pow_payoff(0.5), 8)
        assert regularity_audit(field, 0.5, 1.0, 0.0).passed

    def test_constant_field(self):
        const = piecewise_linear_payoff([-1.0, 1.0], [0.2, 0.2])
        field = solve_recursion(RADEMACHER, const, 8)
        assert regularity_audit(field, 1.0, 1.0, 0.0).passed

    def test_scheme_field_with_scheme_slack(self):
        prob = GHeatProblem(1.0, 1.0, ABS)
        spec = default_spec(prob, h=1 / 50)
        field = solve_gheat(prob, spec)
        _, err = richardson_value(prob, spec)
        assert regularity_audit(field, 1.0, 1.0, 2.0 * err).passed

    def test_detects_violations(self):
        field = solve_recursion(RADEMACHER, ABS, 4)
        field.values[0][0] += 1.0  # corrupt the origin value
        report = regularity_audit(field, 1.0, 1.0, 0.0)
        assert not report.passed
        assert report.temporal_excess > 0.5
