import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from cltlab import (
    DomainTooSmallError,
    GHeatProblem,
    GridSpec,
    HypothesisViolatedError,
    MollifierSpec,
    NonFiniteValuesError,
    ResolutionTooCoarseError,
    SampledSurface,
    SchemeSpec,
    ValueField,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    builtin_family,
    conjecture_family,
    default_spec,
    make_discrete,
    make_payoff,
    piecewise_linear_payoff,
    regularity_audit,
    richardson_value,
    solve_gheat,
    surface_from_field,
    surface_from_function,
    verify_smoothing_bounds,
)
from cltlab import smoothing
from cltlab.fields import FLOAT_ROUNDING
from cltlab.recursion import solve_recursion
from cltlab.smoothing import (
    CHUNK_ROWS,
    DERIV_BLOCK,
    HYPOTHESIS_LINES,
    LEVEL_BATCH,
    PAIR_BLOCK,
    REGULARITY_LEVELS,
    REGULARITY_POINTS,
    VERIFY_LINES,
    RegularityReport,
    SmoothingRow,
    _correlation_chunks,
    _derivative_modulus,
    _fast_len,
    _max_core_derivatives,
    _strided,
    audit_surface_hypotheses,
    kernel_shape,
    mollify,
)

from oracles import (
    derivative_modulus,
    field_rows,
    holder_excess,
    pair_excess,
    regularity_excess,
    smoothing_row,
    strided,
    whole_array_derivatives,
)

ABS = abs_payoff()
RADEMACHER = builtin_family("rademacher")
PAIR = builtin_family("rademacher_pair")


def abs_surface(beta=1.0, eps=0.2, half_width=1.5):
    pay = abs_pow_payoff(beta)
    return surface_from_function(
        lambda t, x: pay(x) + 0.0 * t,
        x_half_width=half_width,
        dt=eps * eps / 16.0,
        dx=eps / 16.0,
        beta=beta,
    )


def gathered(values, weights):
    """The streamed correlation's chunks put back together, and their count."""
    rows = values.shape[0] - weights.shape[0] + 1
    out = np.full((rows, values.shape[1] - weights.shape[1] + 1), np.nan)
    chunks = 0
    for lo, hi, block in _correlation_chunks(values, np.arange(len(values)), weights):
        start = max(lo - 1, 0)
        assert start + block.shape[0] == min(hi + 1, rows)  # a halo where there is a row
        assert np.isnan(out[lo:hi]).all()  # the chunks partition the rows
        out[lo:hi] = block[lo - start : hi - start]
        chunks += 1
    return out, chunks


def direct_correlation(values, weights):
    windows = np.lib.stride_tricks.sliding_window_view(values, weights.shape)
    return np.einsum("rcpq,pq->rc", windows, weights)


SLAB_CASES = [  # values shape, weights shape, CHUNK_ROWS
    ((97, 131), (9, 67), 16),  # 89 rows: 6 chunks, the last one 9 rows
    ((301, 259), (17, 129), 256),  # one full chunk and a part
    ((45, 203), (5, 101), 40),  # a last chunk of 1 row
    ((33, 9), (3, 5), 7),
    ((14, 40), (14, 5), 3),  # a kernel taller than the chunk, 1 output row
    ((50, 31), (7, 1), 11),  # a single kernel column
    ((64, 48), (8, 16), 19),  # even shapes
    ((255, 77), (33, 13), 32),  # kernel taller than the chunk; 7 chunks, the last 31 rows
]


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

    def test_mass_is_the_closed_form(self):
        from scipy import special

        m = 2048  # the midpoint rule the closed form replaced
        dt, dx = 1.0 / m, 2.0 / m
        ts = -1.0 + (np.arange(m) + 0.5) * dt
        xs = -1.0 + (np.arange(m) + 0.5) * dx
        quadrature = float(kernel_shape(ts[:, None], xs[None, :]).sum() * dt * dx)
        assert smoothing._kernel_mass() == quadrature
        assert abs(smoothing._kernel_mass() - special.expn(2, 1.0) * math.pi / 2) <= 1e-15

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
    @pytest.mark.parametrize("chunk_rows", [CHUNK_ROWS, 4])
    def test_streamed_correlation_is_the_direct_sum(self, monkeypatch, shape, chunk_rows):
        # random weights are asymmetric on both axes, so a kernel that is not
        # flipped, or a window off by one, gives a different sum
        monkeypatch.setattr(smoothing, "CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(7)
        values = rng.standard_normal((40, 33))
        weights = rng.random(shape)
        direct = direct_correlation(values, weights)
        got, _ = gathered(values, weights)
        assert got.shape == direct.shape == (41 - shape[0], 34 - shape[1])
        assert np.max(np.abs(got - direct)) <= 1e-12

    @pytest.mark.parametrize("values_shape, weights_shape, chunk_rows", SLAB_CASES)
    def test_overlap_save_is_the_direct_sum(
        self, monkeypatch, values_shape, weights_shape, chunk_rows
    ):
        # each chunk transforms only the input rows it draws on, padded in x
        # only to the surface width; a slab too short or a wrap-around into
        # kept columns gives a different sum
        monkeypatch.setattr(smoothing, "CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng(sum(values_shape + weights_shape))
        values = rng.standard_normal(values_shape)
        weights = rng.random(weights_shape)
        got, chunks = gathered(values, weights)
        rows = values_shape[0] - weights_shape[0] + 1
        assert chunks == -(-rows // chunk_rows)
        assert np.max(np.abs(got - direct_correlation(values, weights))) <= 1e-12

    def test_fast_len_is_scipys_next_fast_len(self):
        # the slab shapes, and with them the bits, are those scipy.fft pads to
        from scipy import fft

        ns = range(1, 100_001)
        assert [_fast_len(n) for n in ns] == [fft.next_fast_len(n, True) for n in ns]

    def test_domain_guard(self):
        surf = surface_from_function(
            lambda t, x: 0.0 * t + 0.0 * x,
            x_half_width=0.2, dt=0.0025, dx=0.0125, beta=1.0,
        )
        with pytest.raises(DomainTooSmallError):
            mollify(surf, MollifierSpec(0.25))


@pytest.mark.parametrize(
    "eps, half_width, shape",
    [
        (0.05, 2.0, (6401, 1281)),  # the README grid
        (0.1, 2.0, (1601, 641)),
        (0.15, 2.0, (712 + 1, 2 * 214 + 1)),  # 1/dt = 711.1, 2/dx = 213.3
        (0.22, 2.0, (331 + 1, 2 * 146 + 1)),  # 1/dt = 330.6, 2/dx = 145.5
        (0.3, 1.0, (178 + 1, 2 * 54 + 1)),  # 1/dt = 177.8, 1/dx = 53.3
    ],
)
def test_surface_steps_never_exceed_the_requested_ones(eps, half_width, shape):
    # point counts round up, so the realized steps pass the mollifier's
    # resolution check; integer ratios keep their exact grids
    dt, dx = eps**2 / 16.0, eps / 16.0
    field = solve_recursion(RADEMACHER, ABS, 4, mode="grid", grid=GridSpec(0.01, 8.0))
    surfaces = [
        surface_from_function(
            lambda t, x: 0.0 * t + 0.0 * x, x_half_width=half_width, dt=dt, dx=dx, beta=1.0
        ),
        surface_from_field(field, x_half_width=half_width, dt=dt, dx=dx, beta=1.0, slack=0.5),
    ]
    for surf in surfaces:
        assert surf.values[surf.row_index].shape == shape
        assert surf.times[-1] == 1.0 and surf.xs[-1] == pytest.approx(half_width, rel=1e-15)
        assert surf.dt <= dt + 1e-12 and surf.dx <= dx + 1e-12
        mollify(surf, MollifierSpec(eps))  # resolution and domain accepted


def test_values_of_any_other_shape_are_refused():
    # one row is a time-constant surface; a column or a transposed grid is none
    for fn in (lambda t, x: t + 0.0, lambda t, x: (t + x).T):
        with pytest.raises(ValueError, match="shaped"):
            surface_from_function(fn, x_half_width=1.0, dt=0.01, dx=0.05, beta=1.0)
    # stored rows need an index of one stored row per time
    times, xs, rows = np.linspace(0, 1, 5), np.linspace(-1, 1, 3), np.zeros((2, 3))
    for index in (None, [0, 1, 1, 2, 0], [0, 1, 1, 0], [0.0, 1.0, 1.0, 0.0, 0.0], [-1, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="shaped"):
            SampledSurface(times, xs, rows, beta=1.0, row_index=index)
    surf = SampledSurface(times, xs, rows, beta=1.0, row_index=[0, 1, 1, 0, 0])
    assert not surf.constant_in_time


@pytest.mark.parametrize(
    "cap", [1, 2, VERIFY_LINES, REGULARITY_LEVELS, HYPOTHESIS_LINES, REGULARITY_POINTS]
)
def test_strided_indices_need_no_unique(cap):
    # past the cap the spread points step by more than 1, so rounding keeps
    # them strictly ascending and np.unique has nothing to drop; they are
    # linspace's points, computed without its overhead
    for n in range(5001):
        got = _strided(n, cap)
        assert np.array_equal(got, strided(n, cap)), n
        if n > cap:
            assert np.array_equal(got, np.linspace(0, n - 1, cap).round().astype(int)), n


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

    @pytest.mark.parametrize("chunk_rows, slack", [(CHUNK_ROWS, 0.0), (7, 0.05)])
    def test_rows_equal_the_whole_array_oracle(self, monkeypatch, chunk_rows, slack):
        # the mollified surface streams past in chunks of rows, each with a
        # halo; on a surface taller than one chunk every row field equals the
        # one computed from mollify's gathered array exactly, for kernels
        # shorter and taller than a chunk
        monkeypatch.setattr(smoothing, "CHUNK_ROWS", chunk_rows)
        eps_list = [0.3, 0.2, 0.19, 0.15]
        surf = dataclasses.replace(surface_from_function(  # Lipschitz in x, Holder-1/2 in t
            lambda t, x: 0.5 * np.abs(x) + 0.5 * np.sqrt(1.0 - t) * np.cos(x),
            x_half_width=1.0, dt=0.15**2 / 16.0, dx=0.15 / 16.0, beta=1.0,
        ), slack=slack)
        report = verify_smoothing_bounds(surf, eps_list)
        expected = []
        for eps, got in zip(eps_list, report.rows):
            assert surf.times.size - got.kernel_points[0] + 1 > CHUNK_ROWS
            u = mollify(surf, MollifierSpec(eps)).values
            row = smoothing_row(surf, eps, u, VERIFY_LINES)
            ok = row["sup_gap"] <= row["sup_bound"] * (1.0 + 1e-9) + FLOAT_ROUNDING
            expected.append(SmoothingRow(**row, sup_ok=ok))
        assert report.rows == tuple(expected)
        assert all(r.scaled_temporal_modulus > 0.0 < r.scaled_spatial_modulus for r in report.rows)

    @pytest.mark.parametrize("chunk_rows", [CHUNK_ROWS, 128])
    def test_one_row_surface_matches_its_repeated_copy(self, monkeypatch, chunk_rows):
        # a time-constant surface is kept as one row and mollified by one 1-D
        # correlation per width; its full copy takes the 2-D overlap-save
        # path. Widths 0.3 and 0.2 leave 365 and 385 output rows: no multiple
        # of either chunk height, and 385 = 3 * 128 + 1 ends in a 1-row slab.
        # The two sums round differently, so the reports agree within the
        # stated envelopes, and the one row's time moduli are exactly 0
        monkeypatch.setattr(smoothing, "CHUNK_ROWS", chunk_rows)
        pay = abs_pow_payoff(0.5)
        one = dataclasses.replace(surface_from_function(
            lambda t, x: pay(x), x_half_width=1.5, dt=0.2**2 / 16.0, dx=0.2 / 16.0, beta=0.5,
        ), slack=0.01)
        full = SampledSurface(
            one.times, one.xs, np.repeat(one.values, one.times.size, axis=0), beta=0.5, slack=0.01
        )
        assert one.values.shape == (1, one.xs.size)
        eps_list = [0.3, 0.2]
        got, want = (verify_smoothing_bounds(s, eps_list) for s in (one, full))
        assert got.passed and want.passed
        for g, w in zip(got.rows, want.rows):
            # the one row's moduli read one time line, the copy's every strided one
            assert g.kernel_points == w.kernel_points
            assert g.modulus_lines == (1, w.modulus_lines[1])
            assert w.modulus_lines[0] == VERIFY_LINES
            assert abs(g.sup_gap - w.sup_gap) <= FLOAT_ROUNDING
            assert g.scaled_derivatives == pytest.approx(w.scaled_derivatives, rel=1e-8, abs=0)
            assert g.scaled_spatial_modulus == pytest.approx(
                w.scaled_spatial_modulus, rel=1e-10, abs=0
            )
            assert g.scaled_temporal_modulus == 0.0 and w.scaled_temporal_modulus < 1e-6
        for eps, rows, g in zip(eps_list, [365, 385], got.rows):
            mine, copy = (mollify(s, MollifierSpec(eps)) for s in (one, full))
            assert copy.values.shape[0] == rows and rows % chunk_rows != 0
            assert mine.values.shape == (1, copy.xs.size)
            assert np.array_equal(mine.times, copy.times) and np.array_equal(mine.xs, copy.xs)
            assert np.max(np.abs(copy.values - mine.values)) <= FLOAT_ROUNDING
            # the one-row report is the whole-array oracle's on that row at
            # every time, bit for bit
            u = np.repeat(mine.values, rows, axis=0)
            row = smoothing_row(one, eps, u, VERIFY_LINES)
            assert g == SmoothingRow(**row, sup_ok=g.sup_ok)

    @pytest.mark.parametrize("eps", [0.3, 0.2, 0.15])
    def test_one_row_correlation_is_the_direct_sum(self, eps):
        # the one row is correlated with the kernel summed over time; the 2-D
        # direct sum over a copy tall enough for three output rows gives it
        # in every row, for random values, so no symmetry hides a flip
        rng = np.random.default_rng(11)
        one = surface_from_function(
            lambda t, x: rng.standard_normal(x.shape),
            x_half_width=1.0, dt=0.15**2 / 16.0, dx=0.15 / 16.0, beta=1.0,
        )
        weights = smoothing._kernel_weights(one, MollifierSpec(eps))
        tall = np.repeat(one.values, weights.shape[0] + 2, axis=0)
        direct = direct_correlation(tall, weights)
        got = mollify(one, MollifierSpec(eps)).values
        assert got.shape == (1, direct.shape[1]) and direct.shape[0] == 3
        assert np.max(np.abs(direct - got)) <= 1e-12

    def test_moduli_see_a_spike_between_sixty_four_strided_columns(self):
        # at eps = 0.025 on [-2, 2] the kernel spans 33 points and 64 strided
        # columns lie about 40 apart; a Lipschitz hat midway between two of
        # them moves the mollified d2x only within 17 points of its peak,
        # which columns at most ceil(16 / 4) = 4 apart cannot step over
        eps = 0.025
        flat = surface_from_function(
            lambda t, x: 0.0 * x, x_half_width=2.0, dt=eps**2 / 16.0, dx=eps / 16.0, beta=1.0,
        )
        q = math.ceil(eps / flat.dx - 1e-9)
        n_out = flat.xs.size - 2 * q
        old = strided(n_out - 2, VERIFY_LINES) + 1  # interior mollified columns
        mid = (old[31] + old[32]) // 2
        assert min(mid - old[31], old[32] - mid) > q + 1
        peak = flat.xs[q + mid]
        hat = surface_from_function(
            lambda t, x: np.maximum(0.0, 4.0 * flat.dx - np.abs(x - peak)),
            x_half_width=2.0, dt=eps**2 / 16.0, dx=eps / 16.0, beta=1.0,
        )
        u = mollify(hat, MollifierSpec(eps)).values[0]
        d2x = u[2:] - 2.0 * u[1:-1] + u[:-2]  # at interior columns 1 .. n_out - 2
        assert np.all(d2x[old - 1] == 0.0) and np.max(np.abs(d2x)) > 0.0
        (row,) = verify_smoothing_bounds(hat, [eps]).rows
        (zero,) = verify_smoothing_bounds(flat, [eps]).rows
        assert row.modulus_lines == (1, 633)  # a one-row surface reads one time line
        assert zero.scaled_spatial_modulus == 0.0 < row.scaled_spatial_modulus
        # every pair of every column bounds the sampled modulus from above
        f2 = d2x / flat.dx**2
        x = flat.xs[q + 1 : q + n_out - 1]
        gap = np.abs(x[:, None] - x[None, :]) + 1e-300
        exhaustive = eps**2 * float(np.max(np.abs(f2[:, None] - f2[None, :]) / gap))
        assert 0.5 * exhaustive < row.scaled_spatial_modulus <= exhaustive * (1.0 + 1e-12)

    def test_blocked_derivative_max_sees_every_row(self):
        # a spike makes its own row the largest; no row may fall between blocks
        u = np.random.default_rng(0).random((2 * DERIV_BLOCK + 3, 9))
        for r in range(1, u.shape[0] - 1):
            spiked = u.copy()
            spiked[r, 4] += 100.0
            _, _, core = whole_array_derivatives(spiked, 0.5, 0.25)
            assert _max_core_derivatives(spiked, 0.5, 0.25) == float(np.max(core))

    def test_sup_gap_sees_the_edge_rows_of_every_chunk(self, monkeypatch):
        # a row lifted by 100 (the temporal slack allows it) makes its own
        # sup gap the largest, since the kernel gives a row no weight in its
        # own mollified value; the first and last row of every 7-row chunk
        # take the lift in turn, and every row field equals the one computed
        # from mollify's gathered array
        monkeypatch.setattr(smoothing, "CHUNK_ROWS", 7)
        eps = 0.3
        surf = dataclasses.replace(surface_from_function(
            lambda t, x: np.abs(x) + 0.0 * t,
            x_half_width=0.5, dt=eps**2 / 16.0, dx=eps / 16.0, beta=1.0,
        ), slack=100.0)
        rows = surf.times.size - math.ceil(eps**2 / surf.dt - 1e-9)
        edges = sorted({r for lo in range(0, rows, 7) for r in (lo, min(lo + 7, rows) - 1)})
        assert rows % 7 != 0 and len(edges) > 40
        for r in edges:
            values = surf.values.copy()
            values[r] += 100.0 if r % 2 else -100.0
            spiked = SampledSurface(surf.times, surf.xs, values, beta=1.0, slack=100.0)
            (got,) = verify_smoothing_bounds(spiked, [eps]).rows
            u = mollify(spiked, MollifierSpec(eps)).values
            row = smoothing_row(spiked, eps, u, VERIFY_LINES)
            ok = row["sup_gap"] <= row["sup_bound"] * (1.0 + 1e-9) + FLOAT_ROUNDING
            assert got == SmoothingRow(**row, sup_ok=ok), r
            assert got.sup_gap > 99.0

    @pytest.mark.parametrize("pair_block", [PAIR_BLOCK, 100])
    @pytest.mark.parametrize("shape", [(64, 73), (64, 153), (1, 313), (313, 1), (7, 5)])
    def test_derivative_modulus_is_the_per_line_loop(self, monkeypatch, shape, pair_block):
        # mollify-dp's strided lines and points, the one line of a
        # time-constant surface, and blocks that leave a short last one
        monkeypatch.setattr(smoothing, "PAIR_BLOCK", pair_block)
        rng = np.random.default_rng(sum(shape))
        f1, f2 = rng.standard_normal((2, *shape))
        t, x = np.sort(rng.random(shape[0])), np.sort(rng.random(shape[1]))
        for beta, a in [(1.0, 0.0), (0.5, 0.125), (1.0, 0.05)]:
            got = _derivative_modulus(t, f1, f2, beta / 2.0, a)
            assert got == derivative_modulus(t, f1, f2, beta / 2.0, a)
            got = _derivative_modulus(x, f1.T, f2.T, beta, 0.0)
            assert got == derivative_modulus(x, f1.T, f2.T, beta, 0.0)

    def test_hypothesis_gate(self):
        # x is 1-Lipschitz but not Holder-1/2 with constant 1 on a wide range
        surf = surface_from_function(
            lambda t, x: x + 0.0 * t,
            x_half_width=2.0, dt=0.0025, dx=0.0125, beta=0.5,
        )
        with pytest.raises(HypothesisViolatedError):
            verify_smoothing_bounds(surf, [0.2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("one_row", [True, False], ids=["one-row", "full"])
    def test_non_finite_surface_is_refused(self, bad, one_row):
        # a NaN pair drops out of a max with 0, so the audit would pass it
        surf = abs_surface(eps=0.3)  # every row stored
        if one_row:
            surf = SampledSurface(surf.times, surf.xs, surf.values[:1], beta=1.0)
        surf.values[-1, 7] = bad
        for check in (audit_surface_hypotheses, lambda s: verify_smoothing_bounds(s, [0.3])):
            with pytest.raises(NonFiniteValuesError, match="the surface holds a NaN"):
                check(surf)


def traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, in bytes.

    numpy reports its array buffers to ``tracemalloc``; the FFT library's
    own scratch is not traced.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    @staticmethod
    def tall_surface(fn=lambda t, x: np.abs(x) + 0.0 * t):
        return surface_from_function(fn, x_half_width=1.0, dt=1 / 4000, dx=1 / 160, beta=1.0)

    def test_checks_hold_the_surface_and_a_few_slabs(self):
        # every row distinct: the surface is the only array as large as
        # itself, since each width's correlation runs a slab of CHUNK_ROWS
        # rows at a time
        def run():
            surf = self.tall_surface()
            return surf, verify_smoothing_bounds(surf, [0.2])

        (surf, report), peak = traced_peak(run)
        assert report.passed and surf.values.shape == (4001, 321)
        # one complex array as tall as the input rows of a chunk (the kernel
        # has ceil(0.2^2 / dt) + 1 = 161 rows) and as wide as the surface
        slab = (CHUNK_ROWS + 161) * surf.xs.size * 16
        assert peak < surf.values.nbytes + 4 * slab

    def test_checks_of_a_stepwise_surface_hold_no_array_as_tall_as_it(self):
        # a field of 17 levels resampled at 4001 times stores 17 rows; the
        # checks hold them, the kernel's spectrum, one slab, two output
        # buffers and a chunk's sup gap (measured: 5.1 MB, 2.4 slabs), and
        # nothing of 4001 x 321 (10.3 MB)
        field = solve_recursion(RADEMACHER, ABS, 16, mode="grid", grid=GridSpec(1 / 16, 8.0))
        surf = surface_from_field(
            field, x_half_width=1.0, dt=1 / 4000, dx=1 / 160, beta=1.0, slack=16**-0.5
        )
        assert surf.values.shape == (17, 321) and surf.times.size == 4001
        report, peak = traced_peak(lambda: verify_smoothing_bounds(surf, [0.2]))
        assert report.passed
        slab = (CHUNK_ROWS + 161) * surf.xs.size * 16
        assert peak < surf.values.nbytes + 3 * slab < surf.times.size * surf.xs.size * 8

    @pytest.mark.parametrize(
        "fn, rows",
        [(lambda t, x: np.abs(x) + 0.0 * t, 4001), (lambda t, x: np.abs(x), 1)],
        ids=["full-shape", "broadcast"],
    )
    def test_sampling_holds_one_surface(self, fn, rows):
        # a fn whose result broadcasts along t is stored as its one row
        surf, peak = traced_peak(lambda: self.tall_surface(fn))
        assert surf.values.shape == (rows, 321) and surf.values.flags.owndata
        if rows > 1:
            assert peak < 1.05 * surf.values.nbytes
        else:  # the time axis's temporaries set the peak
            assert peak < 4 * surf.times.nbytes + surf.values.nbytes

    def test_audit_temporaries_are_bounded(self):
        # the regularity-pde field: the temporal pass holds the largest set,
        # its level matrix of 150 x 1601 floats, one block of strided
        # columns and one scratch of 150 x 512, and the pair maxima and
        # bounds, 150 x 150 each: 3.50 MB. Measured: 3.69 MB, where flat
        # copies of the levels and per-level gathers peaked at 6.27 MB
        prob = GHeatProblem(1.0, 1.0, ABS)
        field = solve_gheat(prob, default_spec(prob, h=0.01))
        report, peak = traced_peak(lambda: regularity_audit(field, 1.0, 1.0, 0.0))
        assert report.passed and report.temporal_pairs_checked == 150 * 149 // 2
        levels, width = REGULARITY_LEVELS, field.xs[0].size
        assert peak < 1.1 * 8 * levels * (width + 2 * REGULARITY_POINTS + 2 * levels)
        # mollify-dp's moduli, (64, 73) and (64, 153) lines by points: a
        # block holds about PAIR_BLOCK differences and three arrays of them
        # live at once. Measured: at most 356 KB
        rng = np.random.default_rng(3)
        for shape in [(64, 73), (64, 153)]:
            f1, f2 = rng.standard_normal((2, *shape))
            t, x = np.sort(rng.random(shape[0])), np.sort(rng.random(shape[1]))
            for call in (
                lambda: _derivative_modulus(t, f1, f2, 0.5, 0.1),
                lambda: _derivative_modulus(x, f1.T, f2.T, 1.0, 0.0),
            ):
                assert traced_peak(call)[1] < 4 * PAIR_BLOCK * 8

    def test_kernel_mass_allocates_no_array(self):
        mass, peak = traced_peak(smoothing._kernel_mass)
        assert mass > 0.0 and peak < 1000


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

    @pytest.mark.parametrize("bounds", [(1.0, 1.0), (0.5, 1.0), (0.0, 1.0), (0.05, 0.1)])
    @pytest.mark.parametrize("payoff", [
        make_payoff("abs"),
        make_payoff("neg_abs"),
        make_payoff("cosine_scaled"),
        make_payoff("abs_pow", beta=0.5),
        make_payoff("piecewise_linear", knots=[-1.0, 0.0, 2.0], values=[0.5, -0.5, 0.5]),
        make_payoff("piecewise_linear", knots=[-1.0, 0.0, 1.0], values=[-1.0, 0.0, -1.0]),
    ], ids=["abs", "neg_abs", "cosine", "abs_pow-half", "uneven", "concave"])
    def test_scheme_field_at_zero_slack(self, payoff, bounds):
        # a scheme step is a sup over two laws of variance at most
        # sigma_bar^2 tau (CFL ratio <= 1), so the field needs no slack
        prob = GHeatProblem(*bounds, payoff)
        for h in (0.1, 0.04):
            spec = default_spec(prob, h=h)
            for half_width in (spec.half_width, 1.5 * spec.half_width):
                field = solve_gheat(prob, SchemeSpec(h, spec.tau, half_width))
                assert regularity_audit(field, payoff.beta, prob.sigma_bar, 0.0).passed

    def test_detects_violations(self):
        field = solve_recursion(RADEMACHER, ABS, 4)
        field.values[0][0] += 1.0  # corrupt the origin value
        report = regularity_audit(field, 1.0, 1.0, 0.0)
        assert not report.passed
        assert report.temporal_excess > 0.5

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_non_finite_level_is_refused(self, bad, beta):
        # both audits read level 5; a NaN would drop out of their max with 0
        field = solve_recursion(RADEMACHER, ABS, 16)
        field.values[5] = field.values[5].copy()
        field.values[5][3] = bad
        with pytest.raises(NonFiniteValuesError, match="level 5 holds a NaN or an infinity"):
            regularity_audit(field, beta, 1.0, 0.0)


def lipschitz_lines(kind, coords, count, rng):
    """``count`` lines on ``coords`` as columns: uniform in [-8, 8], or
    slope-1 ramps (a pair meets its bound up to rounding) with one spike."""
    if kind == "random":
        return rng.uniform(-8.0, 8.0, (coords.size, count))
    signs = np.where(rng.random(count) < 0.5, 1.0, -1.0)
    lines = signs * coords[:, None] + rng.uniform(-4.0, 4.0, count)
    lines[rng.integers(coords.size, size=count), np.arange(count)] += rng.uniform(0.0, 2.0, count)
    return np.clip(lines, -8.0, 8.0)


class TestLipschitzScan:
    @pytest.mark.parametrize("kind", ["random", "spike"])
    @pytest.mark.parametrize("grid", ["lattice", "random"])
    def test_scan_is_within_its_rounding_bound_of_the_pair_form(self, grid, kind):
        # the scan takes max(a_j - a_i) for a = +-v - x; the pair form
        # |v_j - v_i| - |x_j - x_i| rounds differently, within
        # 2**-49 (max|v| + max|x|) by _holder_excess's derivation
        rng = np.random.default_rng(sum(map(ord, grid + kind)))
        for n, count in [(2, 1), (37, 1), (200, 5), (512, 3)]:
            if grid == "lattice":
                coords = (np.arange(n) - n // 2) * (8.0 / n)
            else:
                coords = np.sort(rng.uniform(-8.0, 8.0, n))
            lines = lipschitz_lines(kind, coords, count, rng)
            got = smoothing._holder_excess(coords, lines, 1.0)
            want = pair_excess(coords, lines.T, 1.0)
            bound = 2.0**-49 * (np.max(np.abs(lines)) + np.max(np.abs(coords)))
            assert abs(got - want) <= bound
            assert got == holder_excess(coords, lines.T, 1.0)  # the scan's own form

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_violation_between_the_ends_is_found(self, sign):
        # slope 2 exceeds the bound most between the two ends of the grid
        coords = np.linspace(-1.0, 1.0, 33)
        assert smoothing._holder_excess(coords, sign * 2.0 * coords, 1.0) == 2.0

    @pytest.mark.parametrize("exponent", [1.0, 0.5])
    def test_unsorted_coords_raise(self, exponent):
        coords = np.array([0.0, 0.5, 0.25, 1.0])
        with pytest.raises(ValueError, match="must ascend"):
            smoothing._holder_excess(coords, np.zeros(4), exponent)


def corrupted(field, bump=1.0):
    """``field`` with one audited terminal value raised by ``bump``: a
    spatial and a temporal kink in the last level."""
    level = field.times.size - 1
    point = strided(field.xs[level].size, REGULARITY_POINTS)[REGULARITY_POINTS // 3]
    field.values[level] = field.values[level].copy()
    field.values[level][point] += bump
    return field


def scheme_field(h, sigma_under=0.5, payoff=ABS):
    prob = GHeatProblem(sigma_under, 1.0, payoff)
    return solve_gheat(prob, default_spec(prob, h=h))


def grid_field(n):
    return solve_recursion(RADEMACHER, ABS, n, mode="grid", grid=GridSpec(0.05, 8.0))


def disjoint_field():
    """Levels whose middle stretches mostly share no points: level 1 holds
    two points where the widest holds five, so no stretch of it is centred."""
    xs = [[-1.0, 0.0, 1.0], [-0.5, 0.5], [0.0], [-2.0, -1.0, 0.0, 1.0, 2.0], [-0.5, 0.5]]
    values = [[1.0, 0.0, 1.0], [9.0, 9.0], [0.9], [2.0, 1.0, 0.0, 1.0, 2.0], [8.9, 9.0]]
    return ValueField(
        mode="lattice",
        n=4,
        times=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
        xs=[np.array(x) for x in xs],
        values=[np.array(v) for v in values],
    )


def near_shared_field():
    """Lattice-like levels of 1 to 1041 points on ``j/8`` shifted by
    ``(k % 4) * 4e-10``: level 1 lies 4e-10 off the widest level's points."""
    times = np.arange(41) / 40
    xs = [np.arange(-13 * k, 13 * k + 1) / 8 + (k % 4) * 4e-10 for k in range(41)]
    values = [np.abs(x) + 0.3 * np.sqrt(1.0 - t) * np.cos(x) for t, x in zip(times, xs)]
    return ValueField(mode="lattice", n=40, times=times, xs=xs, values=values)


def mixed_parity_field():
    """Levels of 3 to 1201 points on one grid of 1201, each the stretch that
    starts at the floor or the ceiling of its centred offset: a level of
    even size has no centred stretch of the widest level's 1201 points."""
    rng = np.random.default_rng(5)
    grid = (np.arange(1201) - 600) / 200
    rough = rng.uniform(-1.0, 1.0, grid.size)
    sizes = [*rng.integers(3, 1201, 59), 1201]
    starts = [(1201 - n) // 2 + (rng.random() < 0.5) * ((1201 - n) % 2) for n in sizes]
    times = np.arange(60) / 59
    return ValueField(
        mode="lattice",
        n=59,
        times=times,
        xs=[grid[a : a + n] for a, n in zip(starts, sizes)],
        values=[rough[a : a + n] + 0.01 * t for a, n, t in zip(starts, sizes, times)],
    )


SKEW = build_family([make_discrete([-1.0, 2.0], [2 / 3, 1 / 3])])  # zero mean, reach 2
ODD = piecewise_linear_payoff([-1.0, 0.0, 2.0], [0.5, 0.0, 1.0])  # not even


# every shape the solvers make: lattice cones of each reach, one shared
# grid in grid mode and in the scheme, even and odd terminal data
REGULARITY_CASES = {
    "lattice-8": lambda: (solve_recursion(RADEMACHER, ABS, 8), 1.0),
    "lattice-pair": lambda: (solve_recursion(PAIR, ABS, 64), 1.0),
    "lattice-conjecture-16": lambda: (solve_recursion(conjecture_family(16), ABS, 16), 1.0),
    "lattice-skew": lambda: (solve_recursion(SKEW, ABS, 64), 1.0),
    "lattice-odd-data": lambda: (solve_recursion(PAIR, ODD, 64), 1.0),
    "scheme-equal-bounds": lambda: (scheme_field(1 / 20, sigma_under=1.0), 1.0),
    "scheme-odd-data": lambda: (scheme_field(1 / 20, payoff=ODD), 1.0),
    # 601 points on the last level and 301 levels: both are strided
    "lattice-300": lambda: (solve_recursion(RADEMACHER, ABS, 300), 1.0),
    "scheme": lambda: (scheme_field(1 / 20), 1.0),  # unequal bounds
    "beta-half": lambda: (solve_recursion(RADEMACHER, abs_pow_payoff(0.5), 64), 0.5),
    "corrupted-lattice": lambda: (corrupted(solve_recursion(RADEMACHER, ABS, 300)), 1.0),
    "corrupted-scheme": lambda: (corrupted(scheme_field(1 / 20), bump=0.3), 1.0),
    # 301 levels on one grid: more than one batch of LEVEL_BATCH levels
    "corrupted-grid": lambda: (corrupted(grid_field(300)), 1.0),
}


# hand-built fields whose level 1 has no centred stretch of the widest
# level's points to be compared at: the audit refuses them
OFF_INVARIANT = {
    "disjoint-levels": disjoint_field,
    "near-shared": near_shared_field,
    "mixed-parity": mixed_parity_field,
}


def assert_refused(field, level, beta, sigma_bar):
    expected = f"level {level} is not a centred stretch of the widest level's points"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        regularity_audit(field, beta, sigma_bar, 0.0)


@pytest.mark.parametrize(
    "case, sigma_bar",
    [
        pytest.param(case, sigma_bar, id=case if sigma_bar == 1.0 else f"{case}-sigma-bar-0.75")
        for sigma_bar in (1.0, 0.75)
        for case in [*REGULARITY_CASES, *OFF_INVARIANT]
    ],
)
def test_regularity_audit_is_the_all_pairs_loop(case, sigma_bar):
    if case in OFF_INVARIANT:
        assert_refused(OFF_INVARIANT[case](), 1, 1.0, sigma_bar)
        return
    field, beta = REGULARITY_CASES[case]()
    slack = 0.01
    spatial, temporal, spatial_levels, temporal_levels, pairs, points = regularity_excess(
        field, beta, sigma_bar, REGULARITY_POINTS, REGULARITY_LEVELS
    )
    report = regularity_audit(field, beta, sigma_bar, slack)
    assert report == RegularityReport(
        spatial_excess=spatial,
        temporal_excess=temporal,
        passed=max(spatial, temporal) <= slack + FLOAT_ROUNDING,
        spatial_levels_checked=spatial_levels,
        temporal_levels_checked=temporal_levels,
        temporal_pairs_checked=pairs,
        points_checked=points,
    )
    assert report.temporal_pairs_checked == temporal_levels * (temporal_levels - 1) // 2
    if case.startswith("corrupted"):
        assert spatial > slack and temporal > slack
    if case == "corrupted-grid":
        assert field.times.size > LEVEL_BATCH


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_an_empty_level_is_refused(beta):
    # it has no points to share with any level
    field = solve_recursion(RADEMACHER, ABS, 8)
    field.xs[3], field.values[3] = np.empty(0), np.empty(0)
    assert_refused(field, 3, beta, 1.0)


def test_temporal_bound_takes_the_scalar_power():
    # numpy's array power rounds differently from the scalar one for some
    # inputs (about 5 % of them at exponent 1/4 on an AVX-512 host); two
    # levels that far apart in time, 1 apart in value, have the excess
    # 1 - gap**(1/4) of the written formula, exact by Sterbenz's lemma
    gaps = np.random.default_rng(2).uniform(0.1, 0.9, 1000)
    scalar = np.array([g**0.25 for g in gaps.tolist()])
    gap = float((gaps[gaps**0.25 != scalar] if np.any(gaps**0.25 != scalar) else gaps)[0])
    field = ValueField(
        mode="grid", n=1, times=np.array([0.0, gap]),
        xs=[np.array([0.0, 0.5])] * 2, values=[np.zeros(2), np.ones(2)],
    )
    report = regularity_audit(field, 0.5, 1.0, 0.0)
    assert report.temporal_excess == 1.0 - gap**0.25
    assert report.temporal_pairs_checked == 1 and report.spatial_excess == 0.0


def on_lattice_points(payoff, n):
    """The lattice's points ``j / sqrt(n)``, marched in grid mode over the
    whole grid: a lattice field's early levels span only their cone, too
    little to resample onto a surface."""
    return solve_recursion(RADEMACHER, payoff, n, mode="grid", grid=GridSpec(n**-0.5, 8.0))


HYPOTHESIS_CASES = {
    "lattice-300": lambda: (on_lattice_points(ABS, 300), 1.0),
    "scheme": REGULARITY_CASES["scheme"],
    "beta-half": lambda: (on_lattice_points(abs_pow_payoff(0.5), 64), 0.5),
}


def hypothesis_lines(case, corrupt, slack=0.5):
    """A case's resampled surface and its strided times and points as a grid
    field; with ``corrupt``, the stored row of strided time 80 is raised by
    1 at strided point 80, at every time that reads it."""
    field, beta = HYPOTHESIS_CASES[case]()
    surf = surface_from_field(
        field, x_half_width=1.5, dt=1 / 400, dx=1 / 200, beta=beta, slack=slack
    )
    rows = strided(surf.times.size, HYPOTHESIS_LINES)
    cols = strided(surf.xs.size, HYPOTHESIS_LINES)
    if corrupt:
        surf.values[surf.row_index[rows[80]], cols[80]] += 1.0
    vsub = surf.values[surf.row_index[rows]][:, cols]
    lines = ValueField("grid", surf.times.size - 1, surf.times[rows],
                       [surf.xs[cols]] * rows.size, list(vsub))
    return surf, lines


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("case", HYPOTHESIS_CASES)
def test_hypothesis_audit_is_the_all_pairs_loop(case, corrupt):
    # every pair of the strided lines, the temporal bound sigma_bar = 1
    surf, lines = hypothesis_lines(case, corrupt)
    cap = HYPOTHESIS_LINES
    spatial, temporal, *_ = regularity_excess(lines, surf.beta, 1.0, cap, cap)
    temporal = max(temporal - surf.slack, 0.0)
    if corrupt:
        assert spatial > 1e-9 and temporal > 1e-9
        expected = f"spatial excess {spatial}, temporal {temporal}"
        with pytest.raises(HypothesisViolatedError, match=re.escape(expected)):
            audit_surface_hypotheses(surf)
    else:
        assert audit_surface_hypotheses(surf) == (spatial, temporal)


@pytest.mark.parametrize("case", HYPOTHESIS_CASES)
def test_hypothesis_temporal_excess_is_the_field_pass_less_the_slack(case):
    surf, lines = hypothesis_lines(case, corrupt=True, slack=0.0)
    levels = np.arange(lines.times.size)
    raw = smoothing._temporal_excess(lines.times, lines.values, levels, surf.beta, 1.0)[0]
    assert raw > 0.5
    for slack in (0.0, raw / 3.0, raw + 0.25):  # the last leaves only the spatial kink
        expected = f"temporal {max(raw - slack, 0.0)}"
        with pytest.raises(HypothesisViolatedError, match=re.escape(expected) + "$"):
            audit_surface_hypotheses(dataclasses.replace(surf, slack=slack))


@pytest.mark.parametrize(
    "setting",
    [{"slack": -1.0}, {"slack": math.nan}, {"slack": math.inf},
     {"beta": 0.0}, {"beta": 2.0}, {"beta": math.nan}],
    ids=["slack-negative", "slack-nan", "slack-inf", "beta-zero", "beta-two", "beta-nan"],
)
def test_surface_settings_the_cli_refuses_are_refused(setting):
    # a negative slack fails a time-constant surface's own temporal audit
    # (excess -slack), and a NaN slack fails every sup check without an error
    surface = surface_from_function(lambda t, x: np.abs(x), x_half_width=1.0, dt=0.01, dx=0.05,
                                    beta=1.0)
    with pytest.raises(ValueError, match=r"^need beta in \(0, 1\] and a finite slack >= 0, got "):
        dataclasses.replace(surface, **setting)


@pytest.mark.parametrize(
    "sigma_bar, slack",
    [(1.0, math.nan), (1.0, -1.0), (1.0, math.inf),
     (math.nan, 0.0), (-1.0, 0.0), (math.inf, 0.0)],
    ids=["slack-nan", "slack-negative", "slack-inf",
         "sigma-bar-nan", "sigma-bar-negative", "sigma-bar-inf"],
)
def test_regularity_settings_the_cli_refuses_are_refused(sigma_bar, slack):
    # a NaN slack would make the verdict false without an error
    with pytest.raises(ValueError, match="^need a finite slack and sigma_bar >= 0, got "):
        regularity_audit(solve_recursion(RADEMACHER, ABS, 8), 1.0, sigma_bar, slack)


def stored_late(field):
    """``field`` with its stored times 4e-13 late, within the lookup's tolerance."""
    field.times = np.minimum(field.times + 4e-13, 1.0)
    return field


@pytest.mark.parametrize("dt", [1 / 400, 1 / 333])
@pytest.mark.parametrize("source", ["grid", "grid-stored-late", "lattice-cone", "scheme"])
def test_surface_from_field_is_the_row_by_row_lookup(source, dt):
    # one interpolation per level that rows read, bit for bit the lookup of
    # every row's time; 1/333 puts rows between the stored times, and rows
    # at a time stored late still read that time's level
    field = {
        "grid": lambda: grid_field(24),
        "grid-stored-late": lambda: stored_late(grid_field(24)),
        "lattice-cone": lambda: on_lattice_points(ABS, 16),
        "scheme": lambda: scheme_field(1 / 20),
    }[source]()
    surf = surface_from_field(field, x_half_width=1.5, dt=dt, dx=1 / 64, beta=1.0, slack=0.5)
    assert np.array_equal(surf.values[surf.row_index], field_rows(field, surf.times, surf.xs))
    # one stored row per level that some row reads
    assert surf.values.shape[0] == np.unique(surf.row_index).size <= field.times.size


def test_levels_that_do_not_span_the_surface_are_refused():
    # a lattice field's first level is the single point 0; interpolation
    # would clamp the t = 0 row to the origin value at every x
    field = solve_recursion(RADEMACHER, ABS, 16)
    with pytest.raises(DomainTooSmallError, match=re.escape("t = 0 spans [0, 0], not [-1.5, 1.5]")):
        surface_from_field(field, x_half_width=1.5, dt=1 / 400, dx=1 / 64, beta=1.0, slack=0.5)
    field.xs[0], field.values[0] = np.empty(0), np.empty(0)
    with pytest.raises(DomainTooSmallError, match="t = 0 spans no points"):
        surface_from_field(field, x_half_width=1.5, dt=1 / 400, dx=1 / 64, beta=1.0, slack=0.5)


@pytest.mark.parametrize("chunk_rows", [CHUNK_ROWS, 7])
def test_stepwise_surface_is_its_full_height_copy(monkeypatch, chunk_rows):
    # a field resampled in time stores one row per level it reads; the
    # checks and the mollifier see its full-height copy bit for bit. Levels
    # 1/4 apart span 64 surface rows, so 7-row chunks end inside runs and
    # some slabs (7 + 24 input rows at eps = 0.3) read a single stored row
    monkeypatch.setattr(smoothing, "CHUNK_ROWS", chunk_rows)
    field = on_lattice_points(ABS, 4)
    eps_list = [0.3, 0.25]
    step = surface_from_field(
        field, x_half_width=1.0, dt=0.25**2 / 16, dx=0.25 / 16, beta=1.0, slack=0.5
    )
    full = SampledSurface(step.times, step.xs, step.values[step.row_index], beta=1.0, slack=0.5)
    assert step.values.shape == (5, step.xs.size) and full.values.shape == (257, step.xs.size)
    assert verify_smoothing_bounds(step, eps_list) == verify_smoothing_bounds(full, eps_list)
    assert audit_surface_hypotheses(step) == audit_surface_hypotheses(full)
    for eps in eps_list:
        got, want = (mollify(s, MollifierSpec(eps)).values for s in (step, full))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_stored_row_is_a_time_constant_surface():
    # a field of one level gives every row that level: the all-zero index,
    # which is the (1, len(xs)) surface, checked as constant in time
    grid = on_lattice_points(ABS, 4)
    field = ValueField("grid", 1, np.array([0.0]), grid.xs[:1], grid.values[:1])
    step = surface_from_field(
        field, x_half_width=1.0, dt=0.25**2 / 16, dx=0.25 / 16, beta=1.0, slack=0.0
    )
    one = SampledSurface(step.times, step.xs, step.values, beta=1.0)
    assert step.values.shape == (1, step.xs.size) and step.constant_in_time
    assert np.array_equal(step.row_index, one.row_index)
    assert verify_smoothing_bounds(step, [0.3]) == verify_smoothing_bounds(one, [0.3])
    assert verify_smoothing_bounds(one, [0.3]).rows[0].modulus_lines[0] == 1
