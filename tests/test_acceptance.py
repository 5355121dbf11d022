"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The command-line experiments (criteria 3-5) run in subprocesses and are
repeated by criterion 9, which compares the CSV artifacts byte for byte.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from cltlab import (
    GHeatProblem,
    GridSpec,
    abs_payoff,
    abs_pow_payoff,
    build_family,
    builtin_family,
    conjecture_experiment,
    conjecture_family,
    default_spec,
    make_discrete,
    piecewise_linear_payoff,
    regularity_audit,
    richardson_value,
    solve_gheat,
    surface_from_function,
    verify_smoothing_bounds,
)
from cltlab.recursion import origin_value, solve_recursion

from oracles import ROOT_2_OVER_PI, enumerate_value

ABS = abs_payoff()


@contextmanager
def criterion(num, label, budget_seconds):
    start = time.time()
    try:
        yield
        elapsed = time.time() - start
        assert elapsed < budget_seconds, (
            f"criterion {num} took {elapsed:.0f}s, budget {budget_seconds}s"
        )
    except BaseException:
        print(f"criterion {num} ({label}): FAIL [{time.time() - start:.1f}s]")
        raise
    print(f"criterion {num} ({label}): PASS [{elapsed:.1f}s]")


_COUNTER = itertools.count()


def _run_cli(root, args):
    out = root / f"run{next(_COUNTER)}"
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "cltlab", *[str(a) for a in args], "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 2), proc.stderr
    return SimpleNamespace(
        out=out,
        rc=proc.returncode,
        stdout=proc.stdout,
        elapsed=time.time() - start,
    )


CRIT3_ARGS = ("rates", "--family", "rademacher", "--phi", "abs",
              "--ns", "4,16,64,256,1024,4096")
CRIT4_ARGS = ("rates", "--family", "rademacher_pair", "--phi", "abs",
              "--ns", "4,16,64,256,1024,4096", "--exponent-rule", "basic")
CRIT5_ARGS = ("conjecture", "--ns", "16,64,256,1024,4096,16384")


@pytest.fixture(scope="session")
def accept_root(tmp_path_factory):
    return tmp_path_factory.mktemp("accept")


@pytest.fixture(scope="session")
def crit3_run(accept_root):
    return _run_cli(accept_root, CRIT3_ARGS)


@pytest.fixture(scope="session")
def crit4_run(accept_root):
    return _run_cli(accept_root, CRIT4_ARGS)


@pytest.fixture(scope="session")
def crit5_run(accept_root):
    return _run_cli(accept_root, CRIT5_ARGS)


def _csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_criterion_1_brute_force_equivalence():
    with criterion(1, "brute-force equivalence", 60):
        for family in (builtin_family("rademacher"), conjecture_family(16)):
            dist = family.members[0]
            for n in range(1, 11):
                exhaustive = enumerate_value(dist, ABS, n)
                lattice = origin_value(family, ABS, n)  # lattice step 1
                assert abs(lattice - exhaustive) <= 1e-10, (family.describe(), n)


def test_criterion_2_classical_degenerate_value():
    with criterion(2, "classical degenerate value", 60):
        prob = GHeatProblem(1.0, 1.0, ABS)
        value, err = richardson_value(prob, default_spec(prob, h=1 / 400))
        assert abs(value - 0.7978845608) <= 2e-3
        assert abs(value - 0.7978845608) <= 3 * err


def test_criterion_3_improved_rate(crit3_run):
    with criterion(3, f"improved rate, symmetric family, {crit3_run.elapsed:.1f}s cli", 300):
        assert crit3_run.rc == 0
        header, rows = _csv_rows(crit3_run.out / "rates.csv")
        assert header == ["n", "vn", "vref", "vref_err", "err"]
        assert [int(r[0]) for r in rows] == [4, 16, 64, 256, 1024, 4096]
        for r in rows:
            assert float(r[2]) == ROOT_2_OVER_PI  # analytic reference
            assert float(r[3]) == 0.0
        summary = json.loads((crit3_run.out / "summary.json").read_text())
        assert summary["exponent"] == 0.25
        assert summary["slope"] <= -0.25 + 0.05
        assert summary["residual"] <= 0.1
        assert summary["verdict"] == "pass"
        assert crit3_run.elapsed < 300


def test_criterion_4_basic_rate(crit4_run):
    with criterion(4, f"basic rate, two-member family, {crit4_run.elapsed:.1f}s cli", 600):
        assert crit4_run.rc == 0
        _, rows = _csv_rows(crit4_run.out / "rates.csv")
        errs = [float(r[4]) for r in rows]
        bars = {float(r[3]) for r in rows}
        assert len(bars) == 1
        assert bars.pop() <= min(e for e in errs if e > 0) / 10.0
        summary = json.loads((crit4_run.out / "summary.json").read_text())
        assert summary["exponent"] == pytest.approx(1 / 6, abs=1e-12)
        assert not summary["reference_limited"]
        assert summary["slope"] <= -1 / 6 + 0.05
        assert summary["verdict"] == "pass"
        assert crit4_run.elapsed < 600


def test_criterion_5_conjecture_table(crit5_run):
    with criterion(5, f"sharpness-family table, {crit5_run.elapsed:.1f}s cli", 600):
        assert crit5_run.rc == 0
        header, rows = _csv_rows(crit5_run.out / "conjecture.csv")
        assert header == ["n", "scaled_vn_continuous", "scaled_vn_discrete"]
        assert [int(r[0]) for r in rows] == [16, 64, 256, 1024, 4096, 16384]
        exact = repr(2.0 / math.sqrt(math.pi))
        for r in rows:
            assert r[1] == exact  # closed form, bit-for-bit
        # discrete column against exhaustive enumeration at small depths
        small = conjecture_experiment(range(4, 11))
        for row in small.rows:
            bf = row.n**0.25 * enumerate_value(
                conjecture_family(row.n).members[0], ABS, row.n
            )
            assert abs(row.scaled_discrete - bf) <= 1e-12
        assert crit5_run.elapsed < 600


def test_criterion_6_holder_invariants():
    with criterion(6, "Holder invariant suites", 300):
        family = builtin_family("rademacher")
        for n in (8, 32, 128):
            field = solve_recursion(family, ABS, n, mode="lattice")
            report = regularity_audit(field, 1.0, family.sigma_bar, slack=0.0)
            assert report.passed, (n, report)
        rough = solve_recursion(family, abs_pow_payoff(0.5), 32, mode="lattice")
        assert regularity_audit(rough, 0.5, family.sigma_bar, slack=0.0).passed
        prob = GHeatProblem(1.0, 1.0, ABS)
        spec = default_spec(prob, h=1 / 100)
        field = solve_gheat(prob, spec)
        _, err = richardson_value(prob, spec)
        report = regularity_audit(field, 1.0, 1.0, slack=2.0 * err)
        assert report.passed, report


def test_criterion_7_mollifier_suite():
    with criterion(7, "mollifier suite", 120):
        eps_list = (0.2, 0.1, 0.05)
        for beta in (0.5, 1.0):
            pay = abs_pow_payoff(beta)
            surface = surface_from_function(
                lambda t, x: pay(x) + 0.0 * t,
                x_half_width=2.0,
                dt=min(eps_list) ** 2 / 16.0,
                dx=min(eps_list) / 16.0,
                beta=beta,
            )
            report = verify_smoothing_bounds(surface, eps_list)
            assert report.sup_ok, report.rows
            for row in report.rows:
                assert row.sup_gap <= 2.0 * row.eps**beta
            assert report.derivative_scaling_ok
            assert report.temporal_scaling_ok
            assert report.spatial_scaling_ok


def test_criterion_8_monotonicity_properties():
    with criterion(8, "monotonicity properties", 300):
        rng = np.random.default_rng(2024)

        def random_dist():
            xn = -float(rng.uniform(0.2, 2.0))
            xp = float(rng.uniform(0.2, 2.0))
            pn = xp / (xp - xn)
            return make_discrete((xn, xp), (pn, 1.0 - pn))

        for _ in range(100):
            base = [random_dist() for _ in range(int(rng.integers(1, 3)))]
            larger = base + [random_dist() for _ in range(int(rng.integers(1, 3)))]
            fa = build_family(base)
            fb = build_family(larger)
            grid = GridSpec(step=0.05, half_width=8.0 * fb.sigma_bar + 0.1)
            va = solve_recursion(fa, ABS, 6, mode="grid", grid=grid).origin_value()
            vb = solve_recursion(fb, ABS, 6, mode="grid", grid=grid).origin_value()
            assert vb >= va

        knots = np.array([-3.0, -1.0, 0.5, 2.0])
        spec_lo = default_spec(GHeatProblem(0.3, 1.0, ABS), h=1 / 25)
        for _ in range(100):
            v1 = np.cumsum(rng.uniform(-1.0, 1.0, knots.size) * 0.5)
            v2 = np.cumsum(rng.uniform(-1.0, 1.0, knots.size) * 0.5)
            p_low = piecewise_linear_payoff(knots, v1)
            p_high = piecewise_linear_payoff(knots, np.maximum(v1, v2))
            u1 = solve_gheat(GHeatProblem(0.3, 1.0, p_low), spec_lo, store="final")
            u2 = solve_gheat(GHeatProblem(0.3, 1.0, p_high), spec_lo, store="final")
            assert np.all(u1.values[0] <= u2.values[0] + 1e-12)


def test_criterion_9_determinism(accept_root, crit3_run, crit4_run, crit5_run):
    with criterion(9, "byte-identical reruns", 1200):
        for first, args, name in (
            (crit3_run, CRIT3_ARGS, "rates.csv"),
            (crit4_run, CRIT4_ARGS, "rates.csv"),
            (crit5_run, CRIT5_ARGS, "conjecture.csv"),
        ):
            again = _run_cli(accept_root, args)
            assert (first.out / name).read_bytes() == (again.out / name).read_bytes()
