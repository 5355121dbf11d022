"""Tests of the benchmark's own code: counters, tracing, checks, determinism.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cltlab import cli  # noqa: E402
from cltlab.families import builtin_family, conjecture_family  # noqa: E402
from cltlab.fields import GridSpec  # noqa: E402
from cltlab.gheat import GHeatProblem, SchemeSpec, default_spec, solve_gheat  # noqa: E402
from cltlab.payoffs import make_payoff  # noqa: E402
from cltlab.recursion import solve_recursion  # noqa: E402
from cltlab.smoothing import MollifierSpec, mollify, surface_from_function  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from checks import LATTICE_TOL, check_command, load_expected  # noqa: E402
from run import Determinism, tally  # noqa: E402
from workloads import RATES_COSINE_NS, WORKLOADS, command_order  # noqa: E402

ABS = make_payoff("abs")


# ---------------------------------------------------------------------------
# computed counters against the fields the solvers return
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [builtin_family("rademacher_pair"), conjecture_family(16)])
@pytest.mark.parametrize("n", [1, 5, 16])
def test_lattice_counter_matches_returned_levels(family, n):
    field = solve_recursion(family, ABS, n)
    reach = tracing.lattice_reach(family)
    assert [x.size for x in field.xs] == [2 * k * reach + 1 for k in range(n + 1)]
    counts = tracing._count_solve_recursion(field, family, ABS, n)
    assert counts["mode"] == "lattice"
    assert counts["point_updates"] == tracing.lattice_point_updates(family, n)
    assert tracing._count_origin_value(0.0, family, ABS, n) == {
        "mode": "lattice",
        "point_updates": counts["point_updates"],
    }
    assert counts["field_bytes"] == sum(x.nbytes + v.nbytes for x, v in zip(field.xs, field.values))


def test_grid_counter_matches_returned_levels():
    family = builtin_family("rademacher_pair")
    grid = GridSpec(step=1.0 / 8, half_width=8.0)
    field = solve_recursion(family, ABS, 6, mode="grid", grid=grid)
    counts = tracing._count_solve_recursion(field, family, ABS, 6, mode="grid", grid=grid)
    points = grid.points().size
    assert counts["point_updates"] == 6 * points * 4
    assert tracing._count_origin_value(0.0, family, ABS, 6, "grid", grid)["point_updates"] == (
        counts["point_updates"]
    )
    # grid levels share one x array, counted once
    assert counts["field_bytes"] == points * 8 * (6 + 1) + points * 8


@pytest.mark.parametrize("sigmas", [(0.5, 1.0), (1.0, 1.0)])
def test_scheme_counter_steps_are_ceil_one_over_tau(sigmas):
    prob = GHeatProblem(*sigmas, ABS)
    spec = SchemeSpec(h=1.0 / 20, tau=0.9 / 400, half_width=8.0)
    field = solve_gheat(prob, spec, store="final")
    steps = math.ceil(1.0 / spec.tau)
    assert field.n == steps
    counts = tracing._count_solve_gheat(field, prob, spec)
    assert counts == {"point_updates": steps * (321 - 2), "working_set_bytes": 321 * 8}


def test_mollify_taps_are_output_cells_times_kernel_cells():
    eps, dt, dx = 0.2, 0.2**2 / 16, 0.2 / 16
    surface = surface_from_function(
        lambda t, x: abs(x) + 0.0 * t, x_half_width=1.0, dt=dt, dx=dx, beta=1.0
    )
    out = mollify(surface, MollifierSpec(eps))
    p_count, q_count = math.ceil(eps * eps / dt - 1e-9), math.ceil(eps / dx - 1e-9)
    counts = tracing._count_mollify(out, surface, MollifierSpec(eps))
    assert counts["taps"] == out.values.size * (p_count + 1) * (2 * q_count + 1)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("root", 0.0, 10.0),
        tracing.Span("a", 1.0, 4.0, parent=0),
        tracing.Span("b", 2.0, 3.0, parent=1),
        tracing.Span("c", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_installed_wrappers_record_nested_spans_and_restore(tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.TARGETS}
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        rc = tracer.wrap("cli.main", cli.main)(
            ["value", "--sigma-under", "0.5", "--sigma-bar", "1", "--phi", "abs",
             "--h", "0.1", "--out", str(tmp_path / "value")]
        )
    finally:
        restore()
    assert rc == 0
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.TARGETS} == originals
    names = [s.name for s in tracer.spans]
    assert names.count("gheat.solve_gheat") == 2  # coarse and fine, inside richardson
    solves = [s for s in tracer.spans if s.name == "gheat.solve_gheat"]
    assert all(tracer.spans[s.parent].name == "gheat.richardson_value" for s in solves)
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["gheat.solve.calls"] == 2 and layers["gheat.richardson.calls"] == 1
    assert layers["output.bytes_written"] == sum(
        p.stat().st_size for p in (tmp_path / "value").iterdir() if p.suffix == ".json"
    )
    assert layers["cli.self_s"] >= 0.0 and layers["gheat.richardson.self_s"] >= 0.0


# ---------------------------------------------------------------------------
# output checks and fail_frac accounting
# ---------------------------------------------------------------------------


def _write_rates(out: Path, vn, vref, bar, verdict="pass"):
    out.mkdir(parents=True)
    lines = ["n,vn,vref,vref_err,err"]
    lines += [f"{n},{v!r},{vref!r},{bar!r},{abs(v - vref)!r}" for n, v in vn]
    (out / "rates.csv").write_text("\n".join(lines) + "\n")
    summary = {"verdict": verdict, "reference_limited": False}
    (out / "summary.json").write_text(json.dumps(summary))


@pytest.fixture
def expected():
    return load_expected()


def _good_cosine(out: Path, expected, **kw):
    frozen = expected["rates-cosine"]
    vn = [(n, frozen["vn"][str(n)]) for n in RATES_COSINE_NS]
    _write_rates(out, vn, frozen["reference"] + 3.6e-9, 1.09e-8, **kw)


def test_good_artifacts_pass_and_report_accuracy(tmp_path, expected):
    _good_cosine(tmp_path / "rates-cosine", expected)
    problems, figures = check_command("rates-cosine", 0, tmp_path / "rates-cosine", expected)
    assert problems == []
    assert figures["ref_bar"] == 1.09e-8
    assert abs(figures["ref_err"] - 3.6e-9) < 1e-15


def test_nonzero_exit_fails(tmp_path, expected):
    _good_cosine(tmp_path / "rates-cosine", expected)
    assert check_command("rates-cosine", 1, tmp_path / "rates-cosine", expected)[0]
    assert check_command("rates-cosine", None, tmp_path / "rates-cosine", expected)[0]


def test_wrong_verdict_fails(tmp_path, expected):
    _good_cosine(tmp_path / "rates-cosine", expected, verdict="reference-limited")
    assert check_command("rates-cosine", 0, tmp_path / "rates-cosine", expected)[0]


@pytest.mark.parametrize("corrupt", [
    lambda text: text[: len(text) // 2],  # truncated
    lambda text: text.replace("n,vn", "n;vn"),  # header
    lambda text: text.replace("0.88", "0.8x", 1),  # unparsable number
    lambda text: text.replace("0.8813290691787039", "0.8813290691887039"),  # value off by 1e-11
])
def test_corrupted_csv_fails(tmp_path, expected, corrupt):
    out = tmp_path / "rates-cosine"
    _good_cosine(out, expected)
    (out / "rates.csv").write_text(corrupt((out / "rates.csv").read_text()))
    assert check_command("rates-cosine", 0, out, expected)[0]


def test_reference_error_above_its_bar_fails(tmp_path, expected):
    frozen = expected["rates-cosine"]
    out = tmp_path / "rates-cosine"
    vn = [(n, frozen["vn"][str(n)]) for n in RATES_COSINE_NS]
    _write_rates(out, vn, frozen["reference"] + 2e-8, 1e-8)
    assert check_command("rates-cosine", 0, out, expected)[0]


def test_discrete_column_tolerance(tmp_path, expected):
    frozen = expected["conjecture"]["discrete"]
    target = repr(2.0 / math.sqrt(math.pi))
    for shift, ok in ((0.5 * LATTICE_TOL, True), (3 * LATTICE_TOL, False)):
        out = tmp_path / f"conjecture-{ok}"
        out.mkdir()
        rows = [f"{n},{target},{v + shift!r}" for n, v in frozen.items()]
        header = "n,scaled_vn_continuous,scaled_vn_discrete"
        (out / "conjecture.csv").write_text("\n".join([header, *rows]) + "\n")
        assert (check_command("conjecture", 0, out, expected)[0] == []) is ok


def test_tally_counts_every_failed_run(tmp_path, expected):
    good, bad = tmp_path / "good", tmp_path / "bad"
    _good_cosine(good / "rates-cosine", expected)
    _good_cosine(bad / "rates-cosine", expected, verdict="fail")
    passes = [
        {"out": str(good), "commands": [{"key": "rates-cosine", "rc": 0}]},
        {"out": str(bad), "commands": [{"key": "rates-cosine", "rc": 0}]},
        {"out": str(good), "commands": [{"key": "rates-cosine", "rc": 2}]},
    ]
    attempted, failed, accuracy = tally(passes, expected, Determinism(tmp_path))
    assert (attempted, failed) == (3, 1 + 1)
    assert accuracy["ref_bar"] == 1.09e-8


def test_csv_bytes_differing_between_runs_fail(tmp_path, expected):
    first, second = tmp_path / "first", tmp_path / "second"
    _good_cosine(first / "rates-cosine", expected)
    _good_cosine(second / "rates-cosine", expected)
    with open(second / "rates-cosine" / "rates.csv", "a") as fh:
        fh.write("\n")  # same values, different bytes
    determinism = Determinism(tmp_path)
    one = {"out": str(first), "commands": [{"key": "rates-cosine", "rc": 0}]}
    two = {"out": str(second), "commands": [{"key": "rates-cosine", "rc": 0}]}
    assert tally([one, one], expected, determinism)[1] == 0
    determinism.save()
    # a later run of the same source tree compares against the saved digests
    assert tally([two], expected, Determinism(tmp_path))[1] == 1


# ---------------------------------------------------------------------------
# calibration and workloads
# ---------------------------------------------------------------------------


def test_scaled_time_divides_by_the_mean_calibration_sample():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(2.0, [ref, ref]) == 2.0
    assert calibrate.scaled(2.0, [1.5 * ref, 2.5 * ref]) == 1.0
    assert calibrate.sample() > 0.0


def test_seed_zero_keeps_listed_order_and_seeds_permute():
    for name, commands in WORKLOADS.items():
        listed = [key for key, _ in commands]
        assert [key for key, _ in command_order(name, 0)] == listed
        assert sorted(key for key, _ in command_order(name, 7)) == sorted(listed)
        assert command_order(name, 7) == command_order(name, 7)


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}


def test_frozen_reference_is_consistent(expected):
    frozen = expected["rates-cosine"]
    assert abs(frozen["observed_order"] - 2.0) < 0.01
    assert frozen["extrapolation_agreement"] < 1e-10
    prob = GHeatProblem(0.5, 1.0, make_payoff("cosine_scaled"))
    coarse = solve_gheat(prob, default_spec(prob, h=1.0 / 200), store="final").origin_value()
    assert coarse == frozen["scheme_values"]["1/200"]
