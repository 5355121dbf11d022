import argparse
import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import cltlab
import cltlab.cli as cli_module
from cltlab.cli import ConfigInvalidError, RunConfig, build_parser, main, run
from cltlab.output import (
    LockHeldError,
    OutputDir,
    OutputUnwritableError,
    svg_loglog,
    write_csv,
    write_json,
)


def run_cli(args):
    return main([str(a) for a in args])


# members on incommensurable lattices leave only the interpolation grid
GRID_FAMILY = json.dumps({"members": [
    {"support": [-1, 1], "probs": [0.5, 0.5]},
    {"support": [-2**0.5, 2**0.5], "probs": [0.5, 0.5]},
]})


def test_mollifier_runs_without_scipy(tmp_path):
    # the mollifier's FFTs are numpy's, loaded on first use: importing the
    # CLI loads no numpy.fft, and a mollify-check of either source no scipy
    code = (
        "import sys, cltlab.cli\n"
        "print('numpy.fft' in sys.modules)\n"
        "for args in sys.argv[1:]:\n"
        "    assert cltlab.cli.main(args.split()) == 0\n"
        "print('numpy.fft' in sys.modules, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    runs = [
        f"mollify-check --phi abs --eps 0.3,0.25 --out {tmp_path / 'function'}",
        f"mollify-check --source dp --family rademacher --phi abs --n 8 --eps 0.3 "
        f"--out {tmp_path / 'dp'}",
    ]
    src = str(Path(cltlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *runs], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "True []"


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(
            command="rates",
            out_dir="/tmp/x",
            family="rademacher",
            phi={"phi": "abs"},
            ns=[4, 16, 64],
            emit_svg=True,
        )
        assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_key(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"command": "rates", "out_dir": "x", "bogus": 1})
        with pytest.raises(ConfigInvalidError):  # `seed` is not a config key either
            RunConfig.from_dict({"command": "rates", "out_dir": "x", "seed": 0})

    def test_strict_reference_key_of_earlier_configs_is_refused(self):
        # a coarse reference is flagged reference-limited (exit 2), never raised
        data = {"command": "rates", "out_dir": "x", "strict_reference": False}
        with pytest.raises(ConfigInvalidError, match=r"unknown config keys: \['strict_reference'\]"):
            RunConfig.from_dict(data)

    def test_missing_command(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"out_dir": "x"})

    def test_non_object_phi(self, tmp_path):
        with pytest.raises(ConfigInvalidError):
            run(RunConfig.from_dict({
                "command": "value", "out_dir": str(tmp_path / "v"), "phi": "abs",
                "sigma_under": 1.0, "sigma_bar": 1.0,
            }))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ns", "4,16"),
            ("ns", [4.0, 16]),
            ("n", 8.0),
            ("h", "0.01"),
            ("h", True),
            ("eps", 0.1),
            ("slack", [0]),
            ("family", 3),
            ("emit_svg", 1),
            ("command", None),
        ],
    )
    def test_wrongly_typed_value(self, key, value):
        with pytest.raises(ConfigInvalidError, match=key):
            RunConfig.from_dict({"command": "rates", "out_dir": "x", key: value})

    def test_json_numbers_fit_float_fields(self):
        # and are loaded as floats, as their flags parse them
        cfg = RunConfig.from_dict({
            "command": "value", "out_dir": "x", "sigma_under": 1, "sigma_bar": 1.5,
            "slack": 0, "family": {"members": []}, "eps": [1, 0.5], "n": 8, "ns": [4],
        })
        assert cfg.sigma_under == 1 and cfg.eps == [1, 0.5] and cfg.slack == 0
        assert [type(v) for v in (cfg.sigma_under, cfg.slack, *cfg.eps)] == [float] * 4
        assert type(cfg.n) is int and type(cfg.ns[0]) is int

    @pytest.mark.parametrize("key", ["mode", "half_width", "a"])
    def test_retired_setting_of_earlier_configs_is_refused(self, key):
        # the recursion mode follows the family, value keeps 8 sigma_bar, and
        # mollify-check samples [-2, 2] at surface slack 0
        data = {"command": "value", "out_dir": "x", key: None}
        with pytest.raises(ConfigInvalidError, match=rf"unknown config keys: \['{key}'\]"):
            RunConfig.from_dict(data)

    def test_every_option_reaches_the_config(self):
        # options are copied by RunConfig field name; anything else is dropped
        handled = {f.name for f in dataclasses.fields(RunConfig)} | {
            "command", "out", "beta", "help",
        }
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, subparser in sub.choices.items():
            for action in subparser._actions:
                assert action.dest in handled, (name, action.dest)


class TestRates:
    def test_end_to_end_and_determinism(self, tmp_path):
        args = ["rates", "--family", "rademacher", "--phi", "abs",
                "--ns", "4,16,64,256", "--emit-svg"]
        assert run_cli([*args, "--out", tmp_path / "a"]) == 0
        assert run_cli([*args, "--out", tmp_path / "b"]) == 0
        for name in ("rates.csv", "rates.svg", "summary.json", "config.json", "manifest.json"):
            assert (tmp_path / "a" / name).exists()
            if name.endswith((".csv", ".svg")):
                assert (tmp_path / "a" / name).read_bytes() == (
                    tmp_path / "b" / name
                ).read_bytes()
        lines = (tmp_path / "a" / "rates.csv").read_text().splitlines()
        assert lines[0] == "n,vn,vref,vref_err,err"
        assert len(lines) == 5  # four depths plus the header
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["verdict"] == "pass"
        assert summary["reference"] == "analytic"  # equal bounds, convex data
        assert summary["mode"] == "lattice"
        *whole, cut = summary["window"]
        assert whole == [
            {"n": n, "method": "law", "J": n, "cone": n, "bound": 0.0} for n in (4, 16, 64)
        ]
        assert cut["n"] == cut["cone"] == 256 and cut["method"] == "law"
        assert cut["J"] < 256 and 0.0 < cut["bound"] <= 1e-16
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["schema"] == "cltlab.run/1"
        assert "rates.csv" in manifest["files"]

    def test_switching_sup_against_extrapolated_reference(self, tmp_path):
        # rademacher_pair on cosine data switches between its two laws; the
        # reference is extrapolated from h = 1/35, 1/70, 1/140, the coarsest
        # set whose bar meets a tenth of the smallest error, and agrees with
        # (4 v(1/800) - v(1/400)) / 3 to 1e-9
        out = tmp_path / "switching"
        assert run_cli([
            "rates", "--family", "rademacher_pair", "--phi", "cosine_scaled",
            "--ns", "4,16,64,256,1024,4096", "--exponent-rule", "basic",
            "--ref-h", "0.005", "--out", out,
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["verdict"] == "pass"
        assert summary["reference"] == "scheme"
        assert summary["reference_limited"] is False
        row = (out / "rates.csv").read_text().splitlines()[1].split(",")
        vref, vref_err = float(row[2]), float(row[3])
        gap = abs(vref - 0.882517748798898)
        assert gap <= 1e-9
        assert gap <= vref_err

    def test_inline_family_json(self, tmp_path):
        fam = json.dumps(
            {"members": [{"support": [-1, 1], "probs": [0.5, 0.5]}]}
        )
        rc = run_cli(["rates", "--family", fam, "--phi", "abs", "--ns", "4,16,64",
                      "--out", tmp_path / "r"])
        assert rc == 0
        cfg = json.loads((tmp_path / "r" / "config.json").read_text())
        assert cfg["family"]["members"][0]["support"] == [-1.0, 1.0]

    def test_grid_mode_summary_names_its_mode(self, tmp_path):
        run_cli(["rates", "--family", GRID_FAMILY, "--phi", "abs", "--ns", "4,8,16",
                 "--ref-h", 0.1, "--out", tmp_path / "r"])
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["mode"] == "grid" and summary["window"] is None

    def test_family_from_file(self, tmp_path):
        fam_path = tmp_path / "family.json"
        fam_path.write_text(
            json.dumps({"members": [
                {"support": [-1, 1], "probs": [0.5, 0.5]}
            ]})
        )
        rc = run_cli(["rates", "--family", f"@{fam_path}", "--phi", "abs",
                      "--ns", "4,16,64", "--out", tmp_path / "r"])
        assert rc == 0

    def test_missing_family_file(self, tmp_path, capsys):
        rc = run_cli(["rates", "--family", "@/nonexistent.json", "--phi", "abs",
                      "--ns", "4,16,64", "--out", tmp_path / "r"])
        assert rc == 1
        assert "ConfigInvalid" in capsys.readouterr().err

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLTLAB_OUT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        rc = run_cli(["recurse", "--family", "rademacher", "--phi", "abs", "--n", 2])
        assert rc == 0
        assert (tmp_path / "root" / "recurse" / "recursion.csv").exists()

    def test_malformed_family_exits_one(self, tmp_path, capsys):
        rc = run_cli(["rates", "--family", "{oops", "--phi", "abs", "--ns", "4,16,64",
                      "--out", tmp_path / "r"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ConfigInvalid:")
        assert "\n" not in err.strip()

    def test_unknown_builtin_exits_one(self, tmp_path):
        rc = run_cli(["rates", "--family", "gauss", "--phi", "abs", "--ns", "4,16,64",
                      "--out", tmp_path / "r"])
        assert rc == 1


SWITCHING = ["rates", "--family", "rademacher_pair", "--phi", "cosine_scaled", "--ns", "4,16,64"]


class TestSchemeReference:
    def test_refused_grid_exits_one_and_leaves_no_run_directory(self, tmp_path, capsys):
        out = tmp_path / "new" / "o"
        assert run_cli([*SWITCHING, "--ref-h", 6, "--out", out]) == 1
        assert capsys.readouterr().err == "ERROR DegenerateGrid: need at least 3 interior points\n"
        assert not (tmp_path / "new").exists()

    def test_flagged_reference_exits_two_with_too_few_errors_to_fit(self, tmp_path):
        # two errors cannot be fitted (verdict degenerate), yet the coarse
        # reference is flagged, and a flagged reference is never exit 0
        out = tmp_path / "r"
        assert run_cli(["rates", "--family", "rademacher_pair", "--phi", "abs",
                        "--ns", "16,64", "--ref-h", 0.1, "--out", out]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["reference_limited"] is True
        assert summary["verdict"] == "degenerate"
        assert summary["reference_h"] == 0.1

    def test_summary_records_the_step_of_the_reference_set(self, tmp_path):
        assert run_cli([*SWITCHING, "--ref-h", 0.01, "--out", tmp_path / "s"]) == 0
        assert run_cli(["rates", "--family", "rademacher", "--phi", "abs", "--ns", "4,16,64",
                        "--out", tmp_path / "a"]) == 0
        scheme = json.loads((tmp_path / "s" / "summary.json").read_text())
        analytic = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert scheme["reference"] == "scheme" and scheme["reference_h"] >= 0.01
        assert analytic["reference"] == "analytic" and analytic["reference_h"] is None


class TestValue:
    def test_prints_value_with_error_bar(self, tmp_path, capsys):
        rc = run_cli(["value", "--sigma-under", 1, "--sigma-bar", 1, "--phi", "abs",
                      "--h", 0.02, "--out", tmp_path / "v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("value 0.79")
        summary = json.loads((tmp_path / "v" / "summary.json").read_text())
        assert abs(summary["value"] - math.sqrt(2 / math.pi)) < 2e-3

    def test_field_csv(self, tmp_path):
        # sigma_bar = 0 keeps the grid at half width 1
        rc = run_cli(["value", "--sigma-under", 0, "--sigma-bar", 0, "--phi", "abs",
                      "--h", 0.5, "--emit-field",
                      "--out", tmp_path / "v"])
        assert rc == 0
        lines = (tmp_path / "v" / "field.csv").read_text().splitlines()
        assert lines[0] == "t,x,v"
        assert "0.0,0.0,0.0" in lines

    def test_emit_field_marches_h_once(self, tmp_path, marched_h):
        rc = run_cli(["value", "--sigma-under", 1, "--sigma-bar", 1, "--phi", "cosine_scaled",
                      "--h", 0.05, "--emit-field", "--out", tmp_path / "v"])
        assert rc == 0
        assert marched_h.count(0.05) == 1

    def test_wrongly_typed_payoff_parameter_exits_one(self, tmp_path, capsys):
        rc = run_cli(["value", "--sigma-under", 1, "--sigma-bar", 1,
                      "--phi", '{"phi": "abs_pow", "beta": [1]}', "--out", tmp_path / "v"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ConfigInvalid:")
        assert "\n" not in err.strip()


class TestRecurse:
    def test_per_level_rows(self, tmp_path, capsys):
        rc = run_cli(["recurse", "--family", "rademacher", "--phi", "abs", "--n", 2,
                      "--out", tmp_path / "r"])
        assert rc == 0
        assert "origin_value 0.7071067811865475" in capsys.readouterr().out
        rows = (tmp_path / "r" / "recursion.csv").read_text().splitlines()
        assert rows[0] == "k,x,value"
        # levels 0..2 on the growing cone: 1 + 3 + 5 points
        assert len(rows) == 1 + 9


@pytest.fixture
def marched_h(monkeypatch):
    """Spatial steps of every scheme march a command makes, in order."""
    from cltlab import cli, gheat

    steps = []
    solve = gheat.solve_gheat

    def recorder(prob, spec, store="levels"):
        steps.append(spec.h)
        return solve(prob, spec, store)

    monkeypatch.setattr(gheat, "solve_gheat", recorder)
    monkeypatch.setattr(cli, "solve_gheat", recorder)
    return steps


class TestRegularity:
    def test_lattice_passes(self, tmp_path):
        rc = run_cli(["regularity", "--family", "rademacher", "--phi", "abs",
                      "--n", 8, "--slack", 0, "--out", tmp_path / "g"])
        assert rc == 0
        rows = (tmp_path / "g" / "regularity.csv").read_text().splitlines()
        assert rows[0] == "check,excess,slack,pass"
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        # every level 0..8 and every point of its cone (2k + 1 points); the
        # cones are nested, so every pair of levels shares points
        assert summary["spatial_levels_checked"] == summary["temporal_levels_checked"] == 9
        assert summary["temporal_pairs_checked"] == 9 * 8 // 2
        assert summary["points_checked"] == sum(2 * k + 1 for k in range(9))

    def test_replayed_integer_slack_writes_the_same_csv(self, tmp_path):
        # JSON keeps a 0 an int; the slack column still reads 0.0, as the flag's
        args = ["regularity", "--family", "rademacher", "--phi", "abs", "--n", 8, "--slack", 0]
        assert run_cli([*args, "--out", tmp_path / "a"]) == 0
        data = json.loads((tmp_path / "a" / "config.json").read_text())
        data.update(out_dir=str(tmp_path / "b"), slack=0)
        assert run(RunConfig.from_dict(data)) == 0
        csv = "regularity.csv"
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()

    def test_pde_default_slack_is_zero(self, tmp_path):
        rc = run_cli(["regularity", "--source", "pde", "--phi", "abs",
                      "--sigma-under", 1, "--sigma-bar", 1, "--h", 0.02,
                      "--out", tmp_path / "g"])
        assert rc == 0
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        assert summary["slack"] == 0.0 and summary["passed"] is True

    def test_pde_marches_only_its_h(self, tmp_path, marched_h):
        rc = run_cli(["regularity", "--source", "pde", "--phi", "abs",
                      "--sigma-under", 0.5, "--sigma-bar", 1, "--h", 0.02,
                      "--out", tmp_path / "g"])
        assert rc == 0
        assert marched_h == [0.02]


class TestMollifyCheck:
    def test_function_surface(self, tmp_path):
        rc = run_cli(["mollify-check", "--phi", "abs", "--eps", "0.2",
                      "--out", tmp_path / "m"])
        assert rc == 0
        rows = (tmp_path / "m" / "mollify.csv").read_text().splitlines()
        assert rows[0] == "eps,bound,observed,pass"
        assert rows[1].endswith(",true")

    def test_summary_records_the_slab_shapes(self, tmp_path):
        # the surface's and each kernel's points set the mollifier's memory
        rc = run_cli(["mollify-check", "--phi", "abs", "--eps", "0.1,0.2",
                      "--out", tmp_path / "m"])
        assert rc == 0
        summary = json.loads((tmp_path / "m" / "summary.json").read_text())
        # dt = 0.1^2/16 on [0, 1] and dx = 0.1/16 on [-2, 2]; widths descend
        assert summary["surface_points"] == [1601, 641]
        assert summary["kernel_points"] == [[65, 65], [17, 33]]

    def test_four_widths_pass_with_columns_tied_to_the_kernel(self, tmp_path, capsys):
        # at eps = 0.025 the kernel spans 33 of 2,561 points; 64 strided
        # columns stepped over it and failed the spatial check. Columns at
        # most ceil(ceil(eps / dx) / 4) apart see the flat scaled modulus
        rc = run_cli(["mollify-check", "--phi", "abs_pow", "--beta", "0.5",
                      "--eps", "0.2,0.1,0.05,0.025", "--out", tmp_path / "m"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "sup_ok True derivative_scaling_ok True temporal_scaling_ok True "
            "spatial_scaling_ok True passed True\n"
        )
        summary = json.loads((tmp_path / "m" / "summary.json").read_text())
        assert summary["surface_points"] == [25601, 2561]
        # the time-constant surface's moduli read one time line
        assert summary["modulus_lines"] == [[1, 73], [1, 153], [1, 313], [1, 633]]

    def test_stdout_names_a_failing_spatial_check(self, tmp_path, capsys, monkeypatch):
        # every check is named, so a failure shows which one failed
        verify = cli_module.verify_smoothing_bounds
        monkeypatch.setattr(
            cli_module, "verify_smoothing_bounds",
            lambda *a: dataclasses.replace(verify(*a), spatial_scaling_ok=False),
        )
        rc = run_cli(["mollify-check", "--phi", "abs", "--eps", "0.3,0.2",
                      "--out", tmp_path / "m"])
        assert rc == 2
        assert capsys.readouterr().out == (
            "sup_ok True derivative_scaling_ok True temporal_scaling_ok True "
            "spatial_scaling_ok False passed False\n"
        )
        assert json.loads((tmp_path / "m" / "summary.json").read_text())["passed"] is False

    @pytest.mark.parametrize(
        "args",
        [["--eps", "0.3,0.15"], ["--eps", "0.22"]],
        ids=["eps-0.3-0.15", "eps-0.22"],
    )
    def test_widths_off_the_integer_grid_run(self, tmp_path, args):
        # 1/dt and 2/dx are not integers here; the surface grid
        # rounds its point counts up, so its steps stay within eps^2/16, eps/16
        rc = run_cli(["mollify-check", "--phi", "abs", *args, "--out", tmp_path / "m"])
        assert rc == 0
        rows = (tmp_path / "m" / "mollify.csv").read_text().splitlines()[1:]
        assert all(row.endswith(",true") for row in rows)

    @pytest.mark.parametrize("args", [["--eps", "0.3,0.15"]], ids=["narrow-family"])
    def test_dp_grid_reaches_past_the_surface(self, tmp_path, args):
        # 8 sigma_bar = 0.8 < 2: a grid of half width 2 on steps of 0.009375
        # would end at 1.996875, short of the surface, whose every stored
        # level must span it
        family = '{"members": [{"support": [-0.1, 0.1], "probs": [0.5, 0.5]}]}'
        rc = run_cli(["mollify-check", "--source", "dp", "--family", family, "--phi", "abs",
                      "--n", 16, *args, "--out", tmp_path / "m"])
        assert rc == 0


@pytest.mark.parametrize(
    "args, code",
    [
        # h = 20 leaves no interior point on the half width 8
        pytest.param(["value", "--sigma-under", 0.5, "--sigma-bar", 1, "--phi", "abs",
                      "--h", 20], "DegenerateGrid", id="value"),
        pytest.param(["conjecture", "--ns", "2,16"], "BadN", id="conjecture"),
        # the dp surface, marched and resampled, leaves one mollified time
        pytest.param(["mollify-check", "--source", "dp", "--family", "rademacher", "--phi",
                      "abs", "--n", 4, "--eps", 0.975], "DomainTooSmall", id="mollify-check"),
        # 17 time steps, eps^2 spans 16.2 of them: one mollified time
        pytest.param(["mollify-check", "--phi", "abs", "--eps", 0.975], "DomainTooSmall",
                     id="mollify-check-wide"),
        pytest.param(["mollify-check", "--phi", "abs", "--eps", 0.99], "DomainTooSmall",
                     id="mollify-check-widest"),
        # refused before any array is built: tau = h^2 underflows to 0, 1/tau
        # overflows, or sigma_bar^2 underflows
        pytest.param(["value", "--sigma-under", 1, "--sigma-bar", 1, "--phi", "abs",
                      "--h", 1e-200], "SchemeInvalid", id="value-tau-zero"),
        pytest.param(["value", "--sigma-under", 0.5, "--sigma-bar", 1, "--phi", "abs",
                      "--h", 1e-160], "SchemeInvalid", id="value-tau-subnormal"),
        pytest.param(["regularity", "--source", "pde", "--phi", "abs", "--sigma-under", 0,
                      "--sigma-bar", 1e-200, "--h", 0.01], "SchemeInvalid",
                     id="regularity-sigma-bar-tiny"),
        # tau = 2500 at h: h/2 is one time step, whose gap bounds no error
        pytest.param(["value", "--sigma-under", 0, "--sigma-bar", 0.01, "--phi", "abs",
                      "--h", 0.5], "SchemeInvalid", id="value-one-step-half-level"),
    ],
)
def test_refused_run_leaves_no_artifact(tmp_path, capsys, args, code):
    out = tmp_path / "new" / "o"
    assert run_cli([*args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR {code}: ") and "\n" not in err.strip()
    assert not (tmp_path / "new").exists()  # nor the directories made for it
    # a directory that was there keeps what the run did not write
    out.mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    assert run_cli([*args, "--out", out]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


@pytest.mark.parametrize(
    "out, reason",
    [("a-file", "File exists"), ("a-file/sub/o", "Not a directory")],
    ids=["names-a-file", "under-a-file"],
)
def test_unwritable_out_is_one_error_line(tmp_path, capsys, out, reason):
    (tmp_path / "a-file").touch()
    rc = run_cli(["recurse", "--family", "rademacher", "--phi", "abs", "--n", 4,
                  "--out", tmp_path / out])
    assert rc == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR OutputUnwritable: ")
    assert lines[0].endswith(reason) and captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["a-file"]
    assert (tmp_path / "a-file").read_bytes() == b""


def spoil_level(field, bad):
    field.values[5] = field.values[5].copy()
    field.values[5][3] = bad
    return field


def spoil_surface(surface, bad):
    surface.values[0, 3] = bad
    return surface


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "args, maker, spoil",
    [
        pytest.param(["regularity", "--family", "rademacher", "--phi", "abs", "--n", 16,
                      "--slack", 0], "solve_recursion", spoil_level, id="regularity"),
        pytest.param(["mollify-check", "--phi", "abs", "--eps", 0.3],
                     "surface_from_function", spoil_surface, id="mollify-check"),
    ],
)
def test_non_finite_audit_input_is_refused(tmp_path, capsys, monkeypatch, bad, args, maker, spoil):
    # a NaN pair would drop out of the audits' max with 0 and pass them
    make = getattr(cli_module, maker)
    monkeypatch.setattr(cli_module, maker, lambda *a, **k: spoil(make(*a, **k), bad))
    out = tmp_path / "new" / "o"
    assert run_cli([*args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR NonFiniteValues: ") and "\n" not in err.strip()
    assert "holds a NaN or an infinity" in err
    assert not (tmp_path / "new").exists()


VALUE = ["value", "--sigma-under", 1, "--sigma-bar", 1, "--phi", "abs"]
RECURSE = ["recurse", "--family", "rademacher", "--phi", "abs"]
PDE = ["regularity", "--source", "pde", "--phi", "abs", "--sigma-under", 1, "--sigma-bar", 1]
MOLLIFY = ["mollify-check", "--phi", "abs"]
MOLLIFY_DP = [*MOLLIFY, "--source", "dp", "--family", "rademacher", "--eps", "0.2"]


RATES = ["rates", "--family", "rademacher", "--phi", "abs"]
DP = ["regularity", "--family", "rademacher_pair", "--phi", "abs", "--n", 32, "--slack", 0]


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param([*VALUE, "--h", 0], "h must ", id="value_h"),
        pytest.param(["recurse", "--family", GRID_FAMILY, "--phi", "abs", "--n", 0], "n must ",
                     id="recurse_grid_n"),
        pytest.param([*PDE, "--h", 0], "h must ", id="regularity_pde_h"),
        pytest.param([*MOLLIFY, "--eps", "0"], "eps must ", id="mollify_eps_zero"),
        pytest.param([*MOLLIFY, "--eps", "-0.1"], "eps must ", id="mollify_eps_negative"),
        pytest.param([*MOLLIFY, "--eps", "0.2,1"], "eps must ", id="mollify_eps_one"),
        pytest.param([*MOLLIFY_DP, "--n", 0], "n must ", id="mollify_dp_n"),
        pytest.param([*RATES, "--ns", "4,16", "--ref-h", 0], "ref_h must ", id="rates_ref_h"),
        pytest.param(["conjecture", "--ns", "0,16"], "ns must ", id="conjecture_ns_zero"),
        pytest.param([*RATES, "--ns", "4,16,4"], "ns must ", id="rates_ns_repeated"),
        pytest.param(["conjecture", "--ns", "16,16,64"], "ns must ",
                     id="conjecture_ns_repeated"),
        pytest.param([*MOLLIFY, "--eps", "0.2,0.2"], "eps must ", id="mollify_eps_repeated"),
        pytest.param([*MOLLIFY, "--eps", "0.2,nan"], "eps must ", id="mollify_eps_nan"),
        pytest.param([*VALUE, "--h", "inf"], "h must ", id="value_h_inf"),
        pytest.param([*RATES, "--ns", "4,16", "--ref-h", "inf"], "ref_h must ",
                     id="rates_ref_h_inf"),
        pytest.param([*PDE, "--h", "inf"], "h must ", id="regularity_pde_h_inf"),
        pytest.param([*DP[:-1], "inf"], "slack must be finite", id="regularity_slack_inf"),
        pytest.param([*DP[:-1], "nan"], "slack must be finite", id="regularity_slack_nan"),
        pytest.param([*DP[:-1], "-1"], "slack must be finite", id="regularity_slack_negative"),
        pytest.param([*PDE, "--slack", "-0.5"], "slack must be finite",
                     id="regularity_pde_slack_negative"),
        # a key the command needs
        pytest.param(RECURSE, "recurse needs n", id="recurse_no_n"),
        pytest.param(RATES, "rates needs ns", id="rates_no_ns"),
        pytest.param(["rates", "--family", "rademacher", "--ns", "4,16"], "rates needs phi",
                     id="rates_no_phi"),
        pytest.param(MOLLIFY, "mollify-check (function) needs eps", id="mollify_no_eps"),
        pytest.param(["value", "--sigma-under", 1, "--phi", "abs"], "value needs sigma_bar",
                     id="value_no_sigma_bar"),
        pytest.param(DP[:5], "regularity (dp) needs n", id="regularity_dp_no_n"),
        # a key the command (or its source, the resolved mode or reference) does not read
        pytest.param([*DP, "--h", 0.3], "regularity (dp) does not read h",
                     id="regularity_dp_h"),
        pytest.param([*PDE, "--family", "rademacher_pair"],
                     "regularity (pde) does not read family", id="regularity_pde_family"),
        pytest.param([*PDE, "--n", 7], "regularity (pde) does not read n",
                     id="regularity_pde_n"),
        pytest.param([*MOLLIFY, "--eps", "0.2", "--family", "rademacher"],
                     "mollify-check (function) does not read family",
                     id="mollify_function_family"),
        pytest.param([*MOLLIFY, "--eps", "0.2", "--n", 8],
                     "mollify-check (function) does not read n", id="mollify_function_n"),
        # equal bounds and convex data: the reference is analytic, no scheme is marched
        pytest.param([*RATES, "--ns", "4,16,64", "--ref-h", 0.01],
                     "rates (analytic reference) does not read ref_h", id="rates_analytic_ref_h"),
        pytest.param([*VALUE, "--family", "rademacher"], "unrecognized arguments: --family",
                     id="value_family"),
        pytest.param([*RATES, "--ns", "4,16,64", "--strict-reference"],
                     "unrecognized arguments: --strict-reference", id="rates_strict_reference"),
        # retired settings: the recursion mode follows the family, value keeps
        # its 8 sigma_bar grid, mollify-check samples [-2, 2] at surface slack 0
        pytest.param([*VALUE, "--half-width", -1], "unrecognized arguments: --half-width -1",
                     id="value_half_width"),
        pytest.param([*RECURSE, "--n", 4, "--half-width", 0],
                     "unrecognized arguments: --half-width 0", id="recurse_half_width"),
        pytest.param([*RECURSE, "--n", 4, "--mode", "lattice", "--half-width", 9],
                     "unrecognized arguments: --mode lattice --half-width 9",
                     id="recurse_lattice_half_width"),
        pytest.param([*DP, "--mode", "lattice"], "unrecognized arguments: --mode lattice",
                     id="regularity_dp_mode"),
        pytest.param([*PDE, "--mode", "grid"], "unrecognized arguments: --mode grid",
                     id="regularity_pde_mode"),
        pytest.param([*MOLLIFY, "--eps", "0.2", "--half-width", 0],
                     "unrecognized arguments: --half-width 0", id="mollify_half_width"),
        pytest.param([*MOLLIFY, "--eps", "0.2", "--a", -1], "unrecognized arguments: --a -1",
                     id="mollify_a_negative"),
        pytest.param([*MOLLIFY_DP, "--n", 8, "--a", 5], "unrecognized arguments: --a 5",
                     id="mollify_dp_a"),
        # a prefix of a flag is no flag: --h on rates or recurse would print the
        # --help text and exit 0, and --sigma-b would set sigma_bar
        pytest.param([*RATES, "--ns", "4,16,64", "--h", 0.1], "unrecognized arguments: --h 0.1",
                     id="rates_h_prefix"),
        pytest.param([*VALUE, "--sigma-b", 2], "unrecognized arguments: --sigma-b 2",
                     id="value_sigma_b_prefix"),
        pytest.param([*RECURSE, "--n", 4, "--h", 0.1], "unrecognized arguments: --h 0.1",
                     id="recurse_lattice_h"),
        # a malformed or inconsistent value
        pytest.param([*VALUE, "--beta", 0.3], "bad phi: abs does not take beta",
                     id="phi_abs_beta"),
        pytest.param([*VALUE[:-1], '{"phi": "abs", "beta": 1}'],
                     "bad phi: abs does not take beta", id="phi_json_abs_beta"),
        pytest.param([*VALUE[:-1], '{"phi": "abs_pow", "beta": 0.5}', "--beta", 0.5],
                     "beta goes inside the phi JSON", id="phi_json_and_beta"),
        pytest.param(["mollify-check", "--beta", 0.5, "--eps", "0.2"],
                     "beta needs a --phi kind", id="beta_without_phi"),
        pytest.param([*VALUE[:-1], "foo"], "bad phi: unknown payoff kind 'foo'",
                     id="phi_unknown_kind"),
        pytest.param(["rates", "--family", "gauss", "--phi", "abs", "--ns", "4,16"],
                     "unknown family 'gauss'", id="family_unknown_builtin"),
        pytest.param(["rates", "--family", '{"members": []}', "--phi", "abs",
                      "--ns", "4,16"], "bad family: ", id="family_empty_inline"),
        # the rate exponent comes from the payoff: a family takes only members
        pytest.param(["rates", "--family", '{"beta": 1, "members": [{"support": [-1, 0, 1], '
                      '"probs": [0.25, 0.5, 0.25]}]}', "--phi", "abs", "--ns", "4,16"],
                     "bad family: family config takes exactly the keys ['members'], "
                     "got ['beta', 'members']", id="family_inline_beta"),
        pytest.param(["value", "--sigma-under", 2, "--sigma-bar", 1, "--phi", "abs"],
                     "sigma_under and sigma_bar must ", id="value_sigma_order"),
        pytest.param([*DP[:-1], "foo"], "argument --slack: invalid float value: 'foo'",
                     id="regularity_slack_text"),
        # the audit slack is a number for both sources, never "auto"
        pytest.param([*PDE, "--slack", "auto"], "argument --slack: invalid float value: 'auto'",
                     id="regularity_pde_slack_auto"),
        pytest.param([*RECURSE, "--n", 4, "--family", "@array.json"],
                     "family must be an object or a builtin name, got [1, 2]",
                     id="family_file_array"),
        pytest.param([*RECURSE, "--n", "abc"], "argument --n: invalid int value: 'abc'",
                     id="recurse_n_text"),
        # a support whose square (1e200) or cube (1e110) overflows has no moments
        pytest.param(["recurse", "--family", '{"members": [{"support": [-1e200, 1e200], '
                      '"probs": [0.5, 0.5]}]}', "--phi", "abs", "--n", 2],
                     "bad family: support points and their cubes must be finite",
                     id="family_support_square_overflows"),
        pytest.param(["recurse", "--family", '{"members": [{"support": [-1e110, 1e110], '
                      '"probs": [0.5, 0.5]}]}', "--phi", "abs", "--n", 2],
                     "bad family: support points and their cubes must be finite",
                     id="family_support_cube_overflows"),
        # a JSON number is no boolean and no string, as for the config's own keys
        pytest.param([*VALUE[:-1], '{"phi": "abs_pow", "beta": true}'],
                     "bad phi: beta must be a number or numbers, got True", id="phi_beta_bool"),
        pytest.param([*VALUE[:-1], '{"phi": "abs_pow", "beta": "0.5"}'],
                     "bad phi: beta must be a number or numbers, got '0.5'",
                     id="phi_beta_string"),
        pytest.param([*RECURSE[:2], '{"members": [{"support": ["-1", true], '
                      '"probs": [0.5, 0.5]}]}', "--phi", "abs", "--n", 2],
                     "bad family: support must be a number or numbers, got ['-1', True]",
                     id="family_support_string_and_bool"),
    ],
)
def test_out_of_range_setting_exits_one_naming_it(tmp_path, monkeypatch, capsys, args, message):
    # zero is refused, not replaced by the default
    monkeypatch.chdir(tmp_path)
    Path("array.json").write_text("[1, 2]")  # a family file holding no object
    rc = run_cli([*args, "--out", tmp_path / "o"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR ConfigInvalid: {message}")
    assert "\n" not in err.strip()
    assert not (tmp_path / "o").exists()  # refused before any artifact


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for command in ("value", "recurse", "rates", "conjecture", "regularity", "mollify-check"):
        assert main([command, "--help"]) == 0
    assert "usage: cltlab" in capsys.readouterr().out


def readme_commands() -> list[list[str]]:
    """The ``cltlab ...`` example commands of the README's command-line section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line.split("#")[0] for line in lines if line.startswith("cltlab ")]
    return [shlex.split(line)[1:] for line in commands]


def _integral_floats_as_ints(value):
    """A JSON value with each float that is a whole number written as an int."""
    if isinstance(value, dict):
        return {k: _integral_floats_as_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integral_floats_as_ints(v) for v in value]
    return int(value) if isinstance(value, float) and value.is_integer() else value


@pytest.mark.parametrize("args", readme_commands(), ids=lambda args: "-".join(args[:3]))
def test_readme_command_replays_from_its_config(tmp_path, capsys, args):
    # a run is reproducible from its artifact directory alone, also when its
    # config is written by hand with 1 for 1.0
    rc = main([*args, "--out", str(tmp_path / "a")])
    assert rc in (0, 2)
    data = json.loads((tmp_path / "a" / "config.json").read_text())
    data["out_dir"] = str(tmp_path / "b")
    assert run(RunConfig.from_dict(_integral_floats_as_ints(data))) == rc
    names = [p.name for p in (tmp_path / "a").glob("*.csv")] + ["summary.json"]
    for name in [*names, "config.json"]:
        a, b = ((tmp_path / d / name).read_text() for d in "ab")
        if name == "config.json":
            a = a.replace(json.dumps(str(tmp_path / "a")), json.dumps(str(tmp_path / "b")))
        assert a == b


def test_hand_written_integer_replays_to_the_flags_config(tmp_path):
    assert main(["value", "--sigma-under", "1", "--sigma-bar", "1", "--phi", "abs",
                 "--out", str(tmp_path / "a")]) == 0
    data = {"command": "value", "out_dir": str(tmp_path / "b"), "phi": {"phi": "abs"},
            "sigma_under": 1, "sigma_bar": 1}
    assert run(RunConfig.from_dict(data)) == 0
    a, b = (json.loads((tmp_path / d / "config.json").read_text()) for d in "ab")
    assert a.pop("out_dir") != b.pop("out_dir")
    assert json.dumps(a) == json.dumps(b)


def test_replayed_config_is_checked_like_the_command_line(tmp_path):
    cfg = RunConfig(command="value", out_dir=str(tmp_path / "v"), phi={"phi": "abs"},
                    sigma_under=1.0, sigma_bar=1.0, n=8)
    with pytest.raises(ConfigInvalidError, match="value does not read n"):
        run(cfg)
    cfg = RunConfig(command="regularity", out_dir=str(tmp_path / "v"), source="mc")
    with pytest.raises(ConfigInvalidError, match="regularity has no source 'mc'"):
        run(cfg)
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("h", math.inf, "h must be positive and finite"),
        ("slack", -1.0, "slack must be finite and non-negative"),
        ("slack", math.nan, "slack must be finite and non-negative"),
        ("slack", math.inf, "slack must be finite and non-negative"),
    ],
)
def test_replayed_non_finite_setting_is_refused(tmp_path, key, value, message):
    data = {"command": "regularity", "out_dir": str(tmp_path / "v"), "source": "pde",
            "phi": {"phi": "abs"}, "sigma_under": 1.0, "sigma_bar": 1.0, key: value}
    cfg = RunConfig.from_dict(json.loads(json.dumps(data)))  # JSON spells Infinity, NaN
    with pytest.raises(ConfigInvalidError, match=message):
        run(cfg)
    assert not (tmp_path / "v").exists()


def test_replayed_auto_slack_is_refused(tmp_path):
    # configs recorded before the audit slack became a plain number hold "auto"
    data = {"command": "regularity", "out_dir": str(tmp_path / "v"), "source": "pde",
            "phi": {"phi": "abs"}, "sigma_under": 1.0, "sigma_bar": 1.0, "slack": "auto"}
    with pytest.raises(ConfigInvalidError, match="config key 'slack' must be float, got 'auto'"):
        run(RunConfig.from_dict(data))
    assert not (tmp_path / "v").exists()


class TestConjectureCommand:
    def test_table(self, tmp_path):
        rc = run_cli(["conjecture", "--ns", "16,64", "--out", tmp_path / "c"])
        assert rc == 0
        rows = (tmp_path / "c" / "conjecture.csv").read_text().splitlines()
        assert rows[0] == "n,scaled_vn_continuous,scaled_vn_discrete"
        assert rows[1].startswith(f"16,{2.0 / math.sqrt(math.pi)!r},")

    def test_summary_reports_windows_and_approach_rate(self, tmp_path):
        rc = run_cli(["conjecture", "--ns", "16,64,1024,4096", "--out", tmp_path / "c"])
        assert rc == 0
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        windows = summary["window"]
        assert [w["n"] for w in windows] == [16, 64, 1024, 4096]
        assert all(w["cone"] == w["n"] for w in windows)  # reach 1
        assert windows[0] == {"n": 16, "method": "law", "J": 16, "cone": 16, "bound": 0.0}
        assert summary["mode"] == "lattice"
        assert windows[-1]["J"] < 4096 and 0.0 < windows[-1]["bound"] <= 1e-16
        rates = summary["approach_rate"]
        assert [r["n"] for r in rates] == [[64, 1024], [1024, 4096]]
        assert all(isinstance(r["rate"], float) for r in rates)


class TestOutputDir:
    def test_lock_is_exclusive(self, tmp_path):
        with OutputDir(tmp_path / "o", "rates"):
            with pytest.raises(LockHeldError):
                with OutputDir(tmp_path / "o", "rates"):
                    pass
        # released on exit
        with OutputDir(tmp_path / "o", "rates"):
            pass

    def test_dead_owners_lock_is_reclaimed(self, tmp_path):
        # a SIGKILLed run leaves its lock behind; its pid names no process
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        lock = tmp_path / "o" / ".lock"
        lock.parent.mkdir()
        lock.write_text(str(child.pid))
        with OutputDir(tmp_path / "o", "rates"):
            assert lock.read_text() == str(os.getpid())
        assert not lock.exists()

    @pytest.mark.parametrize("content", ["own pid", "", "garbage", "0", "-2147483647"])
    def test_live_empty_or_unreadable_lock_is_kept(self, tmp_path, content):
        lock = tmp_path / "o" / ".lock"
        lock.parent.mkdir()
        lock.write_text(str(os.getpid()) if content == "own pid" else content)
        with pytest.raises(LockHeldError):
            with OutputDir(tmp_path / "o", "rates"):
                pass
        assert lock.exists()

    def test_unwritable_lock_removes_the_directories_made(self, tmp_path, monkeypatch):
        def refuse(path, flags, mode=0o777):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(os, "open", refuse)
        with pytest.raises(OutputUnwritableError, match="Permission denied"):
            with OutputDir(tmp_path / "new" / "o", "rates"):
                pass
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: write_csv(p, ("a",), [(2.0,)]),
            lambda p: write_json(p, {"a": 2.0}),
            lambda p: svg_loglog(p, [1.0, 2.0], [1.0, 0.5]),
        ],
        ids=["csv", "json", "svg"],
    )
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, write):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous\n")

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            write(path)
        assert path.read_bytes() == b"previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_csv_quoting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [("x,y", 0.5), ('he"llo', True)])
        text = path.read_text()
        assert '"x,y"' in text
        assert '"he""llo"' in text
        assert text.endswith("\n")
        assert "\r" not in text
        assert path.read_bytes() == b'a,b\n"x,y",0.5\n"he""llo",true\n'
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]  # no temp file left
