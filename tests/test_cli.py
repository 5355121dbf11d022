import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cltlab
from cltlab.cli import ConfigInvalidError, RunConfig, build_parser, main, run
from cltlab.output import LockHeldError, OutputDir, write_csv


def run_cli(args):
    return main([str(a) for a in args])


def test_cli_import_loads_no_fft_or_signal_module():
    # the mollifier imports scipy.fft on first use; starting a command must not
    code = (
        "import sys, cltlab.cli; "
        "print([m for m in ('scipy.signal', 'scipy.fft') if m in sys.modules])"
    )
    src = str(Path(cltlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


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

    def test_missing_command(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"out_dir": "x"})

    def test_non_object_phi(self, tmp_path):
        cfg = RunConfig.from_dict({
            "command": "value", "out_dir": str(tmp_path / "v"), "phi": "abs",
            "sigma_under": 1.0, "sigma_bar": 1.0,
        })
        with pytest.raises(ConfigInvalidError):
            run(cfg)

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
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["schema"] == "cltlab.run/1"
        assert "rates.csv" in manifest["files"]

    def test_switching_sup_against_extrapolated_reference(self, tmp_path):
        # rademacher_pair on cosine data switches between its two laws; the
        # reference is extrapolated from h = 1/50, 1/100, 1/200 and agrees
        # with (4 v(1/800) - v(1/400)) / 3 to 1e-9
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
            {"beta": 1.0, "members": [{"support": [-1, 1], "probs": [0.5, 0.5]}]}
        )
        rc = run_cli(["rates", "--family", fam, "--phi", "abs", "--ns", "4,16,64",
                      "--out", tmp_path / "r"])
        assert rc == 0
        cfg = json.loads((tmp_path / "r" / "config.json").read_text())
        assert cfg["family"]["members"][0]["support"] == [-1.0, 1.0]

    def test_family_from_file(self, tmp_path):
        fam_path = tmp_path / "family.json"
        fam_path.write_text(
            json.dumps({"beta": 1.0, "members": [
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
        rc = run_cli(["value", "--sigma-under", 0, "--sigma-bar", 0, "--phi", "abs",
                      "--half-width", 1, "--h", 0.5, "--emit-field",
                      "--out", tmp_path / "v"])
        assert rc == 0
        lines = (tmp_path / "v" / "field.csv").read_text().splitlines()
        assert lines[0] == "t,x,v"
        assert "0.0,0.0,0.0" in lines

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


class TestRegularity:
    def test_lattice_passes(self, tmp_path):
        rc = run_cli(["regularity", "--family", "rademacher", "--phi", "abs",
                      "--n", 8, "--slack", 0, "--out", tmp_path / "g"])
        assert rc == 0
        rows = (tmp_path / "g" / "regularity.csv").read_text().splitlines()
        assert rows[0] == "check,excess,slack,pass"
        summary = json.loads((tmp_path / "g" / "summary.json").read_text())
        # every level 0..8 and every point of its cone (2k + 1 points)
        assert summary["levels_checked"] == 9
        assert summary["points_checked"] == sum(2 * k + 1 for k in range(9))

    def test_pde_auto_slack(self, tmp_path):
        rc = run_cli(["regularity", "--source", "pde", "--phi", "abs",
                      "--sigma-under", 1, "--sigma-bar", 1, "--h", 0.02,
                      "--out", tmp_path / "g"])
        assert rc == 0


class TestMollifyCheck:
    def test_function_surface(self, tmp_path):
        rc = run_cli(["mollify-check", "--phi", "abs", "--eps", "0.2",
                      "--out", tmp_path / "m"])
        assert rc == 0
        rows = (tmp_path / "m" / "mollify.csv").read_text().splitlines()
        assert rows[0] == "eps,bound,observed,pass"
        assert rows[1].endswith(",true")


class TestConjectureCommand:
    def test_table(self, tmp_path):
        rc = run_cli(["conjecture", "--ns", "16,64", "--out", tmp_path / "c"])
        assert rc == 0
        rows = (tmp_path / "c" / "conjecture.csv").read_text().splitlines()
        assert rows[0] == "n,scaled_vn_continuous,scaled_vn_discrete"
        assert rows[1].startswith(f"16,{2.0 / math.sqrt(math.pi)!r},")


class TestOutputDir:
    def test_lock_is_exclusive(self, tmp_path):
        with OutputDir(tmp_path / "o", "rates"):
            with pytest.raises(LockHeldError):
                with OutputDir(tmp_path / "o", "rates"):
                    pass
        # released on exit
        with OutputDir(tmp_path / "o", "rates"):
            pass

    def test_csv_quoting(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [("x,y", 0.5), ('he"llo', True)])
        text = path.read_text()
        assert '"x,y"' in text
        assert '"he""llo"' in text
        assert text.endswith("\n")
        assert "\r" not in text
