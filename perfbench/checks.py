"""Output checks: a faster but wrong run counts as a failure, not a gain.

Every command of a workload has one check, keyed like the workload's
commands. A check reads the command's artifacts and returns a list of
problems (empty when correct) and the accuracy figures it measured. Frozen
expected values live in ``expected.json`` next to this file and are
regenerated by ``freeze.py``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import CONJECTURE_NS, MOLLIFY_EPS, RATES_ABS_NS, RATES_COSINE_NS

EXPECTED_PATH = Path(__file__).with_name("expected.json")
LATTICE_TOL = 1e-12  # documented envelope for lattice recursion values
SCALED_TARGET = repr(2.0 / math.sqrt(math.pi))


class CheckFailed(Exception):
    pass


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _rows(path: Path, header) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != list(header):
        raise CheckFailed(f"{path.name}: header {rows[:1]} is not {list(header)}")
    if any(len(r) != len(header) for r in rows[1:]):
        raise CheckFailed(f"{path.name}: ragged rows")
    return rows[1:]


def _column(rows, i, cast=float) -> list:
    return [cast(r[i]) for r in rows]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _within(values, frozen, label: str) -> None:
    for n, v in values:
        want = frozen[str(n)]
        _expect(abs(v - want) <= LATTICE_TOL, f"{label} at n={n}: {v!r} vs frozen {want!r}")


def _rate_rows(out: Path, ns) -> list[list[str]]:
    summary = _summary(out)
    _expect(summary["verdict"] == "pass", f"verdict {summary['verdict']!r}")
    _expect(summary["reference_limited"] is False, "reference-limited")
    rows = _rows(out / "rates.csv", ("n", "vn", "vref", "vref_err", "err"))
    _expect(_column(rows, 0, int) == list(ns), f"rates.csv ns {_column(rows, 0, int)}")
    vn, vref, err = _column(rows, 1), _column(rows, 2), _column(rows, 4)
    _expect(len(set(vref)) == 1 and len(set(_column(rows, 3))) == 1, "reference differs per n")
    _expect(err == [abs(v - vref[0]) for v in vn], "err column is not |vn - vref|")
    return rows


def check_rates_cosine(out: Path, expected: dict) -> dict:
    frozen = expected["rates-cosine"]
    rows = _rate_rows(out, RATES_COSINE_NS)
    _within(zip(RATES_COSINE_NS, _column(rows, 1)), frozen["vn"], "vn")
    ref_bar = float(rows[0][3])
    ref_err = abs(float(rows[0][2]) - frozen["reference"])
    _expect(ref_err <= ref_bar, f"reference error {ref_err!r} exceeds its bar {ref_bar!r}")
    return {"ref_bar": ref_bar, "ref_err": ref_err}


def check_rates_abs(out: Path, expected: dict) -> dict:
    frozen = expected["rates-abs"]
    rows = _rate_rows(out, RATES_ABS_NS)
    _expect(float(rows[0][2]) == math.sqrt(2.0 / math.pi), f"vref {rows[0][2]} != sqrt(2/pi)")
    _expect(float(rows[0][3]) == 0.0, f"analytic reference has bar {rows[0][3]}")
    _within(zip(RATES_ABS_NS, _column(rows, 1)), frozen["vn"], "vn")
    return {"ref_bar": 0.0, "ref_err": 0.0}


def check_conjecture(out: Path, expected: dict) -> dict:
    rows = _rows(
        out / "conjecture.csv", ("n", "scaled_vn_continuous", "scaled_vn_discrete")
    )
    _expect(_column(rows, 0, int) == list(CONJECTURE_NS), "conjecture.csv ns")
    _expect(
        all(r[1] == SCALED_TARGET for r in rows),
        f"continuous column is not {SCALED_TARGET}",
    )
    _within(zip(CONJECTURE_NS, _column(rows, 2)), expected["conjecture"]["discrete"], "discrete")
    return {}


def _passed(out: Path) -> None:
    _expect(_summary(out)["passed"] is True, "summary does not report passed: true")


def check_regularity(out: Path, expected: dict) -> dict:
    _passed(out)
    rows = _rows(out / "regularity.csv", ("check", "excess", "slack", "pass"))
    _expect([r[0] for r in rows] == ["spatial", "temporal"], "regularity.csv checks")
    numbers = _column(rows, 1) + _column(rows, 2)
    _expect(all(math.isfinite(v) for v in numbers), "regularity.csv has a non-finite number")
    _expect(all(r[3] == "true" for r in rows), "regularity.csv has a failed check")
    return {}


def _check_mollify(key: str, out: Path) -> dict:
    _passed(out)
    rows = _rows(out / "mollify.csv", ("eps", "bound", "observed", "pass"))
    _expect(_column(rows, 0) == sorted(MOLLIFY_EPS[key], reverse=True), "mollify.csv eps")
    _expect(all(o <= b for o, b in zip(_column(rows, 2), _column(rows, 1))), "gap above bound")
    _expect(all(r[3] == "true" for r in rows), "mollify.csv has a failed width")
    return {}


CHECKS = {
    "rates-cosine": check_rates_cosine,
    "conjecture": check_conjecture,
    "rates-abs": check_rates_abs,
    "regularity-dp": check_regularity,
    "regularity-pde": check_regularity,
    "mollify-function": lambda out, expected: _check_mollify("mollify-function", out),
    "mollify-dp": lambda out, expected: _check_mollify("mollify-dp", out),
}


def check_command(key: str, rc, out: Path, expected: dict) -> tuple[list[str], dict]:
    """Problems with one command run (empty if correct) and its accuracy figures."""
    if rc != 0:
        return [f"exit code {rc}"], {}
    try:
        return [], CHECKS[key](out, expected)
    except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{type(exc).__name__}: {exc}"], {}


def csv_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every CSV artifact of one command, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }
