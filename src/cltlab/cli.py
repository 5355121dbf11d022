"""Command-line front door: batch experiments with reproducible artifacts.

Subcommands: value, recurse, rates, conjecture, regularity, mollify-check.
Every run resolves its configuration, writes it as ``config.json`` next to
the outputs together with a schema-versioned manifest, and emits CSV (plus
optional SVG). Exit codes: 0 success, 1 error (with a single machine-parsable
``ERROR <Code>: ...`` line on stderr), 2 verdict failure. Identical resolved
configurations produce byte-identical CSV files.

The default output root is ``./cltlab-out`` or the ``CLTLAB_OUT`` environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import LabError
from .families import Family, builtin_family, family_from_config, family_to_config
from .fields import GridSpec
from .gheat import GHeatProblem, SchemeSpec, default_spec, richardson_value, solve_gheat
from .output import OutputDir, svg_loglog, write_csv, write_json
from .payoffs import payoff_from_config
from .rates import conjecture_experiment, error_curve
from .recursion import solve_recursion
from .smoothing import (
    regularity_audit,
    surface_from_field,
    surface_from_function,
    verify_smoothing_bounds,
)


class ConfigInvalidError(LabError, ValueError):
    """Configuration did not validate."""


@dataclass
class RunConfig:
    """Resolved run configuration; round-trips losslessly through JSON."""

    command: str
    out_dir: str
    family: dict | str | None = None
    phi: dict | None = None
    ns: list[int] | None = None
    n: int | None = None
    mode: str | None = None
    h: float | None = None
    half_width: float | None = None
    sigma_under: float | None = None
    sigma_bar: float | None = None
    eps: list[float] | None = None
    a: float = 0.0
    slack: float | str | None = None
    source: str | None = None
    ref_h: float | None = None
    exponent_rule: str = "auto"
    strict_reference: bool = False
    seed: int = 0
    emit_svg: bool = False
    emit_field: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
        if "command" not in data or "out_dir" not in data:
            raise ConfigInvalidError("config needs 'command' and 'out_dir'")
        return cls(**data)


def _resolve_family(spec) -> Family:
    if spec is None:
        raise ConfigInvalidError("a family is required")
    if isinstance(spec, dict):
        try:
            return family_from_config(spec)
        except (LabError, ValueError) as exc:
            raise ConfigInvalidError(f"bad family: {exc}") from exc
    try:
        return builtin_family(spec)
    except ValueError as exc:
        raise ConfigInvalidError(str(exc)) from exc


def _resolve_payoff(cfg):
    if cfg is None:
        raise ConfigInvalidError("a phi selection is required")
    try:
        return payoff_from_config(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigInvalidError(f"bad phi: {exc}") from exc


def _parse_family_arg(text: str):
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalidError(f"family JSON does not parse: {exc}") from exc
    if text.startswith("@"):
        try:
            return json.loads(Path(text[1:]).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalidError(f"family file {text[1:]}: {exc}") from exc
    return text


def _parse_phi_arg(text: str, beta):
    if text.startswith("{"):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigInvalidError(f"phi JSON does not parse: {exc}") from exc
        if "phi" not in cfg:
            raise ConfigInvalidError('phi JSON needs a "phi" key')
        return cfg
    cfg = {"phi": text}
    if beta is not None:
        cfg["beta"] = beta
    return cfg


# ----------------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------------


def _run_value(cfg: RunConfig, out: OutputDir) -> int:
    payoff = _resolve_payoff(cfg.phi)
    if cfg.sigma_under is None or cfg.sigma_bar is None:
        raise ConfigInvalidError("value needs sigma_under and sigma_bar")
    prob = GHeatProblem(cfg.sigma_under, cfg.sigma_bar, payoff)
    spec = default_spec(prob, h=cfg.h or 1.0 / 400.0)
    if cfg.half_width is not None:
        spec = SchemeSpec(spec.h, spec.tau, cfg.half_width)
    value, err = richardson_value(prob, spec)
    print(f"value {value!r} error_estimate {err!r}")
    write_json(
        out.path("summary.json"),
        {"value": value, "error_estimate": err, "h": spec.h, "half_width": spec.half_width},
    )
    if cfg.emit_field:
        field = solve_gheat(prob, spec)
        rows = [
            (float(t), float(x), float(v))
            for t, xs, vs in zip(field.times, field.xs, field.values)
            for x, v in zip(xs, vs)
        ]
        write_csv(out.path("field.csv"), ("t", "x", "v"), rows)
    return 0


def _run_recurse(cfg: RunConfig, out: OutputDir) -> int:
    family = _resolve_family(cfg.family)
    payoff = _resolve_payoff(cfg.phi)
    if cfg.n is None:
        raise ConfigInvalidError("recurse needs n")
    grid = None
    if cfg.mode == "grid" or (cfg.mode is None and family.lattice_step is None):
        h = cfg.h or 1.0 / cfg.n
        hw = cfg.half_width or max(8.0 * family.sigma_bar, 1.0)
        grid = GridSpec(step=h, half_width=hw)
    field = solve_recursion(family, payoff, cfg.n, mode=cfg.mode, grid=grid)
    rows = [
        (k, float(x), float(v))
        for k, (xs, vs) in enumerate(zip(field.xs, field.values))
        for x, v in zip(xs, vs)
    ]
    write_csv(out.path("recursion.csv"), ("k", "x", "value"), rows)
    origin = field.origin_value()
    print(f"origin_value {origin!r}")
    write_json(out.path("summary.json"), {"n": cfg.n, "origin_value": origin})
    return 0


def _run_rates(cfg: RunConfig, out: OutputDir) -> int:
    family = _resolve_family(cfg.family)
    payoff = _resolve_payoff(cfg.phi)
    if not cfg.ns:
        raise ConfigInvalidError("rates needs ns")
    ref_spec = None
    if cfg.ref_h is not None:
        prob = GHeatProblem(family.sigma_under, family.sigma_bar, payoff)
        ref_spec = default_spec(prob, h=cfg.ref_h)
    report = error_curve(
        family,
        payoff,
        cfg.ns,
        ref_spec=ref_spec,
        exponent_rule=cfg.exponent_rule,
        strict_reference=cfg.strict_reference,
    )
    write_csv(
        out.path("rates.csv"),
        ("n", "vn", "vref", "vref_err", "err"),
        [(r.n, r.vn, r.vref, r.vref_err, r.err) for r in report.rows],
    )
    write_json(
        out.path("summary.json"),
        {
            "family": report.family_id,
            "phi": report.payoff_id,
            "exponent": report.exponent,
            "slope": report.slope,
            "intercept": report.intercept,
            "residual": report.residual,
            "reference": report.reference,
            "reference_limited": report.reference_limited,
            "verdict": report.verdict,
        },
    )
    if cfg.emit_svg:
        svg_loglog(
            out.path("rates.svg"),
            [r.n for r in report.rows],
            [r.err for r in report.rows],
            slope=report.slope,
            intercept=report.intercept,
            title=f"error vs n (exponent {report.exponent:g})",
        )
    print(
        f"slope {report.slope!r} residual {report.residual!r} "
        f"exponent {report.exponent!r} verdict {report.verdict}"
    )
    return 0 if report.verdict in ("pass", "degenerate") else 2


def _run_conjecture(cfg: RunConfig, out: OutputDir) -> int:
    if not cfg.ns:
        raise ConfigInvalidError("conjecture needs ns")
    report = conjecture_experiment(cfg.ns)
    write_csv(
        out.path("conjecture.csv"),
        ("n", "scaled_vn_continuous", "scaled_vn_discrete"),
        [(r.n, r.scaled_continuous, r.scaled_discrete) for r in report.rows],
    )
    write_json(
        out.path("summary.json"),
        {
            "target_continuous": report.target,
            "note": (
                "the discrete column is reported as data; its limit is "
                "conjectural and is not asserted here"
            ),
        },
    )
    for r in report.rows:
        print(f"n {r.n} continuous {r.scaled_continuous!r} discrete {r.scaled_discrete!r}")
    return 0


def _run_regularity(cfg: RunConfig, out: OutputDir) -> int:
    payoff = _resolve_payoff(cfg.phi)
    source = cfg.source or "dp"
    if source == "dp":
        family = _resolve_family(cfg.family)
        if cfg.n is None:
            raise ConfigInvalidError("regularity (dp) needs n")
        field = solve_recursion(family, payoff, cfg.n, mode=cfg.mode)
        sigma_bar = family.sigma_bar
        slack = 0.0 if cfg.slack in (None, "auto") else float(cfg.slack)
    elif source == "pde":
        if cfg.sigma_under is None or cfg.sigma_bar is None:
            raise ConfigInvalidError("regularity (pde) needs sigma bounds")
        prob = GHeatProblem(cfg.sigma_under, cfg.sigma_bar, payoff)
        spec = default_spec(prob, h=cfg.h or 1.0 / 100.0)
        field = solve_gheat(prob, spec)
        sigma_bar = cfg.sigma_bar
        if cfg.slack in (None, "auto"):
            _, err = richardson_value(prob, spec)
            slack = 2.0 * err
        else:
            slack = float(cfg.slack)
    else:
        raise ConfigInvalidError(f"unknown regularity source {source!r}")
    report = regularity_audit(field, payoff.beta, sigma_bar, slack)
    write_csv(
        out.path("regularity.csv"),
        ("check", "excess", "slack", "pass"),
        [
            ("spatial", report.spatial_excess, slack, report.spatial_excess <= slack + 1e-12),
            ("temporal", report.temporal_excess, slack, report.temporal_excess <= slack + 1e-12),
        ],
    )
    write_json(
        out.path("summary.json"),
        {
            "spatial_excess": report.spatial_excess,
            "temporal_excess": report.temporal_excess,
            "slack": slack,
            "levels_checked": report.levels_checked,
            "points_checked": report.points_checked,
            "passed": report.passed,
        },
    )
    print(
        f"spatial_excess {report.spatial_excess!r} temporal_excess "
        f"{report.temporal_excess!r} passed {report.passed}"
    )
    return 0 if report.passed else 2


def _run_mollify_check(cfg: RunConfig, out: OutputDir) -> int:
    if not cfg.eps:
        raise ConfigInvalidError("mollify-check needs eps")
    eps_list = sorted(cfg.eps, reverse=True)
    min_eps = min(eps_list)
    dt = min_eps * min_eps / 16.0
    dx = min_eps / 16.0
    if cfg.source == "dp":
        family = _resolve_family(cfg.family)
        payoff = _resolve_payoff(cfg.phi)
        if cfg.n is None:
            raise ConfigInvalidError("mollify-check (dp) needs n")
        hw = cfg.half_width or 2.0
        grid = GridSpec(step=min(dx, 1.0 / cfg.n), half_width=max(8.0 * family.sigma_bar, hw))
        field = solve_recursion(family, payoff, cfg.n, mode="grid", grid=grid)
        a = float(cfg.n) ** (-payoff.beta / 2.0)
        surface = surface_from_field(
            field, x_half_width=hw, dt=dt, dx=dx, beta=payoff.beta, slack=a
        )
    else:
        payoff = _resolve_payoff(cfg.phi or {"phi": "abs"})
        hw = cfg.half_width or 2.0
        surface = surface_from_function(
            lambda t, x: payoff(x) + 0.0 * t,
            x_half_width=hw,
            dt=dt,
            dx=dx,
            beta=payoff.beta,
            slack=cfg.a,
        )
    report = verify_smoothing_bounds(surface, eps_list)
    write_csv(
        out.path("mollify.csv"),
        ("eps", "bound", "observed", "pass"),
        [(r.eps, r.sup_bound, r.sup_gap, r.sup_ok) for r in report.rows],
    )
    write_json(
        out.path("summary.json"),
        {
            "sup_ok": report.sup_ok,
            "derivative_scaling_ok": report.derivative_scaling_ok,
            "temporal_scaling_ok": report.temporal_scaling_ok,
            "spatial_scaling_ok": report.spatial_scaling_ok,
            "scaled_derivatives": [r.scaled_derivatives for r in report.rows],
            "passed": report.passed,
        },
    )
    print(f"sup_ok {report.sup_ok} scaling_ok {report.derivative_scaling_ok} passed {report.passed}")
    return 0 if report.passed else 2


_HANDLERS = {
    "value": _run_value,
    "recurse": _run_recurse,
    "rates": _run_rates,
    "conjecture": _run_conjecture,
    "regularity": _run_regularity,
    "mollify-check": _run_mollify_check,
}


def run(cfg: RunConfig) -> int:
    """Dispatch a resolved configuration; returns the process exit code."""
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise ConfigInvalidError(f"unknown command {cfg.command!r}")
    with OutputDir(cfg.out_dir, cfg.command) as out:
        resolved = cfg.to_dict()
        if isinstance(cfg.family, dict):
            resolved["family"] = family_to_config(_resolve_family(cfg.family))
        write_json(out.path("config.json"), resolved)
        return handler(cfg, out)


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


def _default_out(command: str) -> str:
    root = os.environ.get("CLTLAB_OUT", "cltlab-out")
    return os.path.join(root, command)


def _add_common(p, *, family=False, phi=False):
    p.add_argument("--out", help="output directory (default CLTLAB_OUT/<command>)")
    if family:
        p.add_argument("--family", help="builtin name, inline JSON, or @file.json")
    if phi:
        p.add_argument("--phi", help="payoff kind or inline JSON")
        p.add_argument("--beta", type=float, help="payoff exponent (abs_pow)")


def _ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _floats(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cltlab",
        description="Batch experiments for central limit behaviour under "
        "volatility uncertainty; outputs are deterministic CSV/SVG artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="continuous value at the origin with error bar")
    _add_common(p, phi=True)
    p.add_argument("--sigma-under", type=float, required=True)
    p.add_argument("--sigma-bar", type=float, required=True)
    p.add_argument("--h", type=float, help="spatial step (default 1/400)")
    p.add_argument("--half-width", type=float)
    p.add_argument("--emit-field", action="store_true", help="write full-field CSV")

    p = sub.add_parser("recurse", help="backward recursion field and origin value")
    _add_common(p, family=True, phi=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("lattice", "grid"))
    p.add_argument("--h", type=float)
    p.add_argument("--half-width", type=float)

    p = sub.add_parser("rates", help="error curve, log-log slope and verdict")
    _add_common(p, family=True, phi=True)
    p.add_argument("--ns", type=_ints, required=True, help="comma-separated depths")
    p.add_argument("--ref-h", type=float, help="reference scheme step")
    p.add_argument("--exponent-rule", choices=("auto", "basic"), default="auto")
    p.add_argument("--strict-reference", action="store_true")
    p.add_argument("--emit-svg", action="store_true")

    p = sub.add_parser("conjecture", help="scaled sharpness-family table")
    _add_common(p)
    p.add_argument("--ns", type=_ints, required=True)

    p = sub.add_parser("regularity", help="Holder audits of a solved field")
    _add_common(p, family=True, phi=True)
    p.add_argument("--source", choices=("dp", "pde"), default="dp")
    p.add_argument("--n", type=int)
    p.add_argument("--mode", choices=("lattice", "grid"))
    p.add_argument("--sigma-under", type=float)
    p.add_argument("--sigma-bar", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--slack", default="auto", help='numeric slack or "auto"')

    p = sub.add_parser("mollify-check", help="mollification bound verification")
    _add_common(p, family=True, phi=True)
    p.add_argument("--eps", type=_floats, required=True, help="comma-separated widths")
    p.add_argument("--a", type=float, default=0.0, help="temporal slack of the surface")
    p.add_argument("--source", choices=("function", "dp"), default="function")
    p.add_argument("--n", type=int)
    p.add_argument("--half-width", type=float)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, out_dir=args.out or _default_out(args.command))
    if getattr(args, "family", None) is not None:
        cfg.family = _parse_family_arg(args.family)
    if getattr(args, "phi", None) is not None:
        cfg.phi = _parse_phi_arg(args.phi, getattr(args, "beta", None))
    for f in dataclasses.fields(RunConfig):
        if f.name in ("command", "out_dir", "family", "phi"):
            continue  # set above
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for verdict failures
        return 0 if exc.code in (0, None) else 1
    try:
        return run(config_from_args(args))
    except LabError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR ConfigInvalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
