"""Command-line front door: batch experiments with reproducible artifacts.

Subcommands: value, recurse, rates, conjecture, regularity, mollify-check.
Every run checks its configuration against the table of what its command
reads, writes it as ``config.json`` next to the outputs together with a
schema-versioned manifest, and emits CSV (plus optional SVG). Exit codes: 0
success, 1 error (with a single machine-parsable ``ERROR <Code>: ...`` line
on stderr, usage errors included), 2 verdict failure. A run that a
``LabError`` stops after its directory exists removes what it wrote.
Identical resolved configurations produce byte-identical CSV files.

The default output root is ``./cltlab-out`` or the ``CLTLAB_OUT`` environment
variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import LabError
from .families import Family, builtin_family, family_from_config, family_to_config
from .fields import GridSpec
from .gheat import GHeatProblem, SchemeSpec, default_spec, richardson_value, solve_gheat
from .output import OutputDir, svg_loglog, write_csv, write_json
from .payoffs import payoff_from_config
from .rates import analytic_reference, conjecture_experiment, error_curve
from .recursion import default_grid, resolve_mode, solve_recursion
from .smoothing import (
    FP_SLACK,
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
        for name, tp in typing.get_type_hints(cls).items():
            if name in data and not _conforms(data[name], tp):
                kind = tp.__name__ if isinstance(tp, type) else tp
                raise ConfigInvalidError(
                    f"config key {name!r} must be {kind}, got {data[name]!r}"
                )
        return cls(**data)


def _conforms(value, tp) -> bool:
    """Whether a JSON value fits a field annotation (ints count as floats)."""
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):
        return any(_conforms(value, a) for a in args)
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if isinstance(value, bool):
        return tp is bool
    if tp is float:
        return isinstance(value, (int, float))
    return isinstance(value, tp)


def _resolve_family(spec) -> Family:
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
    try:
        return payoff_from_config(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigInvalidError(f"bad phi: {exc}") from exc


def _check_reads(cfg: RunConfig, label: str, required, optional) -> None:
    """Refuse a missing required key, and a key set off its default but not read."""
    for key in required:
        if getattr(cfg, key) in (None, []):
            raise ConfigInvalidError(f"{label} needs {key}")
    for f in dataclasses.fields(cfg):
        if f.name in ("command", "out_dir", "source", *required, *optional):
            continue
        if getattr(cfg, f.name) != f.default:
            raise ConfigInvalidError(f"{label} does not read {f.name}")


def _check_ranges(cfg: RunConfig) -> None:
    """Refuse values that no command runs with.

    A zero, negative or non-finite size or step, repeated depths or widths,
    a mollifier width outside (0, 1), a negative or non-finite surface slack
    ``a``, volatility bounds out of order, a slack that is neither "auto"
    nor a finite non-negative number, and a value outside its flag's choices.
    """
    for name in ("n", "h", "half_width", "ref_h"):
        value = getattr(cfg, name)
        if value is not None and not 0 < value < math.inf:
            raise ConfigInvalidError(f"{name} must be positive and finite, got {value!r}")
    if cfg.ns and (len(set(cfg.ns)) < len(cfg.ns) or min(cfg.ns) < 1):
        raise ConfigInvalidError(f"ns must be distinct positive integers, got {cfg.ns!r}")
    eps = cfg.eps or []
    if len(set(eps)) < len(eps) or not all(0.0 < e < 1.0 for e in eps):
        raise ConfigInvalidError(f"eps must be distinct widths in (0, 1), got {eps!r}")
    if not 0.0 <= cfg.a < math.inf:
        raise ConfigInvalidError(f"a must be finite and non-negative, got {cfg.a!r}")
    su, sb = cfg.sigma_under, cfg.sigma_bar
    if None not in (su, sb) and not 0.0 <= su <= sb < math.inf:
        raise ConfigInvalidError(
            f"sigma_under and sigma_bar must satisfy 0 <= {su!r} <= {sb!r} < inf"
        )
    if cfg.slack not in (None, "auto"):
        try:
            slack = float(cfg.slack)
        except ValueError:
            msg = f'slack must be a number or "auto", got {cfg.slack!r}'
            raise ConfigInvalidError(msg) from None
        if not 0.0 <= slack < math.inf:
            msg = f"slack must be finite and non-negative, got {cfg.slack!r}"
            raise ConfigInvalidError(msg)
    for name, flag in _FLAGS.items():
        value = getattr(cfg, name)
        if "choices" in flag and value not in (None, *flag["choices"]):
            raise ConfigInvalidError(f"{name} must be one of {flag['choices']}, got {value!r}")


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
    if not text.startswith("{"):
        return {"phi": text} if beta is None else {"phi": text, "beta": beta}
    if beta is not None:
        raise ConfigInvalidError("beta goes inside the phi JSON")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"phi JSON does not parse: {exc}") from exc


# ----------------------------------------------------------------------------
# command handlers
# ----------------------------------------------------------------------------


def _run_value(cfg: RunConfig, out: OutputDir, family, payoff) -> int:
    """Continuous value at the origin with its error bar."""
    prob = GHeatProblem(cfg.sigma_under, cfg.sigma_bar, payoff)
    spec = default_spec(prob, h=1.0 / 400.0 if cfg.h is None else cfg.h)
    if cfg.half_width is not None:
        spec = SchemeSpec(spec.h, spec.tau, cfg.half_width)
    field = solve_gheat(prob, spec) if cfg.emit_field else None
    origin_h = None if field is None else field.origin_value()
    value, err = richardson_value(prob, spec, origin_h)
    print(f"value {value!r} error_estimate {err!r}")
    write_json(
        out.path("summary.json"),
        {"value": value, "error_estimate": err, "h": spec.h, "half_width": spec.half_width},
    )
    if field is not None:
        rows = [
            (float(t), float(x), float(v))
            for t, xs, vs in zip(field.times, field.xs, field.values)
            for x, v in zip(xs, vs)
        ]
        write_csv(out.path("field.csv"), ("t", "x", "v"), rows)
    return 0


def _run_recurse(cfg: RunConfig, out: OutputDir, family, payoff) -> int:
    """Backward recursion field and origin value."""
    grid = None
    if resolve_mode(family, cfg.mode) == "grid":
        base = default_grid(family, cfg.n)
        grid = GridSpec(
            step=base.step if cfg.h is None else cfg.h,
            half_width=base.half_width if cfg.half_width is None else cfg.half_width,
        )
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


def _windows(rows) -> dict:
    """The recursion mode and, per n in lattice mode, the method and window of vn."""
    if any(r.method == "grid" for r in rows):
        return {"mode": "grid", "window": None}
    return {
        "mode": "lattice",
        "window": [
            {"n": r.n, "method": r.method, "J": r.window.J, "cone": r.window.cone,
             "bound": r.window.bound}
            for r in rows
        ],
    }


def _run_rates(cfg: RunConfig, out: OutputDir, family, payoff) -> int:
    """Error curve, log-log slope and verdict."""
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
            **_windows(report.rows),
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


def _run_conjecture(cfg: RunConfig, out: OutputDir, family, payoff) -> int:
    """Scaled sharpness-family table."""
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
            "approach_rate": [
                {"n": [a, b], "rate": rate} for a, b, rate in report.approach_rates()
            ],
            **_windows(report.rows),
        },
    )
    for r in report.rows:
        print(f"n {r.n} continuous {r.scaled_continuous!r} discrete {r.scaled_discrete!r}")
    return 0


def _run_regularity(cfg: RunConfig, out: OutputDir, family, payoff) -> int:
    """Holder audits of a solved field."""
    if family is not None:  # dp source
        field = solve_recursion(family, payoff, cfg.n, mode=cfg.mode)
        sigma_bar = family.sigma_bar
        slack = 0.0 if cfg.slack in (None, "auto") else float(cfg.slack)
    else:
        prob = GHeatProblem(cfg.sigma_under, cfg.sigma_bar, payoff)
        spec = default_spec(prob, h=1.0 / 100.0 if cfg.h is None else cfg.h)
        field = solve_gheat(prob, spec)
        sigma_bar = cfg.sigma_bar
        if cfg.slack in (None, "auto"):
            _, err = richardson_value(prob, spec, field.origin_value())
            slack = 2.0 * err
        else:
            slack = float(cfg.slack)
    report = regularity_audit(field, payoff.beta, sigma_bar, slack)
    write_csv(
        out.path("regularity.csv"),
        ("check", "excess", "slack", "pass"),
        [
            (check, excess, slack, excess <= slack + FP_SLACK)
            for check, excess in (
                ("spatial", report.spatial_excess),
                ("temporal", report.temporal_excess),
            )
        ],
    )
    write_json(
        out.path("summary.json"),
        {
            "spatial_excess": report.spatial_excess,
            "temporal_excess": report.temporal_excess,
            "slack": slack,
            "spatial_levels_checked": report.spatial_levels_checked,
            "temporal_levels_checked": report.temporal_levels_checked,
            "temporal_pairs_checked": report.temporal_pairs_checked,
            "points_checked": report.points_checked,
            "passed": report.passed,
        },
    )
    print(
        f"spatial_excess {report.spatial_excess!r} temporal_excess "
        f"{report.temporal_excess!r} passed {report.passed}"
    )
    return 0 if report.passed else 2


def _run_mollify_check(cfg: RunConfig, out: OutputDir, family, payoff) -> int:
    """Mollification bound verification."""
    eps_list = sorted(cfg.eps, reverse=True)
    min_eps = min(eps_list)
    dt = min_eps * min_eps / 16.0
    dx = min_eps / 16.0
    hw = 2.0 if cfg.half_width is None else cfg.half_width
    if family is not None:  # dp source
        step = min(dx, 1.0 / cfg.n)  # the grid's points reach past the surface's
        grid = GridSpec(step=step, half_width=max(8.0 * family.sigma_bar, hw + step))
        a = float(cfg.n) ** (-payoff.beta / 2.0)
        # the field is dropped once resampled: the checks read the surface only
        surface = surface_from_field(
            solve_recursion(family, payoff, cfg.n, mode="grid", grid=grid),
            x_half_width=hw, dt=dt, dx=dx, beta=payoff.beta, slack=a,
        )
    else:
        surface = surface_from_function(
            lambda t, x: payoff(x),
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
            "surface_points": [surface.times.size, surface.xs.size],
            "kernel_points": [list(r.kernel_points) for r in report.rows],
            "modulus_lines": [list(r.modulus_lines) for r in report.rows],
            "passed": report.passed,
        },
    )
    checks = ("sup_ok", "derivative_scaling_ok", "temporal_scaling_ok", "spatial_scaling_ok")
    print(" ".join(f"{k} {getattr(report, k)}" for k in (*checks, "passed")))
    return 0 if report.passed else 2


def _ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


def _floats(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s]


# What each command reads: per source, the keys it requires and the keys it
# may read; every other key must keep its RunConfig default. A command with
# several sources offers --source, and its first source is the default.
_COMMANDS = {
    "value": (_run_value, {None: ("phi sigma_under sigma_bar", "h half_width emit_field")}),
    "recurse": (_run_recurse, {None: ("family phi n", "mode h half_width")}),
    "rates": (_run_rates, {
        None: ("family phi ns", "ref_h exponent_rule strict_reference emit_svg"),
    }),
    "conjecture": (_run_conjecture, {None: ("ns", "")}),
    "regularity": (_run_regularity, {
        "dp": ("family phi n", "mode slack"),
        "pde": ("phi sigma_under sigma_bar", "h slack"),
    }),
    "mollify-check": (_run_mollify_check, {
        "function": ("eps", "phi a half_width"),
        "dp": ("family phi n eps", "half_width"),
    }),
}

# argparse settings of each key's flag (--<key with dashes>)
_FLAGS = {
    "family": {"help": "builtin name, inline JSON, or @file.json"},
    "phi": {"help": "payoff kind or inline JSON"},
    "ns": {"type": _ints, "help": "comma-separated depths"},
    "n": {"type": int, "help": "recursion depth"},
    "mode": {"choices": ("lattice", "grid")},
    "h": {"type": float, "help": "spatial step"},
    "half_width": {"type": float},
    "sigma_under": {"type": float},
    "sigma_bar": {"type": float},
    "eps": {"type": _floats, "help": "comma-separated widths"},
    "a": {"type": float, "help": "temporal slack of the surface"},
    "slack": {"default": "auto", "help": 'numeric slack or "auto"'},
    "ref_h": {"type": float, "help": "reference scheme step"},
    "exponent_rule": {"choices": ("auto", "basic")},
    "strict_reference": {"action": "store_true"},
    "emit_svg": {"action": "store_true"},
    "emit_field": {"action": "store_true", "help": "write full-field CSV"},
}


def run(cfg: RunConfig) -> int:
    """Check a configuration against ``_COMMANDS`` and run it; returns the exit code.

    Every refusal of the configuration comes before the run directory exists.
    """
    if cfg.command not in _COMMANDS:
        raise ConfigInvalidError(f"unknown command {cfg.command!r}")
    handler, sources = _COMMANDS[cfg.command]
    source = cfg.source or next(iter(sources))
    if source not in sources:
        raise ConfigInvalidError(f"{cfg.command} has no source {cfg.source!r}")
    label = cfg.command if source is None else f"{cfg.command} ({source})"
    required, optional = (keys.split() for keys in sources[source])
    _check_reads(cfg, label, required, optional)
    _check_ranges(cfg)
    family = None if cfg.family is None else _resolve_family(cfg.family)
    # only mollify-check's function surface may omit phi; it samples |x|
    reads_phi = "phi" in (*required, *optional)
    payoff = _resolve_payoff(cfg.phi or {"phi": "abs"}) if reads_phi else None
    if cfg.command == "recurse" and resolve_mode(family, cfg.mode) == "lattice":
        _check_reads(cfg, "recurse (lattice)", required, ["mode"])
    if cfg.command == "rates" and analytic_reference(family, payoff):
        reads = [key for key in optional if key != "ref_h"]
        _check_reads(cfg, "rates (analytic reference)", required, reads)
    with OutputDir(cfg.out_dir, cfg.command) as out:
        resolved = cfg.to_dict()
        if isinstance(cfg.family, dict):
            resolved["family"] = family_to_config(family)
        write_json(out.path("config.json"), resolved)
        return handler(cfg, out, family, payoff)


# ----------------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------------


def _default_out(command: str) -> str:
    root = os.environ.get("CLTLAB_OUT", "cltlab-out")
    return os.path.join(root, command)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``ConfigInvalidError`` instead of exiting 2."""

    def error(self, message):
        raise ConfigInvalidError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``_COMMANDS`` entry, offering the keys its sources read."""
    parser = _Parser(
        prog="cltlab",
        description="Batch experiments for central limit behaviour under "
        "volatility uncertainty; outputs are deterministic CSV/SVG artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, sources) in _COMMANDS.items():
        p = sub.add_parser(command, help=handler.__doc__, description=handler.__doc__)
        p.add_argument("--out", help="output directory (default CLTLAB_OUT/<command>)")
        if len(sources) > 1:
            p.add_argument("--source", choices=tuple(sources), default=next(iter(sources)))
        for key in dict.fromkeys(" ".join(" ".join(r) for r in sources.values()).split()):
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
            if key == "phi":
                p.add_argument("--beta", type=float, help="payoff exponent (abs_pow)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, out_dir=args.out or _default_out(args.command))
    if getattr(args, "family", None) is not None:
        cfg.family = _parse_family_arg(args.family)
    beta = getattr(args, "beta", None)
    if getattr(args, "phi", None) is not None:
        cfg.phi = _parse_phi_arg(args.phi, beta)
    elif beta is not None:
        raise ConfigInvalidError("beta needs a --phi kind")
    for f in dataclasses.fields(RunConfig):
        if f.name in ("command", "out_dir", "family", "phi"):
            continue  # set above
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg


def main(argv=None) -> int:
    try:
        return run(config_from_args(build_parser().parse_args(argv)))
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except LabError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR ConfigInvalid: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
