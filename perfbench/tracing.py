"""Spans around the calls into cltlab's layers, and the per-layer metrics.

Modules import names into the calling module, so a wrapper only takes effect
where the name is looked up: each target below replaces one name in one
module. A span records name, start, end and parent index; spans stay in
memory until the pass ends. Counters are derived from a call's inputs and
returned fields after the span has closed, so they repeat exactly between
runs and add nothing to the timed interval.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from time import perf_counter

from cltlab.recursion import default_grid, resolve_mode


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(result, *args, **kw)`` adds counters."""

        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(result, *args, **kwargs))
            return result

        return traced

    def install(self):
        """Patch every target; returns a callable that restores the originals."""
        saved = []
        for module_name, attr, span_name, count in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, count))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore


# ---------------------------------------------------------------------------
# counters computed from inputs and returned fields
# ---------------------------------------------------------------------------


def lattice_reach(family) -> int:
    """Largest support offset of any member, in lattice units."""
    step = family.lattice_step
    return max(round(abs(s) / step) for d in family.members for s in d.support)


def support_total(family) -> int:
    return sum(len(d.support) for d in family.members)


def lattice_point_updates(family, n: int) -> int:
    """Sum over levels k < n of (2 k reach + 1) points times all support points."""
    reach = lattice_reach(family)
    return support_total(family) * sum(2 * k * reach + 1 for k in range(n))


def _count_origin_value(result, family, payoff, n, mode=None, grid=None):
    mode = resolve_mode(family, mode)
    if mode == "lattice":
        return {"mode": mode, "point_updates": lattice_point_updates(family, n)}
    points = (grid or default_grid(family, n)).points().size
    return {"mode": mode, "point_updates": n * points * support_total(family)}


def _count_solve_recursion(field_, family, *args, **kwargs):
    updates = support_total(family) * sum(x.size for x in field_.xs[:-1])
    arrays = {id(a): a.nbytes for a in list(field_.xs) + list(field_.values)}
    return {"mode": field_.mode, "point_updates": updates, "field_bytes": sum(arrays.values())}


def _count_solve_gheat(field_, *args, **kwargs):
    points = field_.xs[0].size
    return {"point_updates": field_.n * (points - 2), "working_set_bytes": points * 8}


def _count_mollify(out, surface, spec):
    nt_in, nx_in = surface.values.shape
    nt_out, nx_out = out.values.shape
    kernel_cells = (nt_in - nt_out + 1) * (nx_in - nx_out + 1)
    return {"taps": out.values.size * kernel_cells}


def _count_regularity(report, *args, **kwargs):
    return {"points_checked": report.points_checked}


def _count_surface(surface, *args, **kwargs):
    return {"surface_bytes": surface.values.nbytes}


def _count_write(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (module whose name is replaced, attribute, span name, counter)
TARGETS = [
    ("cltlab.cli", "richardson_value", "gheat.richardson_value", None),
    ("cltlab.cli", "solve_gheat", "gheat.solve_gheat", _count_solve_gheat),
    ("cltlab.cli", "solve_recursion", "recursion.solve_recursion", _count_solve_recursion),
    ("cltlab.cli", "error_curve", "rates.error_curve", None),
    ("cltlab.cli", "conjecture_experiment", "rates.conjecture_experiment", None),
    ("cltlab.cli", "regularity_audit", "smoothing.regularity_audit", _count_regularity),
    ("cltlab.cli", "verify_smoothing_bounds", "smoothing.verify_smoothing_bounds", None),
    ("cltlab.cli", "surface_from_field", "smoothing.surface_from_field", _count_surface),
    ("cltlab.cli", "surface_from_function", "smoothing.surface_from_function", _count_surface),
    ("cltlab.cli", "write_csv", "output.write_csv", _count_write),
    ("cltlab.cli", "write_json", "output.write_json", _count_write),
    ("cltlab.output", "write_json", "output.write_json", _count_write),
    ("cltlab.rates", "origin_value", "recursion.origin_value", _count_origin_value),
    ("cltlab.rates", "richardson_value", "gheat.richardson_value", None),
    ("cltlab.rates", "convex_oracle", "gheat.convex_oracle", None),
    ("cltlab.gheat", "solve_gheat", "gheat.solve_gheat", _count_solve_gheat),
    ("cltlab.smoothing", "mollify", "smoothing.mollify", _count_mollify),
    ("cltlab.smoothing", "audit_surface_hypotheses", "smoothing.audit_surface_hypotheses", None),
]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate one traced pass into the per-layer metrics (without overhead)."""
    own = self_times(spans)

    def pick(*names, mode=None):
        return [
            i for i, s in enumerate(spans)
            if s.name in names and (mode is None or s.counts.get("mode") == mode)
        ]

    def busy(idx):
        return sum((spans[i].duration for i in idx), 0.0)

    def self_s(idx):
        return sum((own[i] for i in idx), 0.0)

    def total(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    recursion = ("recursion.origin_value", "recursion.solve_recursion")
    lattice, grid = pick(*recursion, mode="lattice"), pick(*recursion, mode="grid")
    solve = pick("gheat.solve_gheat")
    richardson = pick("gheat.richardson_value")
    surfaces = pick("smoothing.surface_from_field", "smoothing.surface_from_function")
    writes = pick("output.write_csv", "output.write_json")
    regularity = pick("smoothing.regularity_audit")
    mollify = pick("smoothing.mollify")
    return {
        "recursion.lattice.busy_s": busy(lattice),
        "recursion.lattice.point_updates": total(lattice, "point_updates"),
        "recursion.lattice.updates_per_s": rate(total(lattice, "point_updates"), busy(lattice)),
        "recursion.grid.busy_s": busy(grid),
        "recursion.grid.point_updates": total(grid, "point_updates"),
        "recursion.field_bytes": total(pick("recursion.solve_recursion"), "field_bytes"),
        "gheat.solve.calls": len(solve),
        "gheat.solve.busy_s": busy(solve),
        "gheat.solve.point_updates": total(solve, "point_updates"),
        "gheat.solve.updates_per_s": rate(total(solve, "point_updates"), busy(solve)),
        "gheat.solve.working_set_bytes": max(
            (spans[i].counts["working_set_bytes"] for i in solve), default=0
        ),
        "gheat.richardson.calls": len(richardson),
        "gheat.richardson.self_s": self_s(richardson),
        "gheat.oracle.calls": len(pick("gheat.convex_oracle")),
        "smoothing.mollify.busy_s": busy(mollify),
        "smoothing.mollify.taps": total(mollify, "taps"),
        "smoothing.verify.self_s": self_s(pick("smoothing.verify_smoothing_bounds")),
        "smoothing.hypotheses.busy_s": busy(pick("smoothing.audit_surface_hypotheses")),
        "smoothing.regularity.busy_s": busy(regularity),
        "smoothing.regularity.points_checked": total(regularity, "points_checked"),
        "smoothing.surface.busy_s": busy(surfaces),
        "smoothing.surface_bytes": total(surfaces, "surface_bytes"),
        "rates.self_s": self_s(pick("rates.error_curve", "rates.conjecture_experiment")),
        "cli.self_s": self_s(pick("cli.main")),
        "output.write_s": busy(writes),
        "output.bytes_written": total(writes, "bytes"),
    }
