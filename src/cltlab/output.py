"""Deterministic run artifacts: CSV, JSON, a minimal SVG chart, lock files.

CSV output is RFC-4180 with '.' decimals and LF line endings; floats are
written with ``repr`` (shortest round-trip), so identical inputs produce
byte-identical files. The SVG writer is hand-rolled for the same reason:
no library-dependent ids or timestamps.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

from .errors import LabError


class LockHeldError(LabError, RuntimeError):
    """Another run owns this output directory."""


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it into place.

    A run killed mid-write leaves the previous file, or none, never half of
    a new one; a failed write removes its temp file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path, obj) -> None:
    _write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def svg_loglog(path, xs, ys, *, slope=None, intercept=None, title="") -> None:
    """Log-log scatter with an optional fitted line, as a standalone SVG."""
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    width, height, margin = 480, 360, 48
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="13">{title}</text>',
    ]
    if pts:
        lx = [math.log10(x) for x, _ in pts]
        ly = [math.log10(y) for _, y in pts]
        x0, x1 = min(lx), max(lx)
        y0, y1 = min(ly), max(ly)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0

        def px(u):
            return margin + (u - x0) / (x1 - x0) * (width - 2 * margin)

        def py(v):
            return height - margin - (v - y0) / (y1 - y0) * (height - 2 * margin)

        parts.append(
            f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
            f'height="{height - 2 * margin}" fill="none" stroke="black"/>'
        )
        if slope is not None and intercept is not None:
            ln = math.log(10.0)
            ya = (slope * x0 * ln + intercept) / ln
            yb = (slope * x1 * ln + intercept) / ln
            parts.append(
                f'<line x1="{px(x0):.2f}" y1="{py(ya):.2f}" x2="{px(x1):.2f}" '
                f'y2="{py(yb):.2f}" stroke="gray" stroke-dasharray="4 3"/>'
            )
        for u, v in zip(lx, ly):
            parts.append(f'<circle cx="{px(u):.2f}" cy="{py(v):.2f}" r="3" fill="black"/>')
        parts.append(
            f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" '
            f'font-size="11">log10 n</text>'
        )
        parts.append(
            f'<text x="14" y="{height / 2}" text-anchor="middle" font-size="11" '
            f'transform="rotate(-90 14 {height / 2})">log10 error</text>'
        )
    parts.append("</svg>")
    _write_atomic(path, ("\n".join(parts) + "\n").encode("utf-8"))


class OutputDir:
    """Locked output directory that records a manifest on success.

    Single-entrant per directory: a ``.lock`` file holding the owner's pid
    is created exclusively on enter and removed on exit. A lock whose pid
    names no running process (its owner was killed) is removed and the
    create tried once more; an empty or unreadable lock, or one whose owner
    lives or cannot be signalled, raises :class:`LockHeldError`. Files
    registered through :meth:`path` land in the manifest with the schema
    version. A run refused with a :class:`LabError` leaves nothing it wrote:
    its registered files and the lock go, and so do the directories it made
    when nothing else is in them.
    """

    SCHEMA = "cltlab.run/1"

    def __init__(self, root, command: str):
        self.root = Path(root)
        self.command = command
        self.files: list[str] = []
        self._lock = self.root / ".lock"

    def __enter__(self) -> "OutputDir":
        missing = itertools.takewhile(lambda d: not d.exists(), (self.root, *self.root.parents))
        self._made = list(missing)  # the directories this run makes, innermost first
        self.root.mkdir(parents=True, exist_ok=True)
        if not self._create_lock():
            if self._owner_is_dead():
                self._lock.unlink(missing_ok=True)  # left by a killed run
            if not self._create_lock():
                raise LockHeldError(f"lock file present: {self._lock}")
        return self

    def _create_lock(self) -> bool:
        try:
            fd = os.open(self._lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as f:
            f.write(str(os.getpid()))
        return True

    def _owner_is_dead(self) -> bool:
        try:
            pid = int(self._lock.read_text())
        except (OSError, ValueError):  # unreadable, or empty while being written
            return False
        if pid <= 0:  # 0 and negative pids signal process groups
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, OverflowError):  # e.g. alive but another user's
            pass
        return False

    def path(self, name: str) -> Path:
        if name not in self.files:
            self.files.append(name)
        return self.root / name

    def __exit__(self, exc_type, exc, tb):
        refused = exc_type is not None and issubclass(exc_type, LabError)
        try:
            if exc_type is None:
                write_json(
                    self.root / "manifest.json",
                    {
                        "schema": self.SCHEMA,
                        "command": self.command,
                        "files": sorted(self.files),
                    },
                )
            elif refused:
                for name in self.files:
                    (self.root / name).unlink(missing_ok=True)
        finally:
            self._lock.unlink(missing_ok=True)
        if refused:
            for made in self._made:  # innermost first
                try:
                    made.rmdir()
                except OSError:  # holds files of its own
                    break
        return False
