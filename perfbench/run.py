#!/usr/bin/env python3
"""cltlab benchmark: time-to-checked-result of fixed experiment workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src`` (nothing to
build). One run:

1. one untimed warm-up import, then (untraced runs) ``SETUP_SAMPLES`` timed
   ``import cltlab.cli`` in fresh interpreters, calibration samples
   (``calibrate.py``) after each;
2. one fresh interpreter (``worker.py``) runs an untimed warm-up pass over the
   workload, then timed passes for about ``--seconds`` seconds and at least
   one, with calibration samples after every command. With ``--trace 1`` there is exactly one timed
   untraced pass and one traced pass;
3. every command's artifacts are checked (``checks.py``) and its CSV bytes
   compared across the passes of the run and with earlier runs of the same
   source tree in this checkout.

The host's speed drifts by more than the bounds within minutes, so times are
reported at the speed the calibration kernel measures, ``REFERENCE_S`` over
the mean of the samples taken between them: ``wall_s`` is the mean raw pass
wall (command times summed, calibration excluded) so scaled, ``setup_s`` the
median raw import time so scaled. The raw times are printed beside them.

The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` (command runs) and ``metrics``: the end-to-end metrics untraced,
the per-layer metrics of the traced pass with ``--trace 1``. Child
interpreters run with one BLAS/OpenMP thread. Exits 1 without a result if the source tree is
missing, a child interpreter fails, or the run would exceed its time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from checks import check_command, csv_digests, load_expected
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0  # the whole run, children included, ends within this


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, deadline: float) -> str:
    """Run ``worker.py args`` to completion before ``deadline``; returns stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child interpreter")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args[0]} exceeded the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.stdout


def source_digest() -> str:
    """Hash of the program and of the workloads' commands."""
    h = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


class Determinism:
    """CSV digests per command, shared by all runs of one source tree."""

    def __init__(self, state_dir: Path):
        self.path = state_dir / f"csv-digests-{source_digest()}.json"
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, digests: dict) -> list[str]:
        if key not in self.known:
            self.known[key] = digests
            return []
        if self.known[key] != digests:
            return [f"CSV bytes differ from an earlier run: {digests} vs {self.known[key]}"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def tally(passes, expected: dict, determinism: Determinism) -> tuple[int, int, dict]:
    """Check every command run of the passes: (attempted, failed, accuracy figures).

    A run fails on a nonzero exit, a failed output check, or CSV bytes that
    differ from another run of the same command and source tree.
    """
    attempted = failed = 0
    accuracy: dict[str, float] = {}
    for result in passes:
        for cmd in result["commands"]:
            attempted += 1
            out = Path(result["out"]) / cmd["key"]
            problems, figures = check_command(cmd["key"], cmd["rc"], out, expected)
            if not problems:
                problems = determinism.check(cmd["key"], csv_digests(out))
            accuracy.update(figures)
            if problems:
                failed += 1
                print(f"FAILED {cmd['key']}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed, accuracy


def scaled_wall(passes) -> float:
    """Mean raw wall of the passes at the reference speed of their calibration samples."""
    samples = [c for p in passes for c in p["calibration_s"]]
    return calibrate.scaled(statistics.mean(p["wall_s"] for p in passes), samples)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "cltlab" / "cli.py").is_file():
        raise BenchError(f"no cltlab source under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    expected = load_expected()
    state = ROOT / ".bench_build" / "perfbench"
    work = state / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    determinism = Determinism(state)

    run_child(["setup"], deadline)  # warm-up: file cache and bytecode
    imports, import_samples = [], []
    for _ in range(0 if trace else SETUP_SAMPLES):
        imports.append(json.loads(run_child(["setup"], deadline))["import_s"])
        import_samples += calibrate.samples_after(imports[-1])

    run_child(["run", workload, str(seed), str(work), str(seconds)] + ["--trace"] * trace,
              deadline)
    result = json.loads((work / "result.json").read_text())
    timed, traced = result["timed"], result.get("traced")
    checked = [result["warmup"], *timed] + [traced] * trace
    attempted, failed, accuracy = tally(checked, expected, determinism)
    determinism.save()

    wall, raw_wall = scaled_wall(timed), statistics.mean(p["wall_s"] for p in timed)
    samples = [c for p in timed for c in p["calibration_s"]]
    if trace:
        values = {
            **result["layers"],
            "setup.modules_loaded": result["modules_loaded"],
            "trace.overhead_s": scaled_wall([traced]) - wall,
            "rates.ref_bar": accuracy.get("ref_bar", 0.0),
            "rates.ref_err": accuracy.get("ref_err", 0.0),
            "run.raw_wall_s": raw_wall,
            "run.calibration_s": statistics.median(samples),
        }
        (state / f"spans-{workload}.json").write_text(json.dumps(result["spans"]))
    else:
        values = {
            "setup_s": calibrate.scaled(statistics.median(imports), import_samples),
            "wall_s": wall,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{workload} fail_frac = {failed / attempted!r} ({failed}/{attempted} command runs, "
          f"{len(timed)} timed pass(es) after a warm-up pass)")
    print(f"{workload} raw wall_s = {raw_wall!r} s, "
          f"calibration sample median {statistics.median(samples)!r} s "
          f"(reference {calibrate.REFERENCE_S} s)")
    if imports:
        print(f"{workload} raw setup_s = {statistics.median(imports)!r} s")
    if trace:
        print(f"{workload} traced wall_s = {scaled_wall([traced])!r} s")
    for name in ("ref_bar", "ref_err"):
        if name in accuracy:
            print(f"{workload} {name} = {accuracy[name]!r}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
