"""One fresh interpreter of the benchmark: times the import, then runs the passes.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD SEED OUT_DIR SECONDS [--trace]

``setup`` prints ``{"import_s": ..., "modules_loaded": ...}``. ``run`` runs
the workload's commands in process through ``cltlab.cli.main`` (one command
at a time, each pass into ``OUT_DIR/<pass>/<key>``) and writes
``OUT_DIR/result.json``: first an untimed warm-up pass, then timed passes while
another one fits in SECONDS (at least one). With ``--trace`` there is exactly
one timed untraced pass and then one pass with the layer wrappers of
``tracing.py`` installed; the result carries its spans and per-layer metrics.

Calibration samples (``calibrate.py``) are taken after every timed command,
for at least half its time; they are reported beside the raw times. ``cltlab`` must be importable, e.g.
with ``PYTHONPATH=src``.
"""

import sys
import time

_t0 = time.perf_counter()
import cltlab.cli  # noqa: E402  (the import is what this process times)

IMPORT_S = time.perf_counter() - _t0
MODULES_LOADED = len(sys.modules)

import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from workloads import command_order  # noqa: E402


def run_pass(commands, out: Path, main, calibrated: bool = True) -> dict:
    """One pass over the commands, calibration samples after each command if ``calibrated``."""
    out.mkdir()
    done, samples = [], []
    for key, argv in commands:
        start = time.perf_counter()
        try:
            rc = main([*argv, "--out", str(out / key)])
        except Exception:  # a crashed command is a failed run, not a crashed pass
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - start
        done.append({"key": key, "rc": rc, "seconds": seconds})
        if calibrated:
            samples += calibrate.samples_after(seconds)
    return {
        "out": str(out),
        "commands": done,
        "wall_s": sum(c["seconds"] for c in done),
        "calibration_s": samples,
    }


def run(workload: str, seed: int, out: Path, seconds: float, trace: bool) -> dict:
    commands = command_order(workload, seed)
    main = cltlab.cli.main
    # listed order, so one-time lazy set-up (and its peak memory) lands in the
    # same command whatever the seed
    warmup = run_pass(command_order(workload, 0), out / "warmup", main, calibrated=False)
    timed = []
    started = time.perf_counter()
    while True:
        timed.append(run_pass(commands, out / f"pass{len(timed)}", main))
        elapsed = time.perf_counter() - started
        if trace or elapsed * (len(timed) + 1) / len(timed) > seconds:
            break
    result = {
        "import_s": IMPORT_S,
        "modules_loaded": MODULES_LOADED,
        "warmup": warmup,
        "timed": timed,
    }
    if trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        restore = tracer.install()
        try:
            result["traced"] = run_pass(commands, out / "traced", tracer.wrap("cli.main", main))
        finally:
            restore()
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps({"import_s": IMPORT_S, "modules_loaded": MODULES_LOADED}))
        return 0
    if argv[:1] == ["run"] and len(argv) in (5, 6):
        workload, seed, out, seconds = argv[1], int(argv[2]), Path(argv[3]), float(argv[4])
        result = run(workload, seed, out, seconds, trace=argv[5:] == ["--trace"])
        (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
