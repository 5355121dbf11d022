"""The benchmark's workloads: fixed experiment commands users already run.

Each workload is a list of ``(key, argv)`` pairs handed to ``cltlab.cli.main``
one at a time (one closed-loop client); why each workload was chosen is
recorded in ``BENCHMARK.json``. The inputs are fixed scientific cases
checked against frozen values, so the workload seed only permutes the command
order; seed 0 keeps the order listed here.

Sizes are cut so that no command takes more than about 4 s: the host's speed
drifts within tens of seconds, and the calibration samples taken between
commands (``calibrate.py``) only track that drift when commands are short.
So ``rates-cosine`` takes its reference from the Richardson pair 1/200, 1/400
rather than the default 1/400, 1/800, and the lattice march of ``conjecture``
stops at n = 32768.
"""

from __future__ import annotations

import random

RATES_COSINE_NS = (4, 16, 64, 256, 1024, 4096)
RATES_COSINE_REF_H = 0.005  # Richardson pair 1/200, 1/400
CONJECTURE_NS = (16, 64, 256, 1024, 4096, 16384, 32768)
RATES_ABS_NS = (4, 16, 64, 256, 1024, 4096, 16384)
MOLLIFY_EPS = {"mollify-function": (0.2, 0.1, 0.05), "mollify-dp": (0.2, 0.1)}


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {
    "rates-nonlinear": [
        ("rates-cosine", [
            "rates", "--family", "rademacher_pair", "--phi", "cosine_scaled",
            "--ns", _csv(RATES_COSINE_NS), "--exponent-rule", "basic",
            "--ref-h", str(RATES_COSINE_REF_H),
        ]),
    ],
    "sharpness-table": [
        ("conjecture", ["conjecture", "--ns", _csv(CONJECTURE_NS)]),
        ("rates-abs", [
            "rates", "--family", "rademacher", "--phi", "abs",
            "--ns", _csv(RATES_ABS_NS),
        ]),
    ],
    "audit-suite": [
        ("regularity-dp", [
            "regularity", "--family", "rademacher_pair", "--phi", "abs",
            "--n", "256", "--slack", "0",
        ]),
        ("regularity-pde", [
            "regularity", "--source", "pde", "--phi", "abs",
            "--sigma-under", "1", "--sigma-bar", "1", "--h", "0.01",
        ]),
        ("mollify-function", [
            "mollify-check", "--phi", "abs_pow", "--beta", "0.5",
            "--eps", _csv(MOLLIFY_EPS["mollify-function"]),
        ]),
        ("mollify-dp", [
            "mollify-check", "--source", "dp", "--family", "rademacher_pair",
            "--phi", "abs", "--n", "64", "--eps", _csv(MOLLIFY_EPS["mollify-dp"]),
        ]),
    ],
}


def command_order(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's commands, permuted by ``seed`` (0 keeps the listed order)."""
    commands = list(WORKLOADS[workload])
    if seed:
        random.Random(seed).shuffle(commands)
    return commands
