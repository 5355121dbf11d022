#!/usr/bin/env python3
"""Regenerate ``expected.json``, the frozen values the benchmark checks against.

    python3 perfbench/freeze.py

Takes about a minute on two cores. Values come from the library calls the
commands stand on, not from the CLI, and are stored with ``repr`` precision:

* ``rates-cosine.reference``: the continuous value of rademacher_pair
  (sigma in [0.5, 1]) with ``cosine_scaled`` data, as the Richardson
  extrapolation ``(4 f - c) / 3`` of the explicit scheme at h = 1/400 (c)
  and 1/800 (f), CFL ratio 1, half width 8. The observed order
  ``log2(|v200 - v400| / |v400 - v800|)`` and the agreement with the
  1/200-1/400 extrapolation are stored beside it.
* ``rates-cosine.vn``, ``rates-abs.vn``: ``origin_value`` in lattice mode.
* ``conjecture.discrete``: ``n**0.25 * origin_value`` of the sharpness
  family, as ``conjecture_experiment`` reports it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cltlab.families import builtin_family  # noqa: E402
from cltlab.gheat import GHeatProblem, default_spec, solve_gheat  # noqa: E402
from cltlab.payoffs import make_payoff  # noqa: E402
from cltlab.rates import conjecture_experiment  # noqa: E402
from cltlab.recursion import origin_value  # noqa: E402

from checks import EXPECTED_PATH  # noqa: E402
from workloads import CONJECTURE_NS, RATES_ABS_NS, RATES_COSINE_NS  # noqa: E402


def scheme_reference(family, payoff) -> dict:
    prob = GHeatProblem(family.sigma_under, family.sigma_bar, payoff)
    v = {
        d: solve_gheat(prob, default_spec(prob, h=1.0 / d), store="final").origin_value()
        for d in (200, 400, 800)
    }
    reference = (4.0 * v[800] - v[400]) / 3.0
    coarser = (4.0 * v[400] - v[200]) / 3.0
    return {
        "reference": reference,
        "reference_method": "(4*v(1/800) - v(1/400))/3, explicit scheme, CFL ratio 1, "
        "half width 8",
        "scheme_values": {f"1/{d}": v[d] for d in v},
        "observed_order": math.log2(abs(v[200] - v[400]) / abs(v[400] - v[800])),
        "extrapolation_agreement": abs(reference - coarser),
    }


def main() -> int:
    pair, single = builtin_family("rademacher_pair"), builtin_family("rademacher")
    cosine, absolute = make_payoff("cosine_scaled"), make_payoff("abs")
    expected = {
        "rates-cosine": {
            **scheme_reference(pair, cosine),
            "vn": {str(n): origin_value(pair, cosine, n) for n in RATES_COSINE_NS},
        },
        "rates-abs": {
            "vn": {str(n): origin_value(single, absolute, n) for n in RATES_ABS_NS},
        },
        "conjecture": {
            "discrete": {
                str(r.n): r.scaled_discrete for r in conjecture_experiment(CONJECTURE_NS).rows
            },
        },
    }
    EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(expected["rates-cosine"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
