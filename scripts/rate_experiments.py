#!/usr/bin/env python3
"""Run the three standard convergence-rate experiments and chart them.

The symmetric single-law family is compared against the analytic reference;
the two-member family, on convex |x| (the widest law wins every sup) and on
cosine data (the sup switches between the laws), against a Richardson scheme
value. Outputs land under --out (default cltlab-out/rate-experiments), one
subdirectory each.
"""

import argparse
import sys

from cltlab.cli import main as cli

STUDIES = {
    "symmetric": ["--family", "rademacher", "--phi", "abs"],
    "two-member": ["--family", "rademacher_pair", "--phi", "abs", "--exponent-rule", "basic"],
    "switching": [
        "--family", "rademacher_pair", "--phi", "cosine_scaled", "--exponent-rule", "basic",
    ],
}


def run(out_root: str, ns: str) -> int:
    rc = 0
    for name, args in STUDIES.items():
        rc |= cli(["rates", *args, "--ns", ns, "--emit-svg", "--out", f"{out_root}/{name}"])
    return rc


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="cltlab-out/rate-experiments")
    ap.add_argument("--ns", default="4,16,64,256,1024,4096")
    args = ap.parse_args()
    sys.exit(run(args.out, args.ns))
