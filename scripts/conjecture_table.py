#!/usr/bin/env python3
"""Emit the scaled sharpness-family table.

Both columns are multiplied by n**(1/4): the continuous side is the constant
2/sqrt(pi) by its closed form; the discrete side comes from the exact
three-point lattice recursion, priced by the law of its walk (the family
has one member, so the recursion is linear). The table reports the data
without asserting a limit for the discrete column.
"""

import argparse
import sys

from cltlab.cli import main as cli

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="cltlab-out/conjecture")
    ap.add_argument("--ns", default="16,64,256,1024,4096,16384,65536,262144,1048576")
    args = ap.parse_args()
    sys.exit(cli(["conjecture", "--ns", args.ns, "--out", args.out]))
