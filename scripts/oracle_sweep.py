#!/usr/bin/env python3
"""Sweep the quadrature oracle against every closed form, per system and space.

Each sweep writes its cell table to <out>/<system>_<space>.csv and prints a
one-line summary to stderr. The hydrogen momentum sweep is expected to
report disagreements: the bundled closed form does not satisfy the defining
integral for states with radial nodes. The script reports that honestly and
exits nonzero when any sweep finds cells over threshold.
"""

import argparse
import os
import sys

from relfisher.cli import main as cli_main

SYSTEMS = ("qho1d", "qho3d", "hydrogen", "php")
SPACES = ("position", "momentum")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts/oracle", help="output directory")
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--nr-max", type=int, default=8)
    parser.add_argument("--l-max", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=1e-8)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    disagreeing = []
    for system in SYSTEMS:
        for space in SPACES:
            print(f"== {system} {space}", file=sys.stderr)
            argv = [
                "validate",
                "--system", system,
                "--space", space,
                "--n-max", str(args.n_max),
                "--nr-max", str(args.nr_max),
                "--l-max", str(args.l_max),
                "--threshold", str(args.threshold),
                "--out", os.path.join(args.out, f"{system}_{space}.csv"),
            ]
            code = cli_main(argv)
            if code != 0:
                disagreeing.append(f"{system} {space}")

    if disagreeing:
        print(f"sweeps with cells over threshold: {', '.join(disagreeing)}", file=sys.stderr)
        return 1
    print("all sweeps within threshold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
