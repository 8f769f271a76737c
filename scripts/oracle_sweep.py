#!/usr/bin/env python3
"""Sweep the quadrature oracle against every closed form, per system and space.

Each sweep writes its cell table to <out>/<system>_<space>.csv and prints a
one-line summary to stderr. The hydrogen momentum sweep is expected to
report disagreements: the bundled closed form does not satisfy the defining
integral for states with radial nodes. The script reports that honestly.

Exit status: 0 when every sweep is within threshold, 1 when some sweep has
cells over threshold or non-converged quadrature (validate exit 3), and 2
when some sweep could not run (validate exit 2, usage, or 4, I/O), whatever
the others found.
"""

import argparse
import os
import sys

from relfisher.cli import EXIT_OK, EXIT_VALIDATION
from relfisher.cli import main as cli_main
from relfisher.systems import FAMILIES, SPACES


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
    failed = []
    for system in (family.name for family in FAMILIES):
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
            if code == EXIT_VALIDATION:
                disagreeing.append(f"{system} {space}")
            elif code != EXIT_OK:
                failed.append(f"{system} {space} (exit {code})")

    if disagreeing:
        print(f"sweeps with cells over threshold: {', '.join(disagreeing)}", file=sys.stderr)
    if failed:
        print(f"sweeps that failed to run: {', '.join(failed)}", file=sys.stderr)
        return 2
    if disagreeing:
        return 1
    print("all sweeps within threshold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
