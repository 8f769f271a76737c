#!/usr/bin/env python3
"""Regenerate every bundled reference table and figure series.

Writes table1, table3, and the four figure1 series into one directory.
Exit status is nonzero if any regeneration fails.
"""

import argparse
import sys

from relfisher.cli import main as cli_main
from relfisher.data_units import CONSTANT_PROFILES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--constants",
        choices=sorted(CONSTANT_PROFILES),
        default="paper",
        help="unit-conversion constants profile",
    )
    args = parser.parse_args()

    status = 0
    for target in ("table1", "table3", "figure1"):
        code = cli_main(
            [
                "reproduce",
                target,
                "--out",
                args.out,
                "--format",
                args.format,
                "--constants",
                args.constants,
            ]
        )
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
