#!/usr/bin/env python3
"""CPU cost of one quadrature evaluation of the relfisher oracle, by family
and space.

    python3 scripts/oracle_point_cost.py [--runs N] [--src SRC]

The package in SRC (default: the src/ tree next to this script) is imported
into this process. Each run integrates two grids with numeric_ir, each from
empty recurrence columns (specfun._LIVE, which holds the Laguerre panel
tables and the Gegenbauer point states) and an empty unit-integral store
(relative_fisher._UNIT_INTEGRALS), as a fresh CLI process starts them:

    default   the cells of `relfisher validate` (omega 1, Z 1)
    CO        the cells of `relfisher validate --system php --molecule CO
              --nr-max 60 --space position`

A cell's cost is the thread CPU time of its numeric_ir call. Cells served
from the store (their quadrature object came back before) are left out, so
each integral counts once. For each grid, family and space the script prints
the integrals and evaluations of one run, and the median and the least over
N runs (default 9) of CPU nanoseconds per evaluation, and then each grid's
total. On a shared host the least is the run that other load disturbed
least. Run it against two checkouts' src/, alternating, to compare the cost
of the oracle's point layer.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

GRIDS = {
    "default": ["validate"],
    "CO": ["validate", "--system", "php", "--molecule", "CO", "--nr-max", "60", "--space", "position"],
}


def _states(cli, argv: list[str]) -> list:
    """The states the CLI's validate sweep for argv takes, in its order: the
    state its row loop builds for each cell of its grids' number tuples."""
    args = cli.build_parser().parse_args(argv)
    families = [cli._FAMILIES[args.system]] if args.system else cli.FAMILIES
    spaces = [cli.POSITION, cli.MOMENTUM] if args.space == "both" else [args.space]
    grids = cli._grids(args, families, lambda family: cli._sweep_ranges(args, family), spaces, "empty grid")
    return [
        system.state(space, numbers) for system, _, combinations in grids for numbers in combinations for space in spaces
    ]


def _run(relfisher, states: list) -> dict[tuple[str, str], list[int]]:
    """(family, space) -> [CPU ns, evaluations, integrals] of one pass over
    states from empty columns and an empty store, and ("all", "") -> the
    pass's totals."""
    relfisher.specfun._LIVE.clear()
    relfisher.relative_fisher._UNIT_INTEGRALS.clear()
    numeric_ir = relfisher.relative_fisher.numeric_ir
    clock = time.thread_time_ns
    seen = []  # kept alive, so that no id is reused
    ids = set()
    totals: dict[tuple[str, str], list[int]] = {}
    for state in states:
        start = clock()
        quad = numeric_ir(state).quadrature
        elapsed = clock() - start
        if id(quad) in ids:
            continue
        ids.add(id(quad))
        seen.append(quad)
        for key in ((state.system.name, state.space), ("all", "")):
            total = totals.setdefault(key, [0, 0, 0])
            total[0] += elapsed
            total[1] += quad.evaluations
            total[2] += 1
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="passes over each grid (default 9)")
    parser.add_argument("--src", default=SRC, help="the src/ directory to import from")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    sys.path.insert(0, os.path.abspath(args.src))
    sys.dont_write_bytecode = True
    import relfisher.cli
    import relfisher.relative_fisher
    import relfisher.specfun

    print(f"oracle_point_cost: {args.runs} runs per grid, Python {sys.version.split()[0]}, {os.path.abspath(args.src)}")
    print(f"{'grid':8s} {'family':9s} {'space':9s} {'integrals':>9s} {'evaluations':>11s} {'ns/eval':>8s} {'least':>8s}")
    for grid, grid_argv in GRIDS.items():
        states = _states(relfisher.cli, grid_argv)
        runs = [_run(relfisher, states) for _ in range(args.runs)]
        for key in sorted(runs[0], key=lambda key: key == ("all", "")):
            _, evaluations, integrals = runs[0][key]
            per_eval = [run[key][0] / run[key][1] for run in runs]
            print(
                f"{grid:8s} {key[0]:9s} {key[1]:9s} {integrals:9d} {evaluations:11d} "
                f"{statistics.median(per_eval):8.0f} {min(per_eval):8.0f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
