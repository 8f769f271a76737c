#!/usr/bin/env python3
"""Per-call cost of a polynomial kernel that runs from degree 0 against one
that continues a stored recurrence state, by degree, for the two families
that keep recurrence columns (the Hermite kernel always runs from degree 0).

    python3 scripts/kernel_breakeven.py [--points 3000] [--repeats 9]

For each degree n it prints the median nanoseconds per call of three paths:

  scratch   the recurrence from degree 0 at every point;
  miss      a continuing kernel that finds no stored state, so it runs from
            degree 0 and stores its state;
  continue  a continuing kernel that finds the degree n-1 state at every
            point, so it runs one step and stores its state.

A continued call pays while `continue` < `scratch`. specfun's
_CONTINUE_FROM_DEGREE sits at the lowest degree from which that holds for
both families, allowing for run-to-run noise. Times depend on the interpreter
and the host; compare them only within one run.
"""
from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from relfisher import specfun  # noqa: E402

DEGREES = (2, 4, 6, 8, 9, 10, 11, 12, 14, 16, 20, 24, 32)

# (kernel factory, parameter, map from u in (0, 1) to a point inside the
# polynomial's oscillatory range)
FAMILIES = {
    "laguerre": (specfun.laguerre_kernel, 40.0, lambda n, u: u * (4.0 * n + 82.0)),
    "gegenbauer": (specfun.gegenbauer_kernel, 3.0, lambda n, u: 2.0 * u - 1.0),
}


def _per_call_ns(kernel, points) -> float:
    start = time.perf_counter()
    for x in points:
        kernel(x)
    return (time.perf_counter() - start) / len(points) * 1e9


def measure(family: str, n: int, unit_points: list[float], repeats: int) -> tuple[float, float, float]:
    make, parameter, place = FAMILIES[family]
    points = [place(n, u) for u in unit_points]
    scratch, miss, cont = [], [], []
    saved = specfun._CONTINUE_FROM_DEGREE
    try:
        for _ in range(repeats):
            specfun._CONTINUE_FROM_DEGREE = n + 1
            scratch.append(_per_call_ns(make(n, parameter), points))
            specfun._CONTINUE_FROM_DEGREE = 0
            specfun._LIVE.clear()
            make(n - 1, parameter)  # a lower degree, so degree n continues
            miss.append(_per_call_ns(make(n, parameter), points))
            specfun._LIVE.clear()
            make(n - 2, parameter)
            lower = make(n - 1, parameter)  # stores the degree n-1 state at each point
            for x in points:
                lower(x)
            cont.append(_per_call_ns(make(n, parameter), points))
    finally:
        specfun._CONTINUE_FROM_DEGREE = saved
        specfun._LIVE.clear()
    return statistics.median(scratch), statistics.median(miss), statistics.median(cont)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=3000)
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    rng = random.Random(5)
    unit_points = [rng.uniform(0.02, 0.98) for _ in range(args.points)]
    print("family,n,scratch_ns,miss_ns,continue_ns")
    for family in FAMILIES:
        for n in DEGREES:
            scratch, miss, cont = measure(family, n, unit_points, args.repeats)
            print(f"{family},{n},{scratch:.0f},{miss:.0f},{cont:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
