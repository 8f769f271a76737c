#!/usr/bin/env python3
"""Classify the quadrature oracle's outcome on a grid of extreme-scale states.

    python3 scripts/oracle_extremes.py > extremes.txt

Each cell runs numeric_ir on one state of the src/ tree next to this script
and compares the result with the exact value: the closed form, and for
hydrogen in momentum space hydrogen_momentum_integral_closed_form, which is
what the defining integral equals. A cell is one of

    ok               converged and within the tolerance below
    silently-wrong   converged, but |numeric - exact| > 1e-8 * max(|exact|, unit)
    non-converged    the quadrature reports that it did not converge
    raised           numeric_ir raised; the exception class is printed

where unit is the system's closed-form spacing (for hydrogen, Z^2 in position
space and 1/Z^2 in momentum space), so that a reference state, whose exact
value is 0, has a scale. Grid, each state in both spaces:

    1D oscillator   omega 1e+-160, 1e+-100, 1e+-10, 1   n = 0..30 step 5
    hydrogen        Z 1e+-150, 1e+-100, 1e+-10         n = 1..30 step 6,
                                                        l = 0..n-1 step 7
    3D oscillator   omega 1e+-150, 1e+-100              n_r = 0..30 step 5,
                                                        l = 0..28 step 7

One line per cell on stdout (class, evaluations, state), then a count per
class on stderr; the exit status is 1 if any cell is not ok. Run it in two
checkouts and diff stdout to see which cells a change moves from one class
to another.
"""
from __future__ import annotations

import collections
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from relfisher.relative_fisher import (  # noqa: E402
    hydrogen_momentum_integral_closed_form,
    numeric_ir,
)
from relfisher.systems import (  # noqa: E402
    POSITION,
    SPACES,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    QuantumState,
)

TOLERANCE = 1e-8
CLASSES = ("ok", "silently-wrong", "non-converged", "raised")


def states():
    for omega in (1e-160, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e160):
        system = Oscillator1D(omega=omega)
        for n in range(0, 31, 5):
            for space in SPACES:
                yield QuantumState(system, space, n=n)
    for Z in (1e-150, 1e-100, 1e-10, 1e10, 1e100, 1e150):
        system = Hydrogenic(Z=Z)
        for n in range(1, 31, 6):
            for l in range(0, n, 7):
                for space in SPACES:
                    yield QuantumState(system, space, n=n, l=l)
    for omega in (1e-150, 1e-100, 1e100, 1e150):
        system = Oscillator3D(omega=omega)
        for n_r in range(0, 31, 5):
            for l in range(0, 31, 7):
                for space in SPACES:
                    yield QuantumState(system, space, n_r=n_r, l=l)


def exact_and_unit(state: QuantumState, closed_form: float) -> tuple[float, float]:
    system = state.system
    if isinstance(system, Hydrogenic):
        z2 = system.Z * system.Z
        if state.space == POSITION:
            return closed_form, z2
        return hydrogen_momentum_integral_closed_form(state.n, state.l, system.Z), 1.0 / z2
    return closed_form, system.spacing(state.space)


def classify(state: QuantumState) -> tuple[str, int | None]:
    try:
        result = numeric_ir(state)
    except Exception as exc:  # every failure is an outcome to tabulate
        return f"raised:{type(exc).__name__}", None
    quad = result.quadrature
    if not quad.converged:
        return "non-converged", quad.evaluations
    exact, unit = exact_and_unit(state, result.closed_form)
    if not abs(result.numeric - exact) <= TOLERANCE * max(abs(exact), unit):
        return "silently-wrong", quad.evaluations
    return "ok", quad.evaluations


def main() -> int:
    counts: collections.Counter[str] = collections.Counter()
    for state in states():
        outcome, evaluations = classify(state)
        counts[outcome.split(":")[0]] += 1
        shown = "-" if evaluations is None else evaluations
        print(f"{outcome:<22} {shown:>8} {state.system!r} {state.space} {state.system.label(state.numbers)}",
              flush=True)
    print(" ".join(f"{name}={counts[name]}" for name in CLASSES), file=sys.stderr)
    return 0 if counts["ok"] == sum(counts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
