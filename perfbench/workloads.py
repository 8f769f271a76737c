"""The benchmark's workloads: each is one `relfisher` command line, built from a seed.

The seed picks parameters from fixed lists. It never changes the shape of a
grid, so every seed runs the same number of cells; at the commit the benchmark
was defined on, quadrature evaluation counts do not depend on omega or Z.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

OMEGAS = (0.5, 1.0, 2.0)
ZS = (1.0, 2.0, 3.0)
# H2 is left out: its grid takes 125,310 quadrature evaluations against
# 138,600 to 142,230 for these five, which would widen the spread between seeds.
MOLECULES = ("Na2", "Cl2", "O2+", "CO", "NO")
HIGH_DEGREE_NR_MAX = 60


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload: its arguments and what the gate expects of it."""

    argv: tuple[str, ...]
    kind: str  # "validate" or "compute"
    variant: dict


def _fmt(value: float) -> str:
    return format(value, "g")


def validate_default(rng: random.Random) -> Invocation:
    omega, z = rng.choice(OMEGAS), rng.choice(ZS)
    return Invocation(
        argv=("validate", "--omega", _fmt(omega), "--Z", _fmt(z)),
        kind="validate",
        variant={"omega": omega, "Z": z},
    )


def validate_high_degree(rng: random.Random) -> Invocation:
    molecule = rng.choice(MOLECULES)
    return Invocation(
        argv=("validate", "--system", "php", "--molecule", molecule,
              "--nr-max", str(HIGH_DEGREE_NR_MAX), "--space", "position"),
        kind="validate",
        variant={"molecule": molecule},
    )


def compute_closed_form(rng: random.Random) -> Invocation:
    z = rng.choice(ZS)
    return Invocation(
        argv=("compute", "--system", "hydrogen", "--Z", _fmt(z), "--n", "1..200",
              "--l", "0..199", "--space", "both", "--out", "{out}"),
        kind="compute",
        variant={"Z": z},
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], Invocation]

    def invocation(self, seed: int) -> Invocation:
        return self.build(random.Random(f"{self.name}:{seed}"))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate-default",
            "relfisher validate --omega W --Z Z: 270 low-degree oracle cells, where per-point "
            "overhead (php_derived, ln_gamma, dispatch, allocation) dominates",
            validate_default,
        ),
        Workload(
            "validate-high-degree",
            "relfisher validate --system php --molecule M --nr-max 60 --space position: 61 cells "
            "up to degree 60, where the polynomial recurrences dominate and cost grows as n^2",
            validate_high_degree,
        ),
        Workload(
            "compute-closed-form",
            "relfisher compute --system hydrogen --Z Z --n 1..200 --l 0..199 --space both: "
            "40,200 closed-form rows; CLI, state validation and CSV, no quadrature",
            compute_closed_form,
        ),
    )
}

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "specfun": "cells_per_ref on validate-high-degree (most) and validate-default (about 25%); "
               "not compute-closed-form",
    "wavefunctions": "cells_per_ref on validate-default",
    "systems": "cells_per_ref on validate-default and compute-closed-form",
    "quadrature": "cells_per_ref on both validate workloads (evaluations scale every per-point layer)",
    "relative_fisher": "per-cell spans behind cells_per_ref on the validate workloads",
    "cli": "cells_per_ref and peak_rss_mb on compute-closed-form",
}
