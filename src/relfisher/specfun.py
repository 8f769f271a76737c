"""Orthogonal-polynomial kernels with analytic derivatives, and log-gamma.

Each family has one kernel. `laguerre_kernel` and `gegenbauer_kernel` bind a
degree and a parameter once: they validate them, take the coefficients of the
forward three-term recurrence, and return a closure x -> (value, derivative).
The closure runs one recurrence pass in double precision and reads both the
value and the derivative off it through index-shift identities, rather than
finite differences, so the two are consistent to machine precision at any
argument.

Degree sweeps continue their recurrences. A family's column holds, for one
parameter (alpha + 1, exactly), the recurrence coefficients shared by every
degree and the state reached at each point: the degree and the last two terms
(three for Gegenbauer). _bind gives a kernel its column's state table when its
degree n is at least _CONTINUE_FROM_DEGREE and the column already served a
lower degree. With the table, at x it runs on from the stored state when that
state's degree is <= n, and from degree 0 otherwise, and stores the state it
reached; without it, it runs from degree 0 and stores nothing. The
floating-point operations are those of a pass from degree 0, in the same
order, so every value is bit-identical to it (a point is keyed by its value,
so -0.0 continues the state of 0.0).

The columns of the two most recently compiled parameters of each family stay
alive; a third parameter drops the older. A kernel keeps its own column, so
it stays correct after a switch, and a column drops its states once it holds
more than _MAX_STATES points. Sweeps ascending in degree at a fixed parameter
gain: the pseudoharmonic molecules, `compute --validate --nr A..B --l L`, and
the 1D oscillator, whose Laguerre parameter alternates between alpha = -1/2
and +1/2 with the parity of n. Sweeps that change the parameter at every cell
(the default 3D oscillator and hydrogen sweeps, l innermost) and cells below
degree 10 gain nothing.
"""
from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "laguerre_kernel",
    "gegenbauer_kernel",
    "ln_gamma",
]

Kernel = Callable[[float], tuple[float, float]]

# Below this degree a pass from degree 0 costs less than a continued call,
# whose lookup and store cost about as much as eight recurrence steps; such
# kernels neither read nor write a column. scripts/kernel_breakeven.py
# measures both paths by degree (CPython 3.11, 2-core VM: see CHANGES.md).
_CONTINUE_FROM_DEGREE = 10

# A column drops its states when a kernel is compiled on it while it holds
# more than this many points, about 11 MB: a process that sweeps many scales
# on one column would otherwise keep the points of all of them. One sweep
# stores a few thousand (4,600 per column: the 1D oscillator to n = 188).
_MAX_STATES = 1 << 16


class _Column:
    """One parameter's recurrence: the coefficients of steps 0, 1, ..., shared
    by every degree, the state reached at each point, x -> (degree, terms),
    and the lowest degree compiled on it. The parameter is its key in
    _LIVE[family]."""

    __slots__ = ("steps", "states", "lowest")

    def __init__(self, lowest: int) -> None:
        self.steps: tuple = ()
        self.states: dict[float, tuple] = {}
        self.lowest = lowest


# The live columns of each family by parameter, the most recently compiled last.
_LIVE_COLUMNS = 2
_LIVE: dict[str, dict[float, _Column]] = {}


def _bind(family: str, parameter: float, n: int, coefficients) -> tuple[tuple, dict | None]:
    """The recurrence coefficients of at least n steps, and the state table a
    degree-n kernel continues in, or None when it runs from degree 0 at
    every point.

    A kernel continues only when its column already served a lower degree, so
    sweeps that change the parameter at every cell, or that never ascend in
    degree, pay no lookups and store no states.
    """
    if n < _CONTINUE_FROM_DEGREE:
        return tuple(coefficients(parameter, 0, n)), None
    live = _LIVE.setdefault(family, {})
    column = live[parameter] = live.pop(parameter, None) or _Column(n)
    if len(live) > _LIVE_COLUMNS:
        del live[next(iter(live))]
    steps = column.steps
    if len(steps) < n:
        # Replaced, never extended in place, and each state is stored as one
        # tuple: callers in other threads can lose a store, never corrupt one.
        steps = column.steps = steps + tuple(coefficients(parameter, len(steps), n))
    if len(column.states) > _MAX_STATES:
        column.states.clear()
    continues = column.lowest < n
    column.lowest = min(column.lowest, n)
    return steps, column.states if continues else None


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer, got {n!r}")


def _laguerre_steps(a: float, start: int, stop: int) -> list[tuple[float, float, float]]:
    return [
        ((2.0 * k + 1.0 + a) / (k + 1.0), 1.0 / (k + 1.0), (k + a) / (k + 1.0))
        for k in range(start, stop)
    ]


def laguerre_kernel(n: int, alpha: float) -> Kernel:
    """Generalized Laguerre polynomial L_n^alpha(x), alpha > -1.

    One pass of the recurrence at a = alpha + 1,
    L_{k+1}^a = ((2k+1+a)/(k+1) - x/(k+1)) L_k^a - (k+a)/(k+1) L_{k-1}^a,
    gives L_n^a and L_{n-1}^a, and with them
    L_n^alpha = L_n^a - L_{n-1}^a and d/dx L_n^alpha = -L_{n-1}^a.
    """
    _check_degree(n)
    if alpha <= -1.0:
        raise ValueError(f"assoc_laguerre requires alpha > -1, got {alpha}")
    all_steps, states = _bind("laguerre", alpha + 1.0, n, _laguerre_steps)
    steps = all_steps[:n]

    def kernel(x: float) -> tuple[float, float]:
        run, prev, cur = steps, 0.0, 1.0
        if states is not None:
            state = states.get(x)
            if state is not None and state[0] <= n:
                k, prev, cur = state
                if k == n - 1:
                    # One step, as a degree sweep takes at nearly every point.
                    a_k, c_k, b_k = all_steps[k]
                    prev, cur = cur, (a_k - c_k * x) * cur - b_k * prev
                    states[x] = (n, prev, cur)
                    return cur - prev, -prev
                run = all_steps[k:n]
        for a_k, c_k, b_k in run:
            prev, cur = cur, (a_k - c_k * x) * cur - b_k * prev
        if states is not None:
            states[x] = (n, prev, cur)
        return cur - prev, -prev

    return kernel


def _gegenbauer_steps(g: float, start: int, stop: int) -> list[tuple[float, float]]:
    return [(2.0 * (k + g) / (k + 1.0), (k + 2.0 * g - 1.0) / (k + 1.0)) for k in range(start, stop)]


def gegenbauer_kernel(n: int, alpha: float) -> Kernel:
    """Gegenbauer (ultraspherical) polynomial C_n^alpha(x), alpha > 0.

    One pass of the recurrence at g = alpha + 1,
    C_{k+1}^g = 2(k+g)/(k+1) x C_k^g - (k+2g-1)/(k+1) C_{k-1}^g,
    gives C_n^g, C_{n-1}^g and C_{n-2}^g, and with them
    C_n^alpha = alpha/(n+alpha) (C_n^g - C_{n-2}^g) and
    d/dx C_n^alpha = 2*alpha*C_{n-1}^g.
    """
    _check_degree(n)
    if alpha <= 0.0:
        raise ValueError(f"gegenbauer requires alpha > 0, got {alpha}")
    all_steps, states = _bind("gegenbauer", alpha + 1.0, n, _gegenbauer_steps)
    steps = all_steps[:n]
    ratio = alpha / (n + alpha)
    two_alpha = 2.0 * alpha

    def kernel(x: float) -> tuple[float, float]:
        run, before, prev, cur = steps, 0.0, 0.0, 1.0
        if states is not None:
            state = states.get(x)
            if state is not None and state[0] <= n:
                k, before, prev, cur = state
                run = all_steps[k:n]
        for a_k, b_k in run:
            before, prev, cur = prev, cur, a_k * x * cur - b_k * prev
        if states is not None:
            states[x] = (n, before, prev, cur)
        return ratio * (cur - before), two_alpha * prev

    return kernel


# One-point forms. Not part of the API and not called in the package; kept
# only as the names perfbench/layers.py times. The Laguerre and Gegenbauer
# forms compile a kernel and call it once; no system uses a Hermite kernel, so
# hermite runs its recurrence directly.
def hermite(n: int, x: float) -> tuple[float, float]:
    """Physicists' Hermite polynomial H_n(x) with derivative 2*n*H_{n-1}(x),
    by H_{k+1} = 2*x*H_k - 2*k*H_{k-1} from H_0 = 1, H_{-1} = 0 at every call."""
    _check_degree(n)
    prev, cur = 0.0, 1.0
    two_x = 2.0 * x
    for k in range(n):
        prev, cur = cur, two_x * cur - 2.0 * k * prev
    return cur, 2.0 * n * prev


def assoc_laguerre(n: int, alpha: float, x: float) -> tuple[float, float]:
    return laguerre_kernel(n, alpha)(x)


def gegenbauer(n: int, alpha: float, x: float) -> tuple[float, float]:
    return gegenbauer_kernel(n, alpha)(x)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)
