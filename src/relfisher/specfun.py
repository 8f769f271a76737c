"""Orthogonal-polynomial kernels with analytic derivatives, and log-gamma.

Each family has one kernel. `laguerre_kernel` and `gegenbauer_kernel` bind a
degree and a parameter once: they validate them, take the coefficients of the
forward three-term recurrence, and return a closure x -> (value, derivative).
The closure runs one recurrence pass from degree 0 in double precision and
reads both the value and the derivative off it through index-shift
identities, rather than finite differences, so the two are consistent to
machine precision at any argument. The kernels serve compile_state and
normalization_defect, and touch no column.

Degree sweeps continue their recurrences in columns, which serve only the
oracle's panel loops (relfisher._evaluators), each running its steps inline
at every node. A family's column holds, for one parameter (alpha + 1,
exactly), the recurrence coefficients shared by every degree and a table:

    laguerre    `laguerre_column`, for oscillator_panel: a panel's key -> its
                node table and each node's (degree, L_{degree-1}, L_degree),
                looked up once and stored back whole
    gegenbauer  `gegenbauer_column`, for momentum_panel: a node's q -> its
                (degree, C_{degree-2}, C_{degree-1}, C_degree)

A node continues its state when that state's degree is <= n, and runs from
degree 0 otherwise; a degree gets its column's table only when the column
already served a lower degree, otherwise it runs from degree 0 and stores
nothing. The floating-point operations are the kernel's, in the same order,
so every sample is bit-identical to a pass from degree 0 (q keys a
Gegenbauer state, so -0.0 continues the state of 0.0).

The columns of the two most recently bound parameters of each family stay
alive; a third parameter drops the older. A panel keeps its own column, so
it stays correct after a switch, and a column drops its table once it holds
more than _MAX_STATES nodes. Sweeps ascending in degree at a fixed parameter
gain: the pseudoharmonic molecules, `compute --validate --nr A..B --l L`,
hydrogen momentum at a fixed l, and the 1D oscillator, whose Laguerre
parameter alternates between alpha = -1/2 and +1/2 with the parity of n.
Sweeps that change the parameter at every cell (the default 3D oscillator
and hydrogen sweeps, l innermost) gain nothing.
"""
from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "laguerre_kernel",
    "laguerre_column",
    "gegenbauer_kernel",
    "gegenbauer_column",
    "ln_gamma",
]

Kernel = Callable[[float], tuple[float, float]]

# (n, the recurrence steps of at least n steps, the column's table or None):
# a degree bound for an oracle panel loop.
Column = tuple[int, tuple, dict | None]

# A panel loop pays its table's lookup at every degree, so a column has no
# degree below which it is left alone: on one CO panel (CPython 3.11.7,
# 2-core VM, least of 9 repeats of 2,000 calls) a Laguerre panel continued
# one step took 30 us against 43 us from degree 0 at degree 2, and 29
# against 74 us at degree 12; storing a panel the table lacks costs about
# 20 us more than a pass from degree 0, once.

# A column drops its table when a degree is bound on it while it holds more
# than this many nodes, about 7 MB of Laguerre panels or 13 MB of
# Gegenbauer nodes: a process that sweeps many scales on one column would
# otherwise keep the states of all of them. Measured with tracemalloc, a
# Laguerre panel holds 31 nodes in about 3.3 kB, 108 bytes a node (the 1D
# oscillator to n = 300: 247 panels, 0.82 MB), and a Gegenbauer state is one
# node of 195 bytes (hydrogen momentum at l = 0 to n = 120: 5,936 nodes).
# One sweep stores a few thousand nodes.
_MAX_STATES = 1 << 16
# The nodes of an oracle panel (quadrature._GK31): an entry of a Laguerre table.
_PANEL_NODES = 31


class _Column:
    """One parameter's recurrence: the coefficients of steps 0, 1, ..., shared
    by every degree, the table of states (see the module docstring), and
    the lowest degree bound on it. The parameter is its key in _LIVE[family]."""

    __slots__ = ("steps", "states", "lowest")

    def __init__(self, lowest: int) -> None:
        self.steps: tuple = ()
        self.states: dict = {}
        self.lowest = lowest


# The live columns of each family by parameter, the most recently bound last.
_LIVE_COLUMNS = 2
_LIVE: dict[str, dict[float, _Column]] = {}


def _bind(family: str, parameter: float, n: int, coefficients, nodes: int) -> tuple[tuple, dict | None]:
    """The recurrence coefficients of at least n steps, and the table a
    degree-n pass continues in, or None when it runs from degree 0 at every
    point. An entry of the table holds nodes nodes.

    A degree continues only when its column already served a lower degree, so
    sweeps that change the parameter at every cell, or that never ascend in
    degree, pay no lookups and store no states.
    """
    live = _LIVE.setdefault(family, {})
    column = live[parameter] = live.pop(parameter, None) or _Column(n)
    if len(live) > _LIVE_COLUMNS:
        del live[next(iter(live))]
    steps = column.steps
    if len(steps) < n:
        # Replaced, never extended in place, and each entry is stored as one
        # tuple: callers in other threads can lose a store, never corrupt one.
        steps = column.steps = steps + tuple(coefficients(parameter, len(steps), n))
    if len(column.states) * nodes > _MAX_STATES:
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


def _check_laguerre(n: int, alpha: float) -> None:
    _check_degree(n)
    if alpha <= -1.0:
        raise ValueError(f"assoc_laguerre requires alpha > -1, got {alpha}")


def laguerre_kernel(n: int, alpha: float) -> Kernel:
    """Generalized Laguerre polynomial L_n^alpha(x), alpha > -1.

    One pass of the recurrence at a = alpha + 1,
    L_{k+1}^a = ((2k+1+a)/(k+1) - x/(k+1)) L_k^a - (k+a)/(k+1) L_{k-1}^a,
    gives L_n^a and L_{n-1}^a, and with them
    L_n^alpha = L_n^a - L_{n-1}^a and d/dx L_n^alpha = -L_{n-1}^a.
    """
    _check_laguerre(n, alpha)
    steps = tuple(_laguerre_steps(alpha + 1.0, 0, n))

    def kernel(x: float) -> tuple[float, float]:
        prev, cur = 0.0, 1.0
        for a_k, c_k, b_k in steps:
            prev, cur = cur, (a_k - c_k * x) * cur - b_k * prev
        return cur - prev, -prev

    return kernel


def laguerre_column(n: int, alpha: float) -> Column:
    """laguerre_kernel's pass for the oracle's panel loop: n, the steps of
    the column of alpha + 1 (at least n of them, the same coefficients as
    the kernel's) and the column's panel table, or None when the panels of
    this degree run from degree 0 and store nothing."""
    _check_laguerre(n, alpha)
    return (n, *_bind("laguerre", alpha + 1.0, n, _laguerre_steps, _PANEL_NODES))


def _gegenbauer_steps(g: float, start: int, stop: int) -> list[tuple[float, float]]:
    return [(2.0 * (k + g) / (k + 1.0), (k + 2.0 * g - 1.0) / (k + 1.0)) for k in range(start, stop)]


def _check_gegenbauer(n: int, alpha: float) -> None:
    _check_degree(n)
    if alpha <= 0.0:
        raise ValueError(f"gegenbauer requires alpha > 0, got {alpha}")


def gegenbauer_kernel(n: int, alpha: float) -> Kernel:
    """Gegenbauer (ultraspherical) polynomial C_n^alpha(x), alpha > 0.

    One pass of the recurrence at g = alpha + 1,
    C_{k+1}^g = 2(k+g)/(k+1) x C_k^g - (k+2g-1)/(k+1) C_{k-1}^g,
    gives C_n^g, C_{n-1}^g and C_{n-2}^g, and with them
    C_n^alpha = alpha/(n+alpha) (C_n^g - C_{n-2}^g) and
    d/dx C_n^alpha = 2*alpha*C_{n-1}^g.
    """
    _check_gegenbauer(n, alpha)
    steps = tuple(_gegenbauer_steps(alpha + 1.0, 0, n))
    ratio = alpha / (n + alpha)
    two_alpha = 2.0 * alpha

    def kernel(x: float) -> tuple[float, float]:
        before, prev, cur = 0.0, 0.0, 1.0
        for a_k, b_k in steps:
            before, prev, cur = prev, cur, a_k * x * cur - b_k * prev
        return ratio * (cur - before), two_alpha * prev

    return kernel


def gegenbauer_column(n: int, alpha: float) -> Column:
    """gegenbauer_kernel's pass for the oracle's momentum panel loop: n, the
    steps of the column of alpha + 1 (at least n of them, the same
    coefficients as the kernel's) and the column's table of node states, or
    None when the panels of this degree run from degree 0 and store nothing."""
    _check_gegenbauer(n, alpha)
    return (n, *_bind("gegenbauer", alpha + 1.0, n, _gegenbauer_steps, 1))


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
