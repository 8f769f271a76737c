"""Orthogonal-polynomial kernels with analytic derivatives, and log-gamma.

Each family has one kernel. `hermite_kernel`, `laguerre_kernel` and
`gegenbauer_kernel` bind a degree and a parameter once: they validate them and
tabulate the coefficients of the forward three-term recurrence, and return a
closure x -> (value, derivative). The closure runs one recurrence pass in
double precision and reads both the value and the derivative off it through
index-shift identities, rather than finite differences, so the two are
consistent to machine precision at any argument. `hermite`, `assoc_laguerre`
and `gegenbauer` are the one-point forms: compile, then call once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "PolyEval",
    "hermite_kernel",
    "laguerre_kernel",
    "gegenbauer_kernel",
    "hermite",
    "assoc_laguerre",
    "gegenbauer",
    "ln_gamma",
]

Kernel = Callable[[float], tuple[float, float]]


@dataclass(frozen=True)
class PolyEval:
    """Polynomial value and first derivative at a single point."""

    value: float
    derivative: float


def _check_degree(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"polynomial degree must be a non-negative integer, got {n!r}")


def hermite_kernel(n: int) -> Kernel:
    """Physicists' Hermite polynomial H_n(x) with derivative 2*n*H_{n-1}(x).

    Recurrence: H_{k+1} = 2*x*H_k - 2*k*H_{k-1}, H_0 = 1, H_{-1} = 0.
    """
    _check_degree(n)
    steps = tuple(2.0 * k for k in range(n))
    two_n = 2.0 * n

    def kernel(x: float) -> tuple[float, float]:
        two_x = 2.0 * x
        prev = 0.0
        cur = 1.0
        for two_k in steps:
            prev, cur = cur, two_x * cur - two_k * prev
        return cur, two_n * prev

    return kernel


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
    a = alpha + 1.0
    steps = tuple(
        ((2.0 * k + 1.0 + a) / (k + 1.0), 1.0 / (k + 1.0), (k + a) / (k + 1.0)) for k in range(n)
    )

    def kernel(x: float) -> tuple[float, float]:
        prev = 0.0
        cur = 1.0
        for a_k, c_k, b_k in steps:
            prev, cur = cur, (a_k - c_k * x) * cur - b_k * prev
        return cur - prev, -prev

    return kernel


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
    g = alpha + 1.0
    steps = tuple((2.0 * (k + g) / (k + 1.0), (k + 2.0 * g - 1.0) / (k + 1.0)) for k in range(n))
    ratio = alpha / (n + alpha)
    two_alpha = 2.0 * alpha

    def kernel(x: float) -> tuple[float, float]:
        before = 0.0
        prev = 0.0
        cur = 1.0
        for a_k, b_k in steps:
            before, prev, cur = prev, cur, a_k * x * cur - b_k * prev
        return ratio * (cur - before), two_alpha * prev

    return kernel


def hermite(n: int, x: float) -> PolyEval:
    """H_n(x) and its derivative at one point; see hermite_kernel."""
    return PolyEval(*hermite_kernel(n)(x))


def assoc_laguerre(n: int, alpha: float, x: float) -> PolyEval:
    """L_n^alpha(x) and its derivative at one point; see laguerre_kernel."""
    return PolyEval(*laguerre_kernel(n, alpha)(x))


def gegenbauer(n: int, alpha: float, x: float) -> PolyEval:
    """C_n^alpha(x) and its derivative at one point; see gegenbauer_kernel."""
    return PolyEval(*gegenbauer_kernel(n, alpha)(x))


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not x > 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)
