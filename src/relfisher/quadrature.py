"""Adaptive Gauss-Kronrod quadrature on the half line (0, inf).

The half line is mapped to t in (0, 1) by the rational transform
s = scale * t / (1 - t). All rules are open: neither endpoint of any panel is
ever evaluated, so integrands may be singular or undefined at s = 0 and need
only decay at infinity. Nothing integrates over the full line: the one
full-line integrand in use, the 1D oscillator's, is even, and its caller
integrates twice it over the half line. Non-convergence is reported through
the result, never silently; a non-finite integrand sample aborts with the
offending node in the message.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "IntegrandError",
    "NonConvergedError",
    "integrate",
]

# Gauss-Kronrod 7/15 nodes on (-1, 1) with Kronrod and embedded Gauss weights.
# The 7-point Gauss nodes are the zero-gauss-weight-free subset.
_GK15 = (
    (-0.991455371120813, 0.022935322010529, 0.0),
    (-0.949107912342759, 0.063092092629979, 0.129484966168870),
    (-0.864864423359769, 0.104790010322250, 0.0),
    (-0.741531185599394, 0.140653259715525, 0.279705391489277),
    (-0.586087235467691, 0.169004726639267, 0.0),
    (-0.405845151377397, 0.190350578064785, 0.381830050505119),
    (-0.207784955007898, 0.204432940075298, 0.0),
    (0.0, 0.209482141084728, 0.417959183673469),
    (0.207784955007898, 0.204432940075298, 0.0),
    (0.405845151377397, 0.190350578064785, 0.381830050505119),
    (0.586087235467691, 0.169004726639267, 0.0),
    (0.741531185599394, 0.140653259715525, 0.279705391489277),
    (0.864864423359769, 0.104790010322250, 0.0),
    (0.949107912342759, 0.063092092629979, 0.129484966168870),
    (0.991455371120813, 0.022935322010529, 0.0),
)

_INITIAL_PANELS = 16
_MAX_PANELS = 20000


class IntegrandError(ValueError):
    """The integrand returned a non-finite value at a quadrature node."""


class NonConvergedError(RuntimeError):
    """Raised by callers that require a converged quadrature result."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and scale configuration for one integration over (0, inf).

    scale is the integrand's natural length: the transform places t = 1/2
    at s = scale, so it should sit near where the integrand lives.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_refinements: int = 20
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be >= 1")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration.

    converged guarantees error_estimate <= max(rel_tol*|value|, abs_tol).
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _eval_panel(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| error estimate on [a, b] in t-space."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    kron = 0.0
    gauss = 0.0
    for u, wk, wg in _GK15:
        t = c + h * u
        v = g(t)
        kron += wk * v
        gauss += wg * v
    return h * kron, abs(h * (kron - gauss))


def integrate(f: Callable[[float], float], spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate f over (0, inf)."""
    if spec is None:
        spec = QuadratureSpec()
    scale = spec.scale

    def g(t: float) -> float:
        one_minus = 1.0 - t
        s = scale * t / one_minus
        v = f(s)
        if not math.isfinite(v):
            raise IntegrandError(f"integrand returned {v!r} at s = {s!r} (t = {t!r})")
        return v * scale / (one_minus * one_minus)

    edges = [k / _INITIAL_PANELS for k in range(_INITIAL_PANELS + 1)]
    panels = []
    evaluations = 0
    for a, b in zip(edges[:-1], edges[1:]):
        panels.append((a, b) + _eval_panel(g, a, b))
        evaluations += 15

    for _ in range(spec.max_refinements):
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        tol = max(spec.rel_tol * abs(total), spec.abs_tol)
        if err <= tol:
            break
        share = tol / (2.0 * len(panels))
        refined = []
        split = 0
        for a, b, val, perr in panels:
            if perr > share and len(panels) + split < _MAX_PANELS:
                mid = 0.5 * (a + b)
                refined.append((a, mid) + _eval_panel(g, a, mid))
                refined.append((mid, b) + _eval_panel(g, mid, b))
                evaluations += 30
                split += 1
            else:
                refined.append((a, b, val, perr))
        if split == 0:
            break
        panels = refined

    total = math.fsum(p[2] for p in panels)
    err = math.fsum(p[3] for p in panels)
    converged = err <= max(spec.rel_tol * abs(total), spec.abs_tol)
    return QuadratureResult(total, err, evaluations, converged)
