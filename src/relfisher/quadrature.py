"""Adaptive Gauss-Kronrod quadrature on the half line (0, inf).

The half line is mapped to t in (0, 1) by the rational transform
s = scale * t / (1 - t). All rules are open: neither endpoint of any panel is
ever evaluated, so integrands may be singular or undefined at s = 0 and need
only decay at infinity. Nothing integrates over the full line: the one
full-line integrand in use, the 1D oscillator's, is even, and its caller
integrates twice it over the half line. Non-convergence is reported through
the result, never silently; a non-finite weighted sample aborts with the
offending node in the message, and a panel sum that overflows with the
offending panel.

Each panel is integrated with the 31-point Kronrod extension of the 15-point
Gauss rule (QUADPACK's dqk31), 31 integrand evaluations per panel. The
integral starts on 7 equal panels in t and bisects every panel whose error
estimate exceeds its share of the tolerance, for up to 20 rounds and up to
10,000 panels. A spec may name break points, as QUADPACK's dqagp takes them:
the initial edges are then t = 0, the breaks' t-images and t = 1, and no
uniform edge is kept. The oracle breaks every Laguerre integral at the
points of a fixed lattice across the state's classical window (see
systems._lattice), so consecutive degrees share their initial panels; the
integrand only falls beyond the last break, so the panel from there to
t = 1 needs no cut. On the pseudoharmonic CO sweep n_r = 0..60 at rel_tol
1e-10 this takes 43,152 evaluations in all, in either space. On the default
validate grid the 171 integrals take 37,231, the pseudoharmonic ones 13,826,
integrated in one space only, since relative_fisher.numeric_ir gives the
other space the same unit-scale integral.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "IntegrandError",
    "NonConvergedError",
    "integrate",
]

# Gauss-Kronrod 15/31 rule on (-1, 1), as QUADPACK's dqk31 (Piessens et al.,
# QUADPACK, 1983; Laurie, Math. Comp. 66, 1997): rows of (node, Kronrod
# weight, embedded 15-point Gauss weight), each the correctly rounded double
# of a 120-digit value. The Kronrod-only nodes are the zeros of the Stieltjes
# polynomial E_16, and their Gauss weight is 0.0. The Kronrod rule is exact
# for degree 46 and the Gauss rule for degree 29, so a panel's error
# estimate |K31 - G15| is that of the 15-point Gauss rule.
_GK31 = (
    (-0.9980022986933971, 0.005377479872923349, 0.0),
    (-0.9879925180204854, 0.015007947329316122, 0.03075324199611727),
    (-0.9677390756791391, 0.02546084732671532, 0.0),
    (-0.937273392400706, 0.03534636079137585, 0.07036604748810812),
    (-0.8972645323440819, 0.04458975132476488, 0.0),
    (-0.8482065834104272, 0.05348152469092809, 0.10715922046717194),
    (-0.790418501442466, 0.06200956780067064, 0.0),
    (-0.7244177313601701, 0.06985412131872826, 0.13957067792615432),
    (-0.650996741297417, 0.07684968075772038, 0.0),
    (-0.5709721726085388, 0.08308050282313302, 0.16626920581699392),
    (-0.4850818636402397, 0.08856444305621176, 0.0),
    (-0.3941513470775634, 0.09312659817082532, 0.1861610000155622),
    (-0.29918000715316884, 0.09664272698362368, 0.0),
    (-0.20119409399743451, 0.09917359872179196, 0.19843148532711158),
    (-0.1011420669187175, 0.10076984552387559, 0.0),
    (0.0, 0.10133000701479154, 0.2025782419255613),
    (0.1011420669187175, 0.10076984552387559, 0.0),
    (0.20119409399743451, 0.09917359872179196, 0.19843148532711158),
    (0.29918000715316884, 0.09664272698362368, 0.0),
    (0.3941513470775634, 0.09312659817082532, 0.1861610000155622),
    (0.4850818636402397, 0.08856444305621176, 0.0),
    (0.5709721726085388, 0.08308050282313302, 0.16626920581699392),
    (0.650996741297417, 0.07684968075772038, 0.0),
    (0.7244177313601701, 0.06985412131872826, 0.13957067792615432),
    (0.790418501442466, 0.06200956780067064, 0.0),
    (0.8482065834104272, 0.05348152469092809, 0.10715922046717194),
    (0.8972645323440819, 0.04458975132476488, 0.0),
    (0.937273392400706, 0.03534636079137585, 0.07036604748810812),
    (0.9677390756791391, 0.02546084732671532, 0.0),
    (0.9879925180204854, 0.015007947329316122, 0.03075324199611727),
    (0.9980022986933971, 0.005377479872923349, 0.0),
)

# Equal initial panels of a spec without breaks. Every Laguerre integral of
# the oracle starts on its lattice breaks instead, so this count now matters
# only for hydrogen momentum: with 6, scripts/oracle_extremes.py still gives
# 510 ok, and only its 66 hydrogen momentum cells change their counts
# (200,508 evaluations in all, against 200,322).
_INITIAL_PANELS = 7
# Bounds a panel-capped integral at about 620,000 evaluations. No oracle
# integral is known to reach it; the rough integrand of
# test_an_integrand_rough_everywhere_stops_at_the_panel_cap takes 619,783.
_MAX_PANELS = 10000
# Rounds of bisection before an integral stops unconverged. No oracle
# integral is known to reach it either: only the endpoint singularity of
# test_an_endpoint_singularity_uses_every_round_of_refinement does.
_MAX_REFINEMENTS = 20


# A break's t-image is dropped below the smallest normal double, where a
# panel's nodes can round to t = 0, and at or above _LAST_EDGE: the panel it
# leaves against t = 1 then keeps its nodes below 1 through every round of
# bisection (width 2^-40, nodes about 9e-16, 8 ulps, from its ends).
_SMALLEST_EDGE = sys.float_info.min
_LAST_EDGE = 1.0 - 2.0 ** -20


class IntegrandError(ValueError):
    """A weighted integrand sample, or a panel's quadrature sum, is not finite."""


class NonConvergedError(RuntimeError):
    """Raised by callers that require a converged quadrature result."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and scale configuration for one integration over (0, inf).

    scale is a length of the integrand: the transform places t = 1/2 at
    s = scale, so it should sit near where the integrand lives. The oracle
    integrates a state's unit-scale f, and scale is then a length of f.
    breaks are points s > 0 that, with the two ends, make the initial
    panels' edges (see _initial_edges); they are stored as a tuple, in any
    order. Without breaks the integral starts on 7 equal panels in t.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    scale: float = 1.0
    breaks: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "breaks", tuple(self.breaks))
        for s in self.breaks:
            if not (math.isfinite(s) and s > 0.0):
                raise ValueError(f"breaks must be positive and finite, got {s!r}")


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of one adaptive integration.

    converged guarantees error_estimate <= max(rel_tol*|value|, abs_tol).
    panels is the final number of panels. stop_reason says why refinement
    stopped: "tol" (converged), "max_refinements" (every round of bisection
    used) or "panel_cap" (the panel limit left no panel to split).
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool
    panels: int
    stop_reason: str


def _eval_panel(g: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Kronrod value and |Kronrod - Gauss| error estimate on [a, b] in t-space.
    IntegrandError if either sum overflows."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    kron = 0.0
    gauss = 0.0
    for u, wk, wg in _GK31:
        t = c + h * u
        v = g(t)
        kron += wk * v
        gauss += wg * v
    if not (math.isfinite(kron) and math.isfinite(gauss)):
        raise IntegrandError(f"the quadrature sums overflow on the panel t = [{a!r}, {b!r}]")
    return h * kron, abs(h * (kron - gauss))


def _initial_edges(spec: QuadratureSpec) -> list[float]:
    """The initial panel edges in t, ascending: 0, the breaks' t-images
    s / (s + scale) and 1, as dqagp takes its break points; n kept images
    give n + 1 panels. An image that repeats another, or that lies outside
    [_SMALLEST_EDGE, _LAST_EDGE), is dropped, so no node is ever t = 0 or
    t = 1. Without breaks, or when every image is dropped, the uniform k/7."""
    scale = spec.scale
    marks = {t for t in (s / (s + scale) for s in spec.breaks) if _SMALLEST_EDGE <= t < _LAST_EDGE}
    if not marks:
        return [k / _INITIAL_PANELS for k in range(_INITIAL_PANELS + 1)]
    return sorted(marks | {0.0, 1.0})


def integrate(f: Callable[[float], float], spec: QuadratureSpec | None = None) -> QuadratureResult:
    """Integrate f over (0, inf), starting on the panels of _initial_edges."""
    if spec is None:
        spec = QuadratureSpec()
    scale = spec.scale

    def g(t: float) -> float:
        one_minus = 1.0 - t
        s = scale * t / one_minus
        v = f(s)
        weighted = v * scale / (one_minus * one_minus)
        # A non-finite v always gives a non-finite weighted sample.
        if not math.isfinite(weighted):
            raise IntegrandError(f"integrand returned {v!r} at s = {s!r} (t = {t!r}), weighted {weighted!r}")
        return weighted

    edges = _initial_edges(spec)
    panels = []
    evaluations = 0
    for a, b in zip(edges[:-1], edges[1:]):
        panels.append((a, b) + _eval_panel(g, a, b))
        evaluations += len(_GK31)

    stop_reason = "max_refinements"
    for _ in range(_MAX_REFINEMENTS):
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
                evaluations += 2 * len(_GK31)
                split += 1
            else:
                refined.append((a, b, val, perr))
        if split == 0:
            # With every sum finite, the panels' estimates add up to err > tol,
            # so one of them exceeds its share: only the cap stops the split.
            stop_reason = "panel_cap"
            break
        panels = refined

    total = math.fsum(p[2] for p in panels)
    err = math.fsum(p[3] for p in panels)
    converged = err <= max(spec.rel_tol * abs(total), spec.abs_tol)
    return QuadratureResult(total, err, evaluations, converged, len(panels), "tol" if converged else stop_reason)
