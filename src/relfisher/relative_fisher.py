"""Relative Fisher information: closed forms, the defining-integral oracle,
spacing constants, conjugate-space products, and hydrogen-series analysis.

closed_form_ir, numeric_ir and ir_spacing ask the state's system: each family
object in systems.py holds its closed form, its spacing and the reference
log-derivative the oracle uses. This module holds the generic routes and the
hydrogen-series helpers.

Every closed form here can be checked against numeric_ir, which evaluates the
defining integral 4*Int s^2 (R' - R * ref_logderiv)^2 ds (full-line analog for
the 1D oscillator, taken as twice its half line) by adaptive quadrature with
an independently coded, node-less reference log-derivative. The two routes
share no algebra beyond the wavefunctions themselves.

Known discrepancy, kept visible on purpose: the widely tabulated hydrogen-like
momentum-space closed form (16 n^2 (n^2-(l+1)^2), Z-scaled) does not equal the
defining integral for any node-less circular reference; the integral's true
closed form is exposed as hydrogen_momentum_integral_closed_form. closed_form_ir
returns the tabulated expression so table and figure reproduction stay faithful
to the published values, and validation honestly reports the gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .quadrature import QuadratureResult, QuadratureSpec, integrate
from .systems import (
    MOMENTUM,
    POSITION,
    QuantumState,
    SystemParams,
    UnsupportedSystemError,
    _over_z_squared,
    _require_positive,
    _require_quantum_number,
    reference_state,
)
from .wavefunctions import compile_state, default_quadrature_spec

# Not called here any more; kept in this namespace because perfbench/tracer.py
# hooks the wavefunction and derived-parameter layers under these names.
from .systems import php_derived  # noqa: F401
from .wavefunctions import evaluate  # noqa: F401

__all__ = [
    "IRResult",
    "UnsupportedSystemError",
    "closed_form_ir",
    "hydrogen_position_rational",
    "hydrogen_momentum_integral_closed_form",
    "numeric_ir",
    "ir_spacing",
    "ir_product",
    "hydrogen_ir_max",
    "hydrogen_asymptotics",
]


@dataclass(frozen=True)
class IRResult:
    """Closed-form value next to its independent numeric check.

    rel_diff is |numeric - closed_form| / |closed_form|, and
    |numeric - closed_form| / 1e-12 for reference states, whose closed form
    is exactly 0.
    """

    closed_form: float
    numeric: float | None = None
    abs_diff: float | None = None
    rel_diff: float | None = None
    quadrature: QuadratureResult | None = None


def hydrogen_position_rational(n: int, l: int) -> Fraction:
    """Exact position-space value 8(n-l-1)/n^3 at unit nuclear charge."""
    return Fraction(8 * (n - l - 1), n ** 3)


def closed_form_ir(target: QuantumState) -> float:
    """Closed-form relative Fisher information against the node-less reference.

    1D oscillator: 8*(omega/sqrt(2))*n and 8*(sqrt(2)/omega)*n. The factoring
    through omega/sqrt(2) makes the two spaces coincide bitwise at
    omega = sqrt(2), where both equal 8n.
    3D oscillator: 16*omega*n_r and 16*n_r/omega.
    Hydrogen-like: 8 Z^2 (n-l-1)/n^3 and 16 n^2 (n^2-(l+1)^2)/Z^2; circular
    targets (n = l+1) give 0 in both spaces.
    Pseudoharmonic: 32*lambda*n_r and 8*n_r/lambda.
    """
    return target.system.closed_form(target)


def hydrogen_momentum_integral_closed_form(n: int, l: int, Z: float) -> float:
    """Exact value of the defining momentum-space integral for hydrogen-like
    states against the node-less circular reference at the target's scale.

    This is what numeric_ir converges to. It differs from the tabulated
    momentum closed form returned by closed_form_ir (for example 72 against
    192 at n=2, l=0, Z=1); both are exposed so the disagreement is checkable
    rather than hidden.
    """
    _require_positive("Z", Z)
    _require_quantum_number("n", n, minimum=1)
    _require_quantum_number("l", l)
    if l > n - 1:
        raise ValueError(f"l must satisfy l <= n-1, got n={n}, l={l}")
    k = n - l - 1
    if k == 0:
        return 0.0
    correction = Fraction(k * (n + l + 2), n + 1)
    if n - l - 2 > 0:
        correction += Fraction((n - l - 2) * (n + l + 1), n - 1)
    exact = 4 * n * n * k * (n + l + 1) * (1 + Fraction(3, 4 * n) * correction)
    return _over_z_squared(float(exact), Z)


def numeric_ir(target: QuantumState, spec: QuadratureSpec | None = None) -> IRResult:
    """Relative Fisher information by adaptive quadrature of the defining
    integral, reported side by side with the closed form.

    The integrand is 4 s^2 (R_t' - R_t * ref_logderiv)^2 on (0, inf), which
    stays finite at the target's interior nodes. The 1D oscillator's full-line
    integrand 4 (psi' - psi * ref_logderiv)^2 has no s^2 weight and is even,
    bit for bit, so it is integrated as 8 (psi' - psi * ref_logderiv)^2 over
    the half line: the value, the error estimate and the convergence verdict
    are exactly those of the sum of the two halves, at half the evaluations.
    Quadrature trouble is reported through result.quadrature.converged, not
    raised, so sweeps can tabulate per-state status.
    """
    reference = reference_state(target)
    if reference.radial_nodes != 0:
        raise ValueError(f"reference state {reference!r} has interior nodes")
    log_derivative = target.system.reference_log_derivative(target)
    wave = compile_state(target)

    if target.system.radial:
        def integrand(s: float) -> float:
            value, derivative = wave(s)
            difference = derivative - value * log_derivative(s)
            return 4.0 * s * s * difference * difference
    else:
        def integrand(x: float) -> float:
            value, derivative = wave(x)
            difference = derivative - value * log_derivative(x)
            return 8.0 * difference * difference

    if spec is None:
        spec = default_quadrature_spec(target)
    quad = integrate(integrand, spec)
    closed = closed_form_ir(target)
    abs_diff = abs(quad.value - closed)
    rel_diff = abs_diff / (abs(closed) if closed else 1e-12)
    return IRResult(
        closed_form=closed,
        numeric=quad.value,
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        quadrature=quad,
    )


def ir_spacing(params: SystemParams, space: str) -> float:
    """Constant gap between adjacent states' closed-form values.

    1D oscillator: per unit n. 3D oscillator: per unit principal quantum
    number 2*n_r + l, half the per-n_r first difference. Pseudoharmonic: per
    unit n_r. Hydrogen-like systems have no constant spacing and are rejected.
    """
    if space not in (POSITION, MOMENTUM):
        raise ValueError(f"space must be position or momentum, got {space!r}")
    return params.spacing(space)


def ir_product(target: QuantumState) -> float:
    """Product of the closed forms in the two conjugate spaces.

    Parameter-free: 64 n^2 (1D), 256 n_r^2 (3D oscillator and pseudoharmonic),
    and 128 (n-l-1)(n^2-(l+1)^2)/n for hydrogen-like states regardless of Z.
    """
    position = QuantumState(
        system=target.system, space=POSITION, n=target.n, l=target.l, n_r=target.n_r
    )
    momentum = QuantumState(
        system=target.system, space=MOMENTUM, n=target.n, l=target.l, n_r=target.n_r
    )
    return closed_form_ir(position) * closed_form_ir(momentum)


def hydrogen_ir_max(l: int, n_max: int = 200) -> tuple[int, float]:
    """Integer argmax of the position-space value 8(n-l-1)/n^3 over
    n in l+1..n_max at unit charge, with the maximal value.

    Exact rational comparison, so no floating-point ties.
    """
    if isinstance(l, bool) or not isinstance(l, int) or l < 0:
        raise ValueError(f"l must be a nonnegative integer, got {l!r}")
    if n_max < l + 1:
        raise ValueError(f"n_max must be at least l+1, got {n_max}")
    best_n = l + 1
    best = hydrogen_position_rational(best_n, l)
    for n in range(l + 2, n_max + 1):
        candidate = hydrogen_position_rational(n, l)
        if candidate > best:
            best, best_n = candidate, n
    return best_n, float(best)


def hydrogen_asymptotics(n: int, l: int, Z: float) -> tuple[float, float]:
    """Large-n approximations (-16 E_n, 4 Z^2 / E_n^2) with E_n = -Z^2/(2n^2).

    They are computed as 8 (Z/n)^2 and (4 n^2/Z)^2, which never form E_n^2:
    that would lose precision or underflow to 0 at small Z and overflow
    to inf/inf = nan at large Z. A value outside double range is inf or 0.
    l is accepted for signature symmetry with the exact forms; the
    approximation assumes n much larger than l.
    """
    del l
    _require_positive("Z", Z)
    _require_quantum_number("n", n, minimum=1)
    z_over_n = Z / n
    n2_over_z = 4.0 * n * n / Z
    return 8.0 * z_over_n * z_over_n, n2_over_z * n2_over_z
