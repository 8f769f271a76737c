"""Relative Fisher information: closed forms, the defining-integral oracle,
spacing constants, conjugate-space products, and hydrogen-series analysis.

Every closed form here can be checked against numeric_ir, which evaluates the
defining integral 4*Int s^2 (R' - R * ref_logderiv)^2 ds (full-line analog for
the 1D oscillator) by adaptive quadrature with an independently coded,
node-less reference log-derivative. The two routes share no algebra beyond the
wavefunctions themselves.

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
from typing import Callable

from .quadrature import QuadratureResult, QuadratureSpec, integrate
from .systems import (
    MOMENTUM,
    POSITION,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    SystemParams,
    _require_positive,
    _require_quantum_number,
    hydrogen_energy,
    php_derived,
    reference_state,
)
from .wavefunctions import compile_state, default_quadrature_spec

# Not called here any more; kept in this namespace because perfbench/tracer.py
# hooks the wavefunction layer under this name.
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

_SQRT2 = math.sqrt(2.0)


class UnsupportedSystemError(ValueError):
    """The requested quantity is not defined for this system family."""


@dataclass(frozen=True)
class IRResult:
    """Closed-form value next to its independent numeric check.

    rel_diff is |numeric - closed_form| / max(|closed_form|, 1e-12), so
    reference states (closed form exactly 0) do not divide by zero.
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
    sys = target.system
    if isinstance(sys, Oscillator1D):
        ratio = sys.omega / _SQRT2 if target.space == POSITION else _SQRT2 / sys.omega
        return 8.0 * ratio * target.n
    if isinstance(sys, Oscillator3D):
        factor = 16.0 * sys.omega if target.space == POSITION else 16.0 / sys.omega
        return factor * target.n_r
    if isinstance(sys, Pseudoharmonic):
        lam = php_derived(sys, target.l).lam
        return 32.0 * lam * target.n_r if target.space == POSITION else 8.0 * target.n_r / lam
    n, l, Z = target.n, target.l, sys.Z
    if target.space == POSITION:
        # Int true division is correctly rounded, so this equals
        # float(hydrogen_position_rational(n, l)) * Z * Z bit for bit.
        return 8 * (n - l - 1) / n ** 3 * Z * Z
    return float(16 * n * n * (n * n - (l + 1) ** 2)) / (Z * Z)


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
    return float(exact) / (Z * Z)


def _reference_log_derivative(target: QuantumState) -> Callable[[float], float]:
    """d/ds of log(reference wavefunction), in closed form.

    The reference is node-less, so this is finite on the whole interior
    domain and never goes through a wavefunction-value division.
    """
    sys = target.system
    if isinstance(sys, Oscillator1D):
        omega = sys.omega
        c2 = math.sqrt(omega * omega / 2.0)
        if target.space == MOMENTUM:
            c2 = 1.0 / c2
        return lambda x: -c2 * x
    if isinstance(sys, Oscillator3D):
        b = sys.omega if target.space == POSITION else 1.0 / sys.omega
        kappa = float(target.l)
        return lambda s: kappa / s - b * s
    if isinstance(sys, Pseudoharmonic):
        derived = php_derived(sys, target.l)
        b = 2.0 * derived.lam if target.space == POSITION else 0.5 / derived.lam
        kappa = derived.gamma_l
        return lambda s: kappa / s - b * s
    n, l, Z = target.n, target.l, sys.Z
    if target.space == POSITION:
        # Circular reference sharing the target's length scale: r^l e^{-Zr/n}.
        return lambda r: l / r - Z / n
    n_over_z = n / Z

    def momentum_log_derivative(p: float) -> float:
        t = n_over_z * p
        if t <= 1.0:
            decay = 2.0 * (l + 2.0) * t / (t * t + 1.0)
        else:
            decay = 2.0 * (l + 2.0) / (t * (1.0 + 1.0 / (t * t)))
        growth = l / t if l else 0.0
        return n_over_z * (growth - decay)

    return momentum_log_derivative


def numeric_ir(target: QuantumState, spec: QuadratureSpec | None = None) -> IRResult:
    """Relative Fisher information by adaptive quadrature of the defining
    integral, reported side by side with the closed form.

    The integrand is 4 s^2 (R_t' - R_t * ref_logderiv)^2 (no s^2 weight for
    the 1D oscillator), which stays finite at the target's interior nodes.
    Quadrature trouble is reported through result.quadrature.converged, not
    raised, so sweeps can tabulate per-state status.
    """
    reference = reference_state(target)
    if reference.radial_nodes != 0:
        raise ValueError(f"reference state {reference!r} has interior nodes")
    log_derivative = _reference_log_derivative(target)
    wave = compile_state(target)

    if isinstance(target.system, Oscillator1D):
        def integrand(x: float) -> float:
            value, derivative = wave(x)
            difference = derivative - value * log_derivative(x)
            return 4.0 * difference * difference
    else:
        def integrand(s: float) -> float:
            value, derivative = wave(s)
            difference = derivative - value * log_derivative(s)
            return 4.0 * s * s * difference * difference

    if spec is None:
        spec = default_quadrature_spec(target)
    quad = integrate(integrand, spec)
    closed = closed_form_ir(target)
    abs_diff = abs(quad.value - closed)
    rel_diff = abs_diff / max(abs(closed), 1e-12)
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
    if isinstance(params, Oscillator1D):
        ratio = params.omega / _SQRT2 if space == POSITION else _SQRT2 / params.omega
        return 8.0 * ratio
    if isinstance(params, Oscillator3D):
        return 8.0 * params.omega if space == POSITION else 8.0 / params.omega
    if isinstance(params, Pseudoharmonic):
        lam = math.sqrt(0.5 * params.mu * params.De) / params.re
        return 32.0 * lam if space == POSITION else 8.0 / lam
    raise UnsupportedSystemError("spacing is not constant for hydrogen-like systems")


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

    l is accepted for signature symmetry with the exact forms; the
    approximation assumes n much larger than l.
    """
    del l
    energy = hydrogen_energy(Z, n)
    return -16.0 * energy, 4.0 * Z * Z / (energy * energy)
