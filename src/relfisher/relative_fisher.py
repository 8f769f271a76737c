"""Relative Fisher information: closed forms, the defining-integral oracle,
spacing constants, conjugate-space products, and hydrogen-series analysis.

closed_form_ir, numeric_ir and ir_spacing ask the state's system (see
systems._Family). Every closed form can be checked against numeric_ir, which
evaluates the defining integral 4*Int s^2 (f' - f * ref_logderiv)^2 ds of
each state's unit-scale f on the half line (without the s^2 for the 1D
oscillator, whose f is sqrt(2) |psi|) by adaptive quadrature with an
independently coded, node-less reference log-derivative. The two routes
share no algebra beyond the wavefunctions themselves. The integrand is the
state's system.fisher_panel: one loop per quadrature panel (relfisher._evaluators)
that runs the t-map, f's evaluator, the reference log-derivative, which is
still coded apart from the evaluators, and the weight at each node, to a
rel_tol, over the state's system.layout, whose name keys reused integrals.

Known discrepancy, kept visible on purpose: the widely tabulated hydrogen-like
momentum-space closed form (16 n^2 (n^2-(l+1)^2), Z-scaled) does not equal the
defining integral for any node-less circular reference; the integral's true
closed form is exposed as hydrogen_momentum_integral_closed_form. closed_form_ir
returns the tabulated expression so table and figure reproduction stay faithful
to the published values, and validation honestly reports the gap.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from ._record import record, replace
from .quadrature import QuadratureResult, QuadratureSpec, integrate
from .systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    QuantumState,
    SystemParams,
    UnsupportedSystemError,
    _over_z_squared,
    _require_positive,
    _require_quantum_number,
    reference_state,
)

if TYPE_CHECKING:
    from fractions import Fraction

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

# Unit-scale integrals by (type(system), layout name, rel_tol), so that
# states which integrate the same f (the two spaces of an oscillator or
# pseudoharmonic cell) integrate it once per process; states of one name
# share the unit length and breaks too. The oldest entry goes first; a grid
# puts the space innermost, so both spaces of a cell meet while the first
# is still stored. The lock keeps the bound when threads store at once; two
# threads that miss together both integrate.
_UNIT_INTEGRALS: OrderedDict[tuple, QuadratureResult] = OrderedDict()
_UNIT_INTEGRALS_MAX = 256
_UNIT_INTEGRALS_LOCK = threading.Lock()


@record
class IRResult:
    """Closed-form value next to its independent numeric check.

    rel_diff is |numeric - closed_form| / |closed_form|, and
    |numeric - closed_form| / 1e-12 for reference states, whose closed form
    is exactly 0. quadrature holds the unit-scale integral: numeric is its
    value times c^2, where c is the state's length scale. Two results may
    share one quadrature object, as the two spaces of an oscillator or
    pseudoharmonic cell do; its evaluations then count that single
    integration, once.
    """

    closed_form: float
    numeric: float
    abs_diff: float
    rel_diff: float
    quadrature: QuadratureResult


def hydrogen_position_rational(n: int, l: int) -> Fraction:
    """Exact position-space value 8(n-l-1)/n^3 at unit nuclear charge."""
    # fractions is imported where a Fraction is made, as it loads decimal
    # and no CLI command but reproduce table1 needs it.
    from fractions import Fraction

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
    return target.system.closed_form(target.space, target.numbers)


def hydrogen_momentum_integral_closed_form(n: int, l: int, Z: float) -> float:
    """Exact value of the defining momentum-space integral for hydrogen-like
    states against the node-less circular reference at the target's scale.

    This is what numeric_ir converges to. It differs from the tabulated
    momentum closed form returned by closed_form_ir (for example 72 against
    192 at n=2, l=0, Z=1); both are exposed so the disagreement is checkable
    rather than hidden.
    """
    from fractions import Fraction  # imported here, as in hydrogen_position_rational

    QuantumState(Hydrogenic(Z=Z), MOMENTUM, n=n, l=l)
    k = n - l - 1
    if k == 0:
        return 0.0
    correction = Fraction(k * (n + l + 2), n + 1)
    if n - l - 2 > 0:
        correction += Fraction((n - l - 2) * (n + l + 1), n - 1)
    exact = 4 * n * n * k * (n + l + 1) * (1 + Fraction(3, 4 * n) * correction)
    return _over_z_squared(float(exact), Z)


def numeric_ir(target: QuantumState, rel_tol: float = 1e-10) -> IRResult:
    """Relative Fisher information by adaptive quadrature of the defining
    integral, reported side by side with the closed form.

    The integrand is 4 s^2 (f' - f * ref_logderiv)^2 on (0, inf) for the
    unit-scale f of the state (see systems._Family), without the s^2 for the
    1D oscillator, whose |f| = sqrt(2) |psi| on the half line, integrated as
    system.fisher_panel(target) to rel_tol, over the unit length and breaks
    of system.layout(target), and multiplied by c^2. The reference is
    reference_state's shape at the target's own scale (see there). A
    unit-scale integral this process integrated before for the same layout
    name and rel_tol is reused; only completed integrations are kept, at
    most _UNIT_INTEGRALS_MAX of them. Quadrature trouble is reported through
    result.quadrature.converged, not raised; a state with nodes that
    integrates to exactly 0 (every sample past the cutoff) is not converged.
    RefusedStateError if the evaluator cannot represent the state.
    """
    reference = reference_state(target)
    if reference.radial_nodes != 0:
        raise ValueError(f"reference state {reference!r} has interior nodes")
    system = target.system
    c = system.scale(target)
    name, length, breaks = system.layout(target)
    key = (type(system), name, rel_tol)
    quad = _UNIT_INTEGRALS.get(key)
    if quad is None:
        quad = integrate(system.fisher_panel(target), QuadratureSpec(rel_tol=rel_tol, scale=length, breaks=breaks))
        with _UNIT_INTEGRALS_LOCK:
            if len(_UNIT_INTEGRALS) >= _UNIT_INTEGRALS_MAX:
                _UNIT_INTEGRALS.popitem(last=False)
            _UNIT_INTEGRALS[key] = quad
    if quad.value == 0.0 and target.radial_nodes:
        quad = replace(quad, converged=False)
    # Multiplied by c twice, not by c^2, which over- or underflows first.
    numeric = quad.value * c * c
    closed = closed_form_ir(target)
    abs_diff = abs(numeric - closed)
    rel_diff = abs_diff / (abs(closed) if closed else 1e-12)
    return IRResult(closed_form=closed, numeric=numeric, abs_diff=abs_diff, rel_diff=rel_diff, quadrature=quad)


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
    position = replace(target, space=POSITION)
    momentum = replace(target, space=MOMENTUM)
    return closed_form_ir(position) * closed_form_ir(momentum)


def hydrogen_ir_max(l: int, n_max: int = 200) -> tuple[int, float]:
    """Integer argmax of the position-space value 8(n-l-1)/n^3 over
    n in l+1..n_max at unit charge, with the maximal value.

    Exact rational comparison, so no floating-point ties.
    """
    _require_quantum_number("l", l)
    _require_quantum_number("n_max", n_max, minimum=l + 1)
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
