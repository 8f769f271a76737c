"""Normalized wavefunctions with analytic first derivatives, in position and
momentum space, over any system: compile, the quadrature configuration and
the normalization check. Each system's family object in systems.py builds
its evaluator from one unit-scale function and one length scale.

compile_state binds a state once: everything that does not depend on the
point is computed then, and the returned closure does only the per-point
work and returns a plain (value, derivative) tuple.
"""
from __future__ import annotations

from .quadrature import NonConvergedError, QuadratureSpec, integrate
from .systems import Evaluator, QuantumState

# Not called here any more; kept in this namespace because perfbench/tracer.py
# hooks the polynomial, log-gamma and derived-parameter layers under these names.
from .specfun import assoc_laguerre, gegenbauer, hermite, ln_gamma  # noqa: F401
from .systems import php_derived  # noqa: F401

__all__ = [
    "compile_state",
    "default_quadrature_spec",
    "normalization_defect",
]


def compile_state(state: QuantumState) -> Evaluator:
    """Bind one state into a closure s -> (value, derivative).

    The closure evaluates the normalized wavefunction psi(x) on the full line
    for the 1D oscillator, and the radial function R(s) with dR/ds at s > 0
    otherwise (it raises ValueError for s <= 0); s is a radius in position
    space and a momentum magnitude in momentum space. Where the envelope
    drops under exp(-700), and at +-inf, the value is exactly 0.0, and so is
    the derivative except near the origin, where a state that vanishes
    linearly keeps its slope. Every state but hydrogen momentum is a Laguerre
    state, evaluated as the D = 1, 3 or 4 radial oscillator; one whose
    wavefunction would reach that cutoff raises RefusedStateError, a
    ValueError, here; a hydrogen momentum state raises it at the first point
    where it overflows.
    """
    return state.system.compile(state)


def evaluate(state: QuantumState, s: float) -> tuple[float, float]:
    """(value, derivative) of any state's wavefunction at one point: full-line
    for 1D, radial otherwise. Kept, though the package never calls it, because
    perfbench/tracer.py hooks it as relfisher.relative_fisher.evaluate."""
    return compile_state(state)(s)


def default_quadrature_spec(state: QuantumState, rel_tol: float = 1e-10) -> QuadratureSpec:
    """Quadrature configuration for the state's unit-scale f: its scale and
    its breaks are state.system.layout(state), the state's unit length and,
    for a Laguerre state, the lattice points across its classical window."""
    length, breaks = state.system.layout(state)
    return QuadratureSpec(rel_tol=rel_tol, scale=length, breaks=breaks)


def normalization_defect(state: QuantumState, spec: QuadratureSpec | None = None) -> float:
    """|integral of the density - 1|, by quadrature.

    The density is that of the unit-scale f on the half line, as in
    numeric_ir: s^2 f(s)^2 for radial systems, and f(x)^2 = 2 psi^2 for the
    1D oscillator, whose psi^2 is even; spec.scale is a length of f.
    Raises NonConvergedError if the quadrature does not reach its tolerance.
    """
    if spec is None:
        spec = default_quadrature_spec(state)
    wave, _ = state.system.unit(state)
    radial = state.system.radial

    def density(s: float) -> float:
        value = wave(s)[0]
        return (s * s if radial else 1.0) * value * value
    result = integrate(density, spec)
    if not result.converged:
        raise NonConvergedError(
            f"normalization quadrature did not converge for {state!r}: "
            f"error estimate {result.error_estimate:.3e} after {result.evaluations} evaluations"
        )
    return abs(result.value - 1.0)
