"""Normalized wavefunction evaluation with analytic first derivatives.

Position- and momentum-space forms for the 1D oscillator, the 3D isotropic
oscillator, the hydrogen-like atom, and the pseudoharmonic potential. The
evaluator of each system is built by its family object in systems.py; this
module is the generic API over them: compile, the quadrature configuration
and the normalization check.

compile_state binds a state once: everything that does not depend on the
point (derived parameters, log-normalization, scales, the polynomial kernel
and its recurrence coefficients) is computed when the state is compiled, and
the returned closure does only the per-point work and returns a plain
(value, derivative) tuple. Callers that sample a state, such as the
quadrature oracle, compile it once and call the closure.
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
    "natural_scale",
    "default_quadrature_spec",
    "normalization_defect",
]


def compile_state(state: QuantumState) -> Evaluator:
    """Bind one state into a closure s -> (value, derivative).

    The closure evaluates the normalized wavefunction psi(x) on the full line
    for the 1D oscillator, and the radial function R(s) with dR/ds at s > 0
    otherwise (it raises ValueError for s <= 0); s is a radius in position
    space and a momentum magnitude in momentum space. Beyond the point where
    the envelope drops under exp(-700) it returns exactly (0.0, 0.0). A 1D
    oscillator state whose wavefunction would reach that cutoff (n >= 189 at
    omega = 1) raises ValueError here.
    """
    return state.system.compile(state)


def evaluate(state: QuantumState, s: float) -> tuple[float, float]:
    """(value, derivative) of any state's wavefunction at one point: full-line
    for 1D, radial otherwise. Kept, though the package never calls it, because
    perfbench/tracer.py hooks it as relfisher.relative_fisher.evaluate."""
    return compile_state(state)(s)


def natural_scale(state: QuantumState) -> float:
    """Characteristic length of the state's density, used as quadrature scale."""
    return state.system.natural_scale(state)


def default_quadrature_spec(state: QuantumState, rel_tol: float = 1e-10) -> QuadratureSpec:
    """Quadrature configuration adapted to one state's scale."""
    return QuadratureSpec(rel_tol=rel_tol, scale=natural_scale(state))


def normalization_defect(state: QuantumState, spec: QuadratureSpec | None = None) -> float:
    """|integral of the density - 1|, by quadrature.

    The density is s^2 R(s)^2 on the half line for radial systems. For the
    1D oscillator psi^2 is even, so its full-line integral is that of
    2 psi^2 over the half line. Raises NonConvergedError if the quadrature
    does not reach its tolerance.
    """
    if spec is None:
        spec = default_quadrature_spec(state)
    wave = compile_state(state)
    if state.system.radial:
        def density(s: float) -> float:
            value = wave(s)[0]
            return s * s * value * value
    else:
        def density(x: float) -> float:
            value = wave(x)[0]
            return 2.0 * value * value
    result = integrate(density, spec)
    if not result.converged:
        raise NonConvergedError(
            f"normalization quadrature did not converge for {state!r}: "
            f"error estimate {result.error_estimate:.3e} after {result.evaluations} evaluations"
        )
    return abs(result.value - 1.0)
