"""Normalized wavefunction evaluation with analytic first derivatives.

Position- and momentum-space forms for the 1D oscillator, the 3D isotropic
oscillator, the hydrogen-like atom, and the pseudoharmonic potential. All
normalization prefactors are assembled in log space and exponentiated once,
which keeps the pseudoharmonic family (effective angular exponents up to a
few hundred for real molecules) inside double range. Derivatives are analytic
throughout: prefactor product rule plus the polynomial derivative identities;
nothing in the production path differentiates numerically.

compile_state binds a state once: everything that does not depend on the
point (derived parameters, log-normalization, scales, the polynomial kernel
and its recurrence coefficients) is computed when the state is compiled, and
the returned closure does only the per-point work. evaluate, eval_radial and
eval_1d_qho compile and then call once; callers that sample one state at many
points, such as the quadrature oracle, compile it once themselves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .quadrature import HALF_LINE, FULL_LINE, NonConvergedError, QuadratureSpec, integrate
from .specfun import gegenbauer_kernel, hermite_kernel, laguerre_kernel, ln_gamma

# Not called here any more; kept in this namespace because perfbench/tracer.py
# hooks the polynomial layer under these names.
from .specfun import assoc_laguerre, gegenbauer, hermite  # noqa: F401
from .systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    php_derived,
)

__all__ = [
    "WaveSample",
    "compile_state",
    "eval_1d_qho",
    "eval_radial",
    "evaluate",
    "natural_scale",
    "default_quadrature_spec",
    "normalization_defect",
]

# exp(_LN_TINY) is far below every tolerance in use; beyond it the evaluators
# return exact zeros instead of risking underflow-times-overflow products.
_LN_TINY = -700.0

# The 1D oscillator's cutoff tests the envelope N*exp(-y^2/2) alone, while
# H_n(y) grows as fast as the envelope falls, so at large n the cutoff lands
# where psi still lives. A state is refused unless the log-envelope at the
# classical turning point y^2 = 2n+1 sits this far above _LN_TINY, which leaves
# the Airy tail beyond the turning point inside the cutoff. In a scan of
# n = 150..300 at omega 0.5, 1 and 2 in both spaces the truncation shows in
# rel_diff from n = 190 (log-envelope -662) and the last state this admits is
# n = 188 (-654), at rel_diff 1.8e-13.
_QHO1D_TAIL_MARGIN = 45.0

_LN_PI = math.log(math.pi)
_QUARTER_LN_2 = 0.25 * math.log(2.0)

# A compiled state: point -> (value, derivative).
Evaluator = Callable[[float], tuple[float, float]]

_ZERO = (0.0, 0.0)


@dataclass(frozen=True)
class WaveSample:
    """Wavefunction value and its first derivative at one point."""

    value: float
    derivative: float


def _qho1d_argument_scale(omega: float, space: str) -> float:
    """Scale c in the dimensionless argument y = c*x (or c*p)."""
    if space == POSITION:
        return math.exp(0.5 * math.log(omega) - _QUARTER_LN_2)
    return math.exp(_QUARTER_LN_2 - 0.5 * math.log(omega))


def _qho1d(n: int, omega: float, space: str) -> Evaluator:
    """Normalized 1D oscillator eigenfunction on the full line.

    In both spaces the function is N*H_n(y)*exp(-y^2/2) with y = c*arg; the
    two spaces differ only in the scale c, which swaps omega for its
    reciprocal relative to the special frequency sqrt(2).
    """
    c = _qho1d_argument_scale(omega, space)
    ln_norm = 0.5 * (math.log(c) - n * math.log(2.0) - ln_gamma(n + 1.0) - 0.5 * _LN_PI)
    ln_turning = ln_norm - (n + 0.5)
    limit = _LN_TINY + _QHO1D_TAIL_MARGIN
    if ln_turning < limit:
        raise ValueError(
            f"1D oscillator n={n} at omega={omega!r} is out of the evaluator's range: "
            f"its log-envelope at the turning point is {ln_turning:.1f}, below the limit {limit:g}"
        )
    hermite = hermite_kernel(n)

    def full_line(arg: float) -> tuple[float, float]:
        y = c * arg
        ln_env = ln_norm - 0.5 * y * y
        if ln_env < _LN_TINY:
            return _ZERO
        env = math.exp(ln_env)
        h, dh = hermite(y)
        return env * h, c * env * (dh - y * h)

    return full_line


def _radial_oscillator(n_r: int, kappa: float, b: float) -> Evaluator:
    """Common radial family A * s^kappa * exp(-b s^2/2) * L_{n_r}^{kappa+1/2}(b s^2).

    Covers the 3D oscillator (kappa = l, b = omega or 1/omega) and the
    pseudoharmonic potential (kappa = gamma_l, b = 2*lambda or 1/(2*lambda)).
    """
    ln_norm = 0.5 * (
        math.log(2.0)
        + (kappa + 1.5) * math.log(b)
        + ln_gamma(n_r + 1.0)
        - ln_gamma(n_r + kappa + 1.5)
    )
    laguerre = laguerre_kernel(n_r, kappa + 0.5)
    two_b = 2.0 * b

    def radial(s: float) -> tuple[float, float]:
        if not s > 0.0:
            raise ValueError(f"radial argument must be > 0, got {s!r}")
        u = b * s * s
        ln_env = ln_norm - 0.5 * u
        if kappa != 0.0:
            ln_env += kappa * math.log(s)
        if ln_env < _LN_TINY:
            return _ZERO
        env = math.exp(ln_env)
        lag, dlag = laguerre(u)
        return env * lag, env * ((kappa / s - b * s) * lag + two_b * s * dlag)

    return radial


def _hydrogen_position(n: int, l: int, Z: float) -> Evaluator:
    ln_norm = (
        math.log(2.0)
        + 1.5 * math.log(Z)
        - 2.0 * math.log(n)
        + 0.5 * (ln_gamma(n - l) - ln_gamma(n + l + 1.0))
    )
    laguerre = laguerre_kernel(n - l - 1, 2.0 * l + 1.0)
    dxi_dr = 2.0 * Z / n

    def radial(r: float) -> tuple[float, float]:
        if not r > 0.0:
            raise ValueError(f"radial argument must be > 0, got {r!r}")
        xi = 2.0 * Z * r / n
        ln_env = ln_norm - 0.5 * xi
        if l:
            ln_env += l * math.log(xi)
        if ln_env < _LN_TINY:
            return _ZERO
        env = math.exp(ln_env)
        lag, dlag = laguerre(xi)
        return env * lag, dxi_dr * env * ((l / xi - 0.5) * lag + dlag)

    return radial


def _hydrogen_momentum(n: int, l: int, Z: float) -> Evaluator:
    # Evaluated through t = n p / Z and q = (t^2-1)/(t^2+1); the t > 1 branch
    # works in 1/t^2 so t^2 never overflows and q stays fully accurate.
    ln_norm = (
        2.0 * math.log(n)
        + (2.0 * l + 2.0) * math.log(2.0)
        + ln_gamma(l + 1.0)
        + 0.5 * (math.log(2.0) - _LN_PI + ln_gamma(n - l) - ln_gamma(n + l + 1.0))
        - 1.5 * math.log(Z)
    )
    gegenbauer = gegenbauer_kernel(n - l - 1, l + 1.0)
    decay_power = l + 2.0
    two_decay_power = 2.0 * (l + 2.0)
    dt_dp = n / Z

    def radial(p: float) -> tuple[float, float]:
        if not p > 0.0:
            raise ValueError(f"radial argument must be > 0, got {p!r}")
        t = n * p / Z
        if t <= 1.0:
            t2p1 = t * t + 1.0
            q = (t * t - 1.0) / t2p1
            ln_t2p1 = math.log1p(t * t)
            dq_dt = 4.0 * t / (t2p1 * t2p1)
            rational_decay = two_decay_power * t / t2p1
        else:
            inv = 1.0 / (t * t)
            one_plus = 1.0 + inv
            q = (1.0 - inv) / one_plus
            ln_t2p1 = 2.0 * math.log(t) + math.log1p(inv)
            dq_dt = 4.0 / (t * t * t * one_plus * one_plus)
            rational_decay = two_decay_power / (t * one_plus)
        ln_env = ln_norm - decay_power * ln_t2p1
        if l:
            ln_env += l * math.log(t)
        if ln_env < _LN_TINY:
            return _ZERO
        env = math.exp(ln_env)
        geg, dgeg = gegenbauer(q)
        power_growth = l / t if l else 0.0
        d_dt = env * ((power_growth - rational_decay) * geg + dgeg * dq_dt)
        return env * geg, dt_dp * d_dt

    return radial


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
    sys = state.system
    if isinstance(sys, Oscillator1D):
        return _qho1d(state.n, sys.omega, state.space)
    if isinstance(sys, Oscillator3D):
        b = sys.omega if state.space == POSITION else 1.0 / sys.omega
        return _radial_oscillator(state.n_r, float(state.l), b)
    if isinstance(sys, Pseudoharmonic):
        derived = php_derived(sys, state.l)
        b = 2.0 * derived.lam if state.space == POSITION else 0.5 / derived.lam
        return _radial_oscillator(state.n_r, derived.gamma_l, b)
    if isinstance(sys, Hydrogenic):
        if state.space == POSITION:
            return _hydrogen_position(state.n, state.l, sys.Z)
        return _hydrogen_momentum(state.n, state.l, sys.Z)
    raise ValueError(f"unknown system parameters: {sys!r}")


def eval_1d_qho(n: int, omega: float, space: str, arg: float) -> WaveSample:
    """Normalized 1D oscillator eigenfunction at a point of the full line."""
    state = QuantumState(system=Oscillator1D(omega=omega), space=space, n=n)
    return WaveSample(*compile_state(state)(arg))


def eval_radial(state: QuantumState, s: float) -> WaveSample:
    """Normalized radial function R(s) and dR/ds at s > 0.

    s is a radius in position space and a momentum magnitude in momentum
    space. The 1D oscillator is not a radial system; see eval_1d_qho.
    """
    if isinstance(state.system, Oscillator1D):
        raise ValueError("eval_radial applies to radial systems; use eval_1d_qho for the 1D oscillator")
    return WaveSample(*compile_state(state)(s))


def evaluate(state: QuantumState, s: float) -> WaveSample:
    """Evaluate any state's wavefunction: full-line for 1D, radial otherwise."""
    return WaveSample(*compile_state(state)(s))


def natural_scale(state: QuantumState) -> float:
    """Characteristic length of the state's density, used as quadrature scale."""
    sys = state.system
    if isinstance(sys, Oscillator1D):
        return 1.0 / _qho1d_argument_scale(sys.omega, state.space)
    if isinstance(sys, Oscillator3D):
        root = math.sqrt(sys.omega)
        return 1.0 / root if state.space == POSITION else root
    if isinstance(sys, Pseudoharmonic):
        root = math.sqrt(php_derived(sys, state.l).lam)
        return 1.0 / root if state.space == POSITION else root
    return sys.Z / state.n if state.space == MOMENTUM else state.n / sys.Z


def default_quadrature_spec(state: QuantumState, rel_tol: float = 1e-10) -> QuadratureSpec:
    """Quadrature configuration adapted to one state's domain and scale."""
    domain = FULL_LINE if isinstance(state.system, Oscillator1D) else HALF_LINE
    return QuadratureSpec(domain=domain, rel_tol=rel_tol, scale=natural_scale(state))


def normalization_defect(state: QuantumState, spec: QuadratureSpec | None = None) -> float:
    """|integral of the density - 1|, by quadrature.

    The density is s^2 R(s)^2 on the half line for radial systems and psi^2
    on the full line for the 1D oscillator. Raises NonConvergedError if the
    quadrature does not reach its tolerance.
    """
    if spec is None:
        spec = default_quadrature_spec(state)
    wave = compile_state(state)
    if isinstance(state.system, Oscillator1D):
        def density(x: float) -> float:
            value = wave(x)[0]
            return value * value
    else:
        def density(s: float) -> float:
            value = wave(s)[0]
            return s * s * value * value
    result = integrate(density, spec)
    if not result.converged:
        raise NonConvergedError(
            f"normalization quadrature did not converge for {state!r}: "
            f"error estimate {result.error_estimate:.3e} after {result.evaluations} evaluations"
        )
    return abs(result.value - 1.0)
