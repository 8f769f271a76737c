"""The four system families (1D and 3D oscillator, hydrogen-like atom,
pseudoharmonic molecule), quantum states, the reference-state rule, derived
pseudoharmonic parameters and bound-state energies.

Each class holds one system's parameters and is the family object for that
system: it owns everything in which the systems differ (see _Family), so the
other modules ask a state's system instead of testing its type. States carry
no magnetic quantum number, to which the information measure is invariant.
QuantumState(...) checks its own space and quantum numbers; a system's grid
method checks a whole grid once, on its corner state.

The unit-scale wavefunction evaluators live here with their families. Their
normalizations are assembled in log space and exponentiated once, and their
derivatives are analytic: nothing differentiates numerically. Every
Laguerre state shares one evaluator and its truncation guard,
_radial_oscillator: the 1D oscillator (D = 1), the 3D oscillator and the
pseudoharmonic potential (D = 3), and hydrogen position (D = 4). Its
turning points also give the oracle's initial breaks (_lattice).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .specfun import gegenbauer_kernel, laguerre_kernel, ln_gamma

__all__ = [
    "POSITION",
    "MOMENTUM",
    "SPACES",
    "Oscillator1D",
    "Oscillator3D",
    "Hydrogenic",
    "Pseudoharmonic",
    "FAMILIES",
    "SystemParams",
    "QuantumState",
    "PhpDerived",
    "UnsupportedSystemError",
    "RefusedStateError",
    "reference_state",
    "php_derived",
    "hydrogen_energy",
]

POSITION = "position"
MOMENTUM = "momentum"
SPACES = (POSITION, MOMENTUM)

_SQRT2 = math.sqrt(2.0)

# exp(_LN_TINY) is far below every tolerance in use; beyond it the evaluators
# return exact zeros instead of risking underflow-times-overflow products.
_LN_TINY = -700.0

# The cutoff tests the envelope alone, while the polynomial grows as fast as
# it falls, so at large degree the cutoff lands where f still lives. A
# Laguerre state is refused unless its log-envelope at the outer turning
# point sits this far above _LN_TINY. The truncation error follows that
# log-envelope: about 1e-12 at -647, 1e-10 at -655, 1e-8 at -662.
_TAIL_MARGIN = 50.0

# ln_norm, -u/2 and kappa ln s are each rounded to 2^-52 of their size, and
# at a large kappa they cancel in the log-envelope. A Laguerre state is
# refused when the rounding of the three at the outer turning point,
# 2^-52 (|ln_norm| + u/2 + kappa |ln s|), exceeds this budget: from there on
# the envelope carries too few digits, and at kappa ~ 1e16 none.
_LN_ENV_ROUNDING = 1e-9
_ULP = 2.0 ** -52

# The oracle cuts a Laguerre integral's initial panels at the points
# k * _BREAK_WIDTH of unit-scale s across the classical window
# [s_in - _WINDOW_MARGIN, s_out + _WINDOW_MARGIN] (see _lattice). The lattice
# is the same for every state, so a degree sweep at a fixed kappa keeps its
# nodes and its recurrence columns keep hitting. Both were chosen while the
# 7 equal initial edges outside the window were still kept
# (quadrature._initial_edges now keeps none). Measured then in one process
# (CPython 3.11, 2-core VM, medians of 7), with the CO sweep n_r = 0..60 in
# position space and the default validate grid: at widths 1, 1.25, 1.5, 2
# and 3 they took 0.147, 0.146, 0.140, 0.151 and 0.168 s, and 0.176, 0.162,
# 0.151, 0.154 and 0.164 s. With a margin of 0 or 1, 8 or 2 pseudoharmonic
# cells of the mu_amu scan in README Known discrepancy 5 converge to wrong
# values; a margin of 3 costs 4% more evaluations on the CO sweep.
_BREAK_WIDTH = 1.5
_WINDOW_MARGIN = 2.0

_LN_PI = math.log(math.pi)
_QUARTER_LN_2 = 0.25 * math.log(2.0)

# A compiled state: point -> (value, derivative).
Evaluator = Callable[[float], tuple[float, float]]

_ZERO = (0.0, 0.0)


class UnsupportedSystemError(ValueError):
    """The requested quantity is not defined for this system family."""


class RefusedStateError(ValueError):
    """The evaluator's cutoff would truncate this state's wavefunction (a
    Laguerre state, at compile time), or its Gegenbauer factor overflows (a
    hydrogen momentum state, at the first point where it does)."""


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_quantum_number(name: str, value: int, minimum: int = 0) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _turning_points(n_r: int, alpha: float) -> tuple[float, float]:
    """The radial oscillator's inner and outer turning points in u = s^2,
    u = E -+ sqrt(E^2 - alpha^2 + 1/4), E = 2 n_r + alpha + 1: E^2 - alpha^2
    is factored, and u_in is taken from u_in u_out = alpha^2 - 1/4, so that
    a large alpha cancels in neither."""
    energy = 2.0 * n_r + alpha + 1.0
    u_out = energy + math.sqrt((2.0 * n_r + 1.0) * (energy + alpha) + 0.25)
    return (alpha - 0.5) * (alpha + 0.5) / u_out, u_out


def _lattice(n_r: int, alpha: float) -> tuple[float, ...]:
    """The oracle's initial breaks for the radial oscillator (n_r, alpha): the
    points k * _BREAK_WIDTH, k >= 1, of unit-scale s that cover its classical
    window, from the last at or below its start to the first at or above its
    end. Empty for a state whose u_out alone spends the rounding budget,
    which _radial_oscillator refuses."""
    u_in, u_out = _turning_points(n_r, alpha)
    if not 0.5 * u_out * _ULP <= _LN_ENV_ROUNDING:
        return ()
    first = max(1, math.floor((math.sqrt(max(u_in, 0.0)) - _WINDOW_MARGIN) / _BREAK_WIDTH))
    last = math.ceil((math.sqrt(u_out) + _WINDOW_MARGIN) / _BREAK_WIDTH)
    return tuple(k * _BREAK_WIDTH for k in range(first, last + 1))


def _radial_oscillator(n_r: int, kappa: float, alpha: float, name: Callable[[], str]) -> Evaluator:
    """The D-dimensional radial oscillator A s^kappa exp(-s^2/2) L_{n_r}^alpha(s^2),
    alpha = kappa + D/2 - 1, normalized on the half line with weight s^(D-1):
    the 1D oscillator's n = 2 n_r + kappa (D = 1), the 3D oscillator
    (kappa = l) and pseudoharmonic potential (kappa = gamma_l) at D = 3, and
    hydrogen position (kappa = 2l) at D = 4.
    RefusedStateError, naming the state as name(), if its log-envelope
    rounds beyond _LN_ENV_ROUNDING or the cutoff would truncate it.
    """
    ln_norm = 0.5 * (math.log(2.0) + ln_gamma(n_r + 1.0) - ln_gamma(n_r + alpha + 1.0))
    _, u_turn = _turning_points(n_r, alpha)
    ln_s_turn = 0.5 * math.log(u_turn)
    rounding = _ULP * (abs(ln_norm) + 0.5 * u_turn + kappa * abs(ln_s_turn))
    if not rounding <= _LN_ENV_ROUNDING:
        raise RefusedStateError(
            f"{name()} is out of the evaluator's range: its log-envelope terms round to "
            f"{rounding:.1e}, above the budget {_LN_ENV_ROUNDING:g}"
        )
    ln_turning = ln_norm - 0.5 * u_turn + kappa * ln_s_turn
    limit = _LN_TINY + _TAIL_MARGIN
    if ln_turning < limit:
        raise RefusedStateError(
            f"{name()} is out of the evaluator's range: its log-envelope at the outer turning "
            f"point is {ln_turning:.1f}, below the limit {limit:g}"
        )
    laguerre = laguerre_kernel(n_r, alpha)

    def radial(s: float) -> tuple[float, float]:
        if not s > 0.0:
            raise ValueError(f"radial argument must be > 0, got {s!r}")
        u = s * s
        ln_env = ln_norm - 0.5 * u
        # d/ds log(s^kappa exp(-s^2/2)); at kappa = 0, -s is kappa / s - s exactly.
        slope = -s
        if kappa != 0.0:
            ln_env += kappa * math.log(s)
            slope = kappa / s - s
        # Written `not >=` so that the nan of s = inf at kappa > 0, inf - inf, is cut too.
        if not ln_env >= _LN_TINY:
            # The value is cut; the derivative only where env/s is cut too,
            # as near the origin f ~ A s^kappa keeps its slope at kappa = 1.
            if s >= 1.0 or ln_env - math.log(s) < _LN_TINY:
                return _ZERO
            lag, dlag = laguerre(u)
            return 0.0, math.exp(ln_env - math.log(s)) * ((kappa - u) * lag + 2.0 * u * dlag)
        env = math.exp(ln_env)
        lag, dlag = laguerre(u)
        return env * lag, env * (slope * lag + 2.0 * s * dlag)

    return radial


def _hydrogen_position(n: int, l: int, name: Callable[[], str]) -> Evaluator:
    """Radial hydrogen function at unit charge: at xi = 2r/n = s^2 it is
    sqrt(2)/n^2 times the D = 4 radial oscillator, kappa = 2l, alpha = 2l + 1."""
    oscillator = _radial_oscillator(n - l - 1, 2.0 * l, 2.0 * l + 1.0, name)
    root = math.sqrt(2.0 / n)
    factor = _SQRT2 / (n * n)
    # ds/dr = 1 / (n s)
    slope_factor = factor / n

    def radial(r: float) -> tuple[float, float]:
        if not r > 0.0:
            raise ValueError(f"radial argument must be > 0, got {r!r}")
        # sqrt(r) first, so that s > 0 even where 2r/n underflows.
        s = root * math.sqrt(r)
        value, derivative = oscillator(s)
        return factor * value, slope_factor * derivative / s

    return radial


def _hydrogen_momentum(n: int, l: int, name: Callable[[], str]) -> Evaluator:
    """Momentum-space radial hydrogen function at unit charge, in t = n p,
    v = 1/(1+t^2) and q = (t^2-1) v; past t ~ 1.3e154, t*t is inf, v = 0 and
    the cutoff returns zeros. RefusedStateError, naming the state as name(),
    at the first point whose value or derivative is not finite: no bound on
    the Gegenbauer factor tells the states where it overflows from the rest."""
    ln_norm = (
        2.0 * math.log(n)
        + (2.0 * l + 2.0) * math.log(2.0)
        + ln_gamma(l + 1.0)
        + 0.5 * (math.log(2.0) - _LN_PI + ln_gamma(n - l) - ln_gamma(n + l + 1.0))
    )
    gegenbauer = gegenbauer_kernel(n - l - 1, l + 1.0)
    decay_power = l + 2.0
    two_decay_power = 2.0 * (l + 2.0)

    def radial(p: float) -> tuple[float, float]:
        if not p > 0.0:
            raise ValueError(f"radial argument must be > 0, got {p!r}")
        t = n * p
        v = 1.0 / (1.0 + t * t)
        q = (t * t - 1.0) * v
        dq_dt = 4.0 * t * v * v
        # d/dt log(1+t^2)^(l+2), rounded as the reference log-derivative rounds it.
        rational_decay = two_decay_power * t * v
        ln_env = ln_norm - decay_power * math.log1p(t * t)
        if l:
            ln_env += l * math.log(t)
        # `not >=` also cuts the nan of p = inf at l > 0, inf - inf.
        if not ln_env >= _LN_TINY:
            # As in _radial_oscillator, f ~ A t^l keeps its slope at l = 1.
            if t >= 1.0 or ln_env - math.log(t) < _LN_TINY:
                return _ZERO
            geg, dgeg = gegenbauer(q)
            over = math.exp(ln_env - math.log(t))
            value, derivative = 0.0, n * over * ((l - t * rational_decay) * geg + t * dgeg * dq_dt)
        else:
            env = math.exp(ln_env)
            geg, dgeg = gegenbauer(q)
            value, derivative = env * geg, n * (env * ((l / t - rational_decay) * geg + dgeg * dq_dt))
        if math.isfinite(value) and math.isfinite(derivative):
            return value, derivative
        raise RefusedStateError(f"{name()} is out of the evaluator's range: its Gegenbauer factor overflows at p = {p!r}")

    return radial


def _over_z_squared(value: float, Z: float) -> float:
    """value / Z^2 for a positive value: a hydrogen momentum form at a
    target with nodes."""
    z2 = Z * Z
    if not z2:
        # Below Z ~ 1e-162 the square underflows.
        return math.inf
    if z2 == math.inf:
        # Above Z ~ 1e154 the square overflows, but the value may still be a
        # subnormal; dividing by Z twice keeps it.
        return value / Z / Z
    return value / z2


class _Family:
    """What each system class provides for its own states.

    A state is a unit-scale function f, normalized on the half line, and a
    length scale c: R(s) = c^(3/2) f(c s), or for the 1D oscillator |psi(x)| =
    c^(1/2) |f(c |x|)| / sqrt(2). omega, Z and b enter only through c, and the
    relative Fisher information is c^2 times that of f. The oracle integrates
    f, where its tolerances hold at every scale.

    _Family gives no default but radial and _grid, and builds compile from
    scale and unit; each family states every other entry once.

    name                    the CLI --system name
    number_fields           quantum-number fields, in label order; the
                            others must be left at None
    radial                  True when integrals of f take the weight s^2;
                            False only for the 1D oscillator
    check(state)            raise ValueError unless the quantum numbers are valid
    radial_nodes(state)     interior nodes of the radial (or full-line) function
    reference(state)        the node-less state of the same system, space and l
    label(state)            the quantum numbers as text, for example "n=3,l=1"
    scale(state)            c, the length scale above
    layout(state)           (the unit length, where |f|^2 lives and the
                            oracle's quadrature scale; the oracle's initial
                            breaks in f's argument, the lattice points across
                            a Laguerre state's classical window, or none)
    unit(state)             (f as an Evaluator, d/du log(reference f)); the
                            log-derivative is coded in closed form, apart
                            from f and closed_form, so the oracle stays an
                            independent route, and, the reference being
                            node-less, it never divides by a wavefunction value
    unit_key(state)         a hashable name, within the family, for
                            everything unit(state) evaluates: states with
                            equal keys have the same f and reference
                            log-derivative, and the oracle integrates them
                            once
    closed_form(state)      relative Fisher information against the reference
    spacing(space)          constant gap between adjacent closed forms
    _grid(ranges)           optional: the corner and the number tuples of
                            a grid, when they are not the ranges' first
                            values and their product
    """

    radial = True

    def compile(self, state: QuantumState) -> Evaluator:
        """The normalized radial function R(s) = c^(3/2) f(c s) as an Evaluator."""
        c = self.scale(state)
        wave, _ = self.unit(state)
        # Factor by factor, as c^(3/2) may overflow and inf * 0.0 is nan.
        root = math.sqrt(c)

        def scaled(s: float) -> tuple[float, float]:
            value, derivative = wave(c * s)
            return value * c * root, derivative * c * c * root

        return scaled

    def _name(self, state: QuantumState) -> str:
        return f"{self.name} {state.space} {self.label(state)} of {self!r}"

    def grid(self, spaces: Sequence[str], **ranges: range) -> Iterator[QuantumState]:
        """The states of this system over a grid of quantum numbers, checked once.

        Each keyword names one of number_fields and gives its values as an
        ascending range. States come in the order of itertools.product over
        the fields, in number_fields order, with the space innermost. A
        hydrogen grid skips, at each n, the part of its l range above n-1. An
        empty range makes an empty grid.

        The grid is checked here, before the first state: QuantumState's own
        checks run on its corner state in each space, which an invalid grid
        always fails first, so an invalid grid raises the ValueError of its
        first invalid state. The states are then built without
        QuantumState.__post_init__; each is == to QuantumState(...) and has
        the same hash.
        """
        if sorted(ranges) != sorted(self.number_fields):
            raise ValueError(f"a {self.name} grid takes ranges for exactly {', '.join(self.number_fields)}")
        if not all(ranges.values()):
            return iter(())
        if any(r.step < 0 for r in ranges.values()):
            raise ValueError("grid ranges must ascend")
        spaces = tuple(spaces)  # iterated once here and again per state
        corner, numbers = self._grid([ranges[field] for field in self.number_fields])
        for space in spaces:
            QuantumState(self, space, **dict(zip(self.number_fields, corner)))
        return _checked_states(self, spaces, self.number_fields, numbers)

    def _grid(self, ranges: list[range]) -> tuple[tuple[int, ...], Iterable[tuple[int, ...]]]:
        """The corner of a grid, which fails the checks first if any state
        does, and the grid's quantum-number tuples."""
        return tuple(r[0] for r in ranges), itertools.product(*ranges)


@dataclass(frozen=True)
class Oscillator1D(_Family):
    """Harmonic oscillator on the full line; omega in atomic units."""

    omega: float

    name = "qho1d"
    number_fields = ("n",)
    radial = False

    def __post_init__(self) -> None:
        _require_positive("omega", self.omega)

    def check(self, state: QuantumState) -> None:
        if state.n is None or state.l is not None or state.n_r is not None:
            raise ValueError("1D oscillator states take exactly the quantum number n")
        _require_quantum_number("n", state.n)

    def radial_nodes(self, state: QuantumState) -> int:
        return state.n  # type: ignore[return-value]

    def reference(self, state: QuantumState) -> QuantumState:
        return replace(state, n=0)

    def label(self, state: QuantumState) -> str:
        return f"n={state.n}"

    def scale(self, state: QuantumState) -> float:
        # c^2 = omega/sqrt(2) in position space and its reciprocal in
        # momentum space, formed in logs so that neither over- nor underflows.
        ln_c = 0.5 * math.log(self.omega) - _QUARTER_LN_2
        return math.exp(ln_c if state.space == POSITION else -ln_c)

    def unit(self, state: QuantumState) -> tuple[Evaluator, Callable[[float], float]]:
        # H_{2m+p}(y) = (-1)^m 2^(2m+p) m! y^p L_m^(p-1/2)(y^2) (Abramowitz &
        # Stegun 22.5.40-41): sqrt(2) (-1)^m psi on the half line is the d = 1
        # radial oscillator.
        m, p = divmod(state.n, 2)
        return _radial_oscillator(m, float(p), p - 0.5, lambda: self._name(state)), lambda y: -y

    def layout(self, state: QuantumState) -> tuple[float, tuple[float, ...]]:
        m, p = divmod(state.n, 2)
        return 1.0, _lattice(m, p - 0.5)

    def unit_key(self, state: QuantumState) -> Hashable:
        return (state.n,)

    def compile(self, state: QuantumState) -> Evaluator:
        """psi(x) = (-1)^m sqrt(c/2) f(c |x|) on the full line, n = 2m + p, with
        parity (-1)^n bit for bit; at x = 0 from f(s) ~ sqrt(2) A(m, p) s^p."""
        c = self.scale(state)
        wave, _ = self.unit(state)
        m, p = divmod(state.n, 2)
        half = math.sqrt(0.5 * c) * (-1.0) ** m
        ln_a = 0.5 * (ln_gamma(m + p + 0.5) - ln_gamma(m + 1.0)) - ln_gamma(p + 0.5)
        lead = half * _SQRT2 * math.exp(ln_a)
        at_zero = (0.0, c * lead) if p else (lead, 0.0)

        def full_line(x: float) -> tuple[float, float]:
            y = c * abs(x)
            if y == 0.0:
                return at_zero
            value, derivative = wave(y)
            value, derivative = value * half, derivative * c * half
            if x < 0.0:
                return (-value, derivative) if p else (value, -derivative)
            return value, derivative

        return full_line

    def closed_form(self, state: QuantumState) -> float:
        if not state.n:
            return 0.0  # also where the spacing overflows and inf * 0 is nan
        # Factoring through omega/sqrt(2) makes the two spaces coincide
        # bitwise at omega = sqrt(2), where both equal 8n.
        ratio = self.omega / _SQRT2 if state.space == POSITION else _SQRT2 / self.omega
        return 8.0 * ratio * state.n

    def spacing(self, space: str) -> float:
        ratio = self.omega / _SQRT2 if space == POSITION else _SQRT2 / self.omega
        return 8.0 * ratio


class _RadialOscillator(_Family):
    """States (n_r, l) of the radial family A s^kappa exp(-b s^2/2) L_{n_r}^{kappa+1/2}(b s^2).

    A subclass supplies _kappa_b(state), the exponent kappa and the width b of
    the state's space, and _unit_length; the length scale is sqrt(b). f and
    the unit length do not depend on the space, so both spaces integrate the
    same unit-scale integral, named by (n_r, kappa).
    """

    number_fields = ("n_r", "l")
    _unit_length = 1.0

    def check(self, state: QuantumState) -> None:
        if state.n_r is None or state.l is None or state.n is not None:
            raise ValueError("radial oscillator states take exactly (n_r, l)")
        _require_quantum_number("n_r", state.n_r)
        _require_quantum_number("l", state.l)

    def radial_nodes(self, state: QuantumState) -> int:
        return state.n_r  # type: ignore[return-value]

    def reference(self, state: QuantumState) -> QuantumState:
        return replace(state, n_r=0)

    def label(self, state: QuantumState) -> str:
        return f"n_r={state.n_r},l={state.l}"

    def scale(self, state: QuantumState) -> float:
        return math.sqrt(self._kappa_b(state)[1])

    def unit(self, state: QuantumState) -> tuple[Evaluator, Callable[[float], float]]:
        kappa, _ = self._kappa_b(state)
        wave = _radial_oscillator(state.n_r, kappa, kappa + 0.5, lambda: self._name(state))
        return wave, lambda s: kappa / s - s

    def layout(self, state: QuantumState) -> tuple[float, tuple[float, ...]]:
        kappa, _ = self._kappa_b(state)
        return self._unit_length, _lattice(state.n_r, kappa + 0.5)

    def unit_key(self, state: QuantumState) -> Hashable:
        return state.n_r, self._kappa_b(state)[0]


@dataclass(frozen=True)
class Oscillator3D(_RadialOscillator):
    """Isotropic three-dimensional harmonic oscillator; omega in atomic units."""

    omega: float

    name = "qho3d"

    def __post_init__(self) -> None:
        _require_positive("omega", self.omega)

    def _kappa_b(self, state: QuantumState) -> tuple[float, float]:
        b = self.omega if state.space == POSITION else 1.0 / self.omega
        return float(state.l), b

    def closed_form(self, state: QuantumState) -> float:
        if not state.n_r:
            return 0.0  # also where the factor overflows and inf * 0 is nan
        factor = 16.0 * self.omega if state.space == POSITION else 16.0 / self.omega
        return factor * state.n_r

    def spacing(self, space: str) -> float:
        # Per unit principal quantum number 2*n_r + l: half the per-n_r step.
        return 8.0 * self.omega if space == POSITION else 8.0 / self.omega


@dataclass(frozen=True)
class Hydrogenic(_Family):
    """One-electron atom with nuclear charge Z.

    Z is real, not integer: nothing in the formulas needs integrality, and
    screened-charge experiments are legitimate inputs.
    """

    Z: float

    name = "hydrogen"
    number_fields = ("n", "l")

    def __post_init__(self) -> None:
        _require_positive("Z", self.Z)

    def check(self, state: QuantumState) -> None:
        if state.n is None or state.l is None or state.n_r is not None:
            raise ValueError("hydrogen-like states take exactly (n, l)")
        _require_quantum_number("n", state.n, minimum=1)
        _require_quantum_number("l", state.l)
        if state.l > state.n - 1:
            raise ValueError(f"l must satisfy l <= n-1, got n={state.n}, l={state.l}")

    def _grid(self, ranges: list[range]) -> tuple[tuple[int, ...], Iterable[tuple[int, ...]]]:
        # The grid skips l > n-1 instead of refusing it, so its corner takes
        # the largest l that the first n admits when the first l is above it.
        n_range, l_range = ranges
        corner = (n_range[0], min(l_range[0], n_range[0] - 1))
        return corner, (
            (n, l) for n in n_range for l in range(l_range.start, min(n, l_range.stop), l_range.step)
        )

    def radial_nodes(self, state: QuantumState) -> int:
        return state.n - state.l - 1  # type: ignore[operator]

    def reference(self, state: QuantumState) -> QuantumState:
        # The circular state n = l + 1.
        return replace(state, n=state.l + 1)

    def label(self, state: QuantumState) -> str:
        return f"n={state.n},l={state.l}"

    def scale(self, state: QuantumState) -> float:
        return self.Z if state.space == POSITION else 1.0 / self.Z

    def unit(self, state: QuantumState) -> tuple[Evaluator, Callable[[float], float]]:
        n, l = state.n, state.l
        if state.space == POSITION:
            # Circular reference sharing the target's length scale: r^l e^{-r/n}.
            wave = _hydrogen_position(n, l, lambda: self._name(state))
            return wave, lambda r: l / r - 1.0 / n

        def momentum_log_derivative(p: float) -> float:
            # t^l / (1+t^2)^(l+2) at t = n p, its decay rounded as the evaluator's 2(l+2) t v.
            t = n * p
            return n * (l / t - (2.0 * (l + 2.0) * t) * (1.0 / (1.0 + t * t)))

        return _hydrogen_momentum(n, l, lambda: self._name(state)), momentum_log_derivative

    def layout(self, state: QuantumState) -> tuple[float, tuple[float, ...]]:
        if state.space == MOMENTUM:
            return 1.0 / state.n, ()
        # The D = 4 oscillator's s is at r = n s^2 / 2, and n is the unit
        # length, so the breaks' t-images s^2 / (s^2 + 2) do not depend on n.
        length = float(state.n)
        lattice = _lattice(state.n - state.l - 1, 2.0 * state.l + 1.0)
        return length, tuple(0.5 * length * s * s for s in lattice)

    def unit_key(self, state: QuantumState) -> Hashable:
        # f is taken at unit charge, so Z is not part of it.
        return state.space, state.n, state.l

    def closed_form(self, state: QuantumState) -> float:
        n, l, Z = state.n, state.l, self.Z
        if state.space == POSITION:
            # Int true division is correctly rounded, so this equals
            # float(hydrogen_position_rational(n, l)) * Z * Z bit for bit.
            return 8 * (n - l - 1) / n ** 3 * Z * Z
        if n == l + 1:
            return 0.0
        return _over_z_squared(float(16 * n * n * (n * n - (l + 1) ** 2)), Z)

    def spacing(self, space: str) -> float:
        raise UnsupportedSystemError("spacing is not constant for hydrogen-like systems")


@dataclass(frozen=True)
class Pseudoharmonic(_RadialOscillator):
    """Diatomic pseudoharmonic potential De*(r/re - re/r)^2, all in atomic units.

    mu is the reduced mass, De the dissociation energy, re the equilibrium
    separation.
    """

    mu: float
    De: float
    re: float

    name = "php"
    # In both spaces; it places the position nodes at the length 1/sqrt(lambda).
    _unit_length = _SQRT2

    def __post_init__(self) -> None:
        _require_positive("mu", self.mu)
        _require_positive("De", self.De)
        _require_positive("re", self.re)

    @property
    def _lam(self) -> float:
        """lambda = sqrt(mu*De/2)/re, the same at every l."""
        return math.sqrt(0.5 * self.mu * self.De) / self.re

    def _kappa_b(self, state: QuantumState) -> tuple[float, float]:
        derived = php_derived(self, state.l)
        b = 2.0 * derived.lam if state.space == POSITION else 0.5 / derived.lam
        return derived.gamma_l, b

    def closed_form(self, state: QuantumState) -> float:
        lam = self._lam
        return 32.0 * lam * state.n_r if state.space == POSITION else 8.0 * state.n_r / lam

    def spacing(self, space: str) -> float:
        lam = self._lam
        return 32.0 * lam if space == POSITION else 8.0 / lam


# Every system family, in the order the CLI lists and sweeps them.
FAMILIES = (Oscillator1D, Oscillator3D, Hydrogenic, Pseudoharmonic)

SystemParams = Oscillator1D | Oscillator3D | Hydrogenic | Pseudoharmonic


@dataclass(frozen=True)
class PhpDerived:
    """Derived pseudoharmonic parameters.

    gamma_l is the effective angular exponent (>= l always), lam the Gaussian
    width parameter in inverse squared length.
    """

    gamma_l: float
    lam: float


@dataclass(frozen=True)
class QuantumState:
    """A bound state of one system in one space.

    Quantum-number conventions:
      Oscillator1D    n >= 0                (field n)
      Oscillator3D    n_r >= 0, l >= 0      (fields n_r, l)
      Pseudoharmonic  n_r >= 0, l >= 0      (fields n_r, l)
      Hydrogenic      n >= 1, 0 <= l <= n-1 (fields n, l)

    Fields that do not apply to the system must be left at None.
    """

    system: SystemParams
    space: str
    n: int | None = None
    l: int | None = None
    n_r: int | None = None

    def __post_init__(self) -> None:
        if self.space not in SPACES:
            raise ValueError(f"space must be one of {SPACES}, got {self.space!r}")
        if not isinstance(self.system, _Family):
            raise ValueError(f"unknown system parameters: {self.system!r}")
        self.system.check(self)

    @property
    def radial_nodes(self) -> int:
        """Interior nodes of the radial (or full-line) wavefunction."""
        return self.system.radial_nodes(self)


def _checked_states(
    system: SystemParams,
    spaces: Sequence[str],
    number_fields: Sequence[str],
    numbers: Iterable[tuple[int, ...]],
) -> Iterator[QuantumState]:
    """QuantumState(system, space, **dict(zip(number_fields, combo))) for each
    combo and space, built without __post_init__: only for a checked grid."""
    new = object.__new__
    set_attribute = object.__setattr__
    blank = dict.fromkeys(field.name for field in fields(QuantumState))
    for combo in numbers:
        values = blank.copy()
        values["system"] = system
        values.update(zip(number_fields, combo))
        for space in spaces:
            state = new(QuantumState)
            values["space"] = space
            set_attribute(state, "__dict__", values.copy())
            yield state


def reference_state(target: QuantumState) -> QuantumState:
    """Node-less comparison state for a target: same system, same space.

    1D oscillator: the n = 0 state. Radial oscillators and the pseudoharmonic
    potential: n_r = 0 at the target's l. Hydrogen-like: the circular state
    n = l + 1 at the target's l. Idempotent by construction.
    For hydrogen the oracle's reference is this shape at the target's own
    scale, not this state: at unit charge r^l e^(-r/n), and t^l/(1+t^2)^(l+2)
    with t = n p; the Laguerre references already share the target's scale.
    """
    return target.system.reference(target)


def php_derived(params: Pseudoharmonic, l: int) -> PhpDerived:
    """Effective angular exponent gamma_l and width parameter lambda.

    gamma_l = (-1 + sqrt((2l+1)^2 + 8*mu*De*re^2)) / 2, lambda = sqrt(mu*De/2)/re.
    """
    _require_quantum_number("l", l)
    two_l_plus_1 = 2 * l + 1
    gamma_l = 0.5 * (-1.0 + math.sqrt(two_l_plus_1 * two_l_plus_1 + 8.0 * params.mu * params.De * params.re * params.re))
    return PhpDerived(gamma_l=gamma_l, lam=params._lam)


def hydrogen_energy(Z: float, n: int) -> float:
    """Bound-state energy -Z^2/(2 n^2) in atomic units."""
    _require_positive("Z", Z)
    _require_quantum_number("n", n, minimum=1)
    return -Z * Z / (2.0 * n * n)
