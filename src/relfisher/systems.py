"""Physical-system model: the four system families, quantum states, the
reference-state rule, derived pseudoharmonic parameters, and bound-state
energies.

Four solvable systems are supported: the one-dimensional harmonic oscillator,
the three-dimensional isotropic oscillator, the hydrogen-like atom, and the
pseudoharmonic diatomic potential. Each class holds one system's parameters
and is also the family object for that system: it owns everything in which
the systems differ (see _Family), so the wavefunction, relative-Fisher and CLI
modules ask a state's system instead of testing its type. States carry no
magnetic quantum number: the information measure computed downstream is
invariant to it.

A state is checked where it is made. QuantumState(...) checks its own space
and quantum numbers. A whole grid of states, as the CLI tabulates, comes from
its system's grid method: that checks the grid once, on its corner state, and
then builds each state without checking it again.

The wavefunction evaluators live here with their families. Their
normalization prefactors are assembled in log space and exponentiated once,
which keeps the pseudoharmonic family (effective angular exponents up to a
few hundred for real molecules) inside double range. Derivatives are analytic
throughout: prefactor product rule plus the polynomial derivative identities;
nothing in the production path differentiates numerically.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Iterator, Sequence

from .specfun import gegenbauer_kernel, hermite_kernel, laguerre_kernel, ln_gamma

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


class UnsupportedSystemError(ValueError):
    """The requested quantity is not defined for this system family."""


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

    name                    the CLI --system name
    number_fields           quantum-number fields, in label order; the
                            others must be left at None
    radial                  True when a state's wavefunction is a radial
                            function on s > 0; False only for the 1D
                            oscillator, whose psi lives on the whole line and
                            has parity (-1)^n, so its oracle integrates twice
                            its even integrand over the half line
    check(state)            raise ValueError unless the quantum numbers are valid
    radial_nodes(state)     interior nodes of the radial (or full-line) function
    reference(state)        the node-less state of the same system, space and l
    label(state)            the quantum numbers as text, for example "n=3,l=1"
    compile(state)          the normalized wavefunction as an Evaluator
    natural_scale(state)    characteristic length of the density
    closed_form(state)      relative Fisher information against the reference
    reference_log_derivative(state)
                            d/ds log(reference wavefunction) in closed form;
                            the reference is node-less, so it is finite on
                            the whole interior domain and never divides by a
                            wavefunction value. It is coded apart from
                            compile and closed_form so the oracle stays an
                            independent route
    spacing(space)          constant gap between adjacent closed forms
    _grid(ranges)           optional: the corner and the number tuples of
                            a grid, when they are not the ranges' first
                            values and their product
    """

    radial = True

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

    def compile(self, state: QuantumState) -> Evaluator:
        return _qho1d(state.n, self.omega, state.space)

    def natural_scale(self, state: QuantumState) -> float:
        return 1.0 / _qho1d_argument_scale(self.omega, state.space)

    def closed_form(self, state: QuantumState) -> float:
        if not state.n:
            return 0.0  # also where the spacing overflows and inf * 0 is nan
        # Factoring through omega/sqrt(2) makes the two spaces coincide
        # bitwise at omega = sqrt(2), where both equal 8n.
        ratio = self.omega / _SQRT2 if state.space == POSITION else _SQRT2 / self.omega
        return 8.0 * ratio * state.n

    def reference_log_derivative(self, state: QuantumState) -> Callable[[float], float]:
        # omega / sqrt(2), not sqrt(omega^2 / 2): the square overflows above
        # omega ~ 1e154 and underflows below 1e-154.
        c2 = self.omega / _SQRT2
        if state.space == MOMENTUM:
            c2 = 1.0 / c2
        return lambda x: -c2 * x

    def spacing(self, space: str) -> float:
        ratio = self.omega / _SQRT2 if space == POSITION else _SQRT2 / self.omega
        return 8.0 * ratio


class _RadialOscillator(_Family):
    """States (n_r, l) of the radial family A s^kappa exp(-b s^2/2) L_{n_r}^{kappa+1/2}(b s^2).

    A subclass supplies _kappa_b(state), the exponent kappa and the width b of
    the state's space.
    """

    number_fields = ("n_r", "l")

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

    def compile(self, state: QuantumState) -> Evaluator:
        kappa, b = self._kappa_b(state)
        return _radial_oscillator(state.n_r, kappa, b)

    def reference_log_derivative(self, state: QuantumState) -> Callable[[float], float]:
        kappa, b = self._kappa_b(state)
        return lambda s: kappa / s - b * s


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

    def natural_scale(self, state: QuantumState) -> float:
        root = math.sqrt(self.omega)
        return 1.0 / root if state.space == POSITION else root

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

        def below(n: int) -> range:
            return l_range[: len(range(l_range.start, n, l_range.step))]

        corner = (n_range[0], min(l_range[0], n_range[0] - 1))
        return corner, ((n, l) for n in n_range for l in below(n))

    def radial_nodes(self, state: QuantumState) -> int:
        return state.n - state.l - 1  # type: ignore[operator]

    def reference(self, state: QuantumState) -> QuantumState:
        # The circular state n = l + 1.
        return replace(state, n=state.l + 1)

    def label(self, state: QuantumState) -> str:
        return f"n={state.n},l={state.l}"

    def compile(self, state: QuantumState) -> Evaluator:
        if state.space == POSITION:
            return _hydrogen_position(state.n, state.l, self.Z)
        return _hydrogen_momentum(state.n, state.l, self.Z)

    def natural_scale(self, state: QuantumState) -> float:
        return self.Z / state.n if state.space == MOMENTUM else state.n / self.Z

    def closed_form(self, state: QuantumState) -> float:
        n, l, Z = state.n, state.l, self.Z
        if state.space == POSITION:
            # Int true division is correctly rounded, so this equals
            # float(hydrogen_position_rational(n, l)) * Z * Z bit for bit.
            return 8 * (n - l - 1) / n ** 3 * Z * Z
        if n == l + 1:
            return 0.0
        return _over_z_squared(float(16 * n * n * (n * n - (l + 1) ** 2)), Z)

    def reference_log_derivative(self, state: QuantumState) -> Callable[[float], float]:
        n, l, Z = state.n, state.l, self.Z
        if state.space == POSITION:
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

    def __post_init__(self) -> None:
        _require_positive("mu", self.mu)
        _require_positive("De", self.De)
        _require_positive("re", self.re)

    def _kappa_b(self, state: QuantumState) -> tuple[float, float]:
        derived = php_derived(self, state.l)
        b = 2.0 * derived.lam if state.space == POSITION else 0.5 / derived.lam
        return derived.gamma_l, b

    def natural_scale(self, state: QuantumState) -> float:
        root = math.sqrt(php_derived(self, state.l).lam)
        return 1.0 / root if state.space == POSITION else root

    def closed_form(self, state: QuantumState) -> float:
        lam = php_derived(self, state.l).lam
        return 32.0 * lam * state.n_r if state.space == POSITION else 8.0 * state.n_r / lam

    def spacing(self, space: str) -> float:
        lam = php_derived(self, 0).lam
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
    """
    return target.system.reference(target)


def php_derived(params: Pseudoharmonic, l: int) -> PhpDerived:
    """Effective angular exponent gamma_l and width parameter lambda.

    gamma_l = (-1 + sqrt((2l+1)^2 + 8*mu*De*re^2)) / 2, lambda = sqrt(mu*De/2)/re.
    """
    _require_quantum_number("l", l)
    two_l_plus_1 = 2 * l + 1
    gamma_l = 0.5 * (-1.0 + math.sqrt(two_l_plus_1 * two_l_plus_1 + 8.0 * params.mu * params.De * params.re * params.re))
    lam = math.sqrt(0.5 * params.mu * params.De) / params.re
    return PhpDerived(gamma_l=gamma_l, lam=lam)


def hydrogen_energy(Z: float, n: int) -> float:
    """Bound-state energy -Z^2/(2 n^2) in atomic units."""
    _require_positive("Z", Z)
    _require_quantum_number("n", n, minimum=1)
    return -Z * Z / (2.0 * n * n)
