"""The four system families (1D and 3D oscillator, hydrogen-like atom,
pseudoharmonic molecule), quantum states, the reference-state rule, derived
pseudoharmonic parameters and bound-state energies.

Each class holds one system's parameters and is the family object for that
system: it owns everything in which the systems differ (see _Family), so the
other modules ask a state's system instead of testing its type. States carry
no magnetic quantum number, to which the information measure is invariant.
QuantumState(...) checks its own space and quantum numbers; a system's
grid_numbers method checks a whole grid once, on its corner state.

The families build their unit-scale evaluators, in the point form and in
the oracle's panel form (see _evaluators), from terms bound here: the
log-normalization, checked against the evaluators' range, and then the
polynomial, through this module's laguerre_kernel and gegenbauer_kernel for
a point form and laguerre_column and gegenbauer_column for a panel. Every
Laguerre state shares one set of terms and its truncation guard,
_oscillator_terms: the 1D oscillator (D = 1), the 3D oscillator and the
pseudoharmonic potential (D = 3), and hydrogen position (D = 4). Its
turning points also give the oracle's initial breaks (_lattice); hydrogen
momentum's terms are _momentum_terms.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from ._evaluators import LN_TINY as _LN_TINY
from ._evaluators import (
    Evaluator,
    hydrogen_momentum,
    hydrogen_position,
    momentum_panel,
    oscillator_panel,
    radial_oscillator,
)
from ._record import record, replace
from .quadrature import Panel
from .specfun import gegenbauer_column, gegenbauer_kernel, laguerre_column, laguerre_kernel, ln_gamma

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


class UnsupportedSystemError(ValueError):
    """The requested quantity is not defined for this system family."""


class RefusedStateError(ValueError):
    """This state's log-normalization overflows or rounds beyond
    _LN_ENV_ROUNDING, or the evaluator's cutoff would truncate its
    wavefunction (a Laguerre state), all at compile time; or its Gegenbauer
    factor overflows (a hydrogen momentum state, at the first point where it
    does)."""


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
    which _oscillator_terms refuses."""
    u_in, u_out = _turning_points(n_r, alpha)
    if not 0.5 * u_out * _ULP <= _LN_ENV_ROUNDING:
        return ()
    first = max(1, math.floor((math.sqrt(max(u_in, 0.0)) - _WINDOW_MARGIN) / _BREAK_WIDTH))
    last = math.ceil((math.sqrt(u_out) + _WINDOW_MARGIN) / _BREAK_WIDTH)
    return tuple(k * _BREAK_WIDTH for k in range(first, last + 1))


def _oscillator_terms(n_r: int, kappa: float, alpha: float, name: Callable[[], str]) -> float:
    """ln A of the D-dimensional radial oscillator
    A s^kappa exp(-s^2/2) L_{n_r}^alpha(s^2), alpha = kappa + D/2 - 1,
    normalized on the half line with weight s^(D-1): the 1D oscillator's
    n = 2 n_r + kappa (D = 1), the 3D oscillator (kappa = l) and
    pseudoharmonic potential (kappa = gamma_l) at D = 3, and hydrogen position
    (kappa = 2l) at D = 4.
    RefusedStateError, naming the state as name(), if its log-normalization
    overflows, its log-envelope rounds beyond _LN_ENV_ROUNDING or the cutoff
    would truncate it; a caller binds L_{n_r}^alpha only after these checks.
    """
    try:
        ln_norm = 0.5 * (math.log(2.0) + ln_gamma(n_r + 1.0) - ln_gamma(n_r + alpha + 1.0))
    except OverflowError:
        raise RefusedStateError(f"{name()} is out of the evaluator's range: its log-normalization overflows") from None
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
    return ln_norm


def _momentum_terms(n: int, l: int, name: Callable[[], str]) -> tuple[float, Callable[[float], RefusedStateError]]:
    """(ln A, the error for a point p where the Gegenbauer factor overflows)
    of the momentum-space radial hydrogen function at unit charge,
    A t^l (1+t^2)^-(l+2) C_{n-l-1}^{l+1}(q) in t = n p and
    q = (t^2-1)/(t^2+1). RefusedStateError, naming the state as name(), if
    its log-normalization overflows or its log-gamma terms round beyond
    _LN_ENV_ROUNDING; a caller binds C_{n-l-1}^{l+1}, and its n - l - 1
    steps, only after these checks."""
    try:
        ln_gamma_l, ln_gamma_low, ln_gamma_high = ln_gamma(l + 1.0), ln_gamma(n - l), ln_gamma(n + l + 1.0)
    except OverflowError:
        raise RefusedStateError(f"{name()} is out of the evaluator's range: its log-normalization overflows") from None
    # As in _oscillator_terms, each term is rounded to 2^-52 of its size, and
    # ln_gamma_low - ln_gamma_high cancels; at l = 0 this refuses from n ~ 3.8e5.
    rounding = _ULP * (ln_gamma_l + 0.5 * (ln_gamma_low + ln_gamma_high))
    if not rounding <= _LN_ENV_ROUNDING:
        raise RefusedStateError(
            f"{name()} is out of the evaluator's range: its log-normalization terms round to "
            f"{rounding:.1e}, above the budget {_LN_ENV_ROUNDING:g}"
        )
    ln_norm = (
        2.0 * math.log(n)
        + (2.0 * l + 2.0) * math.log(2.0)
        + ln_gamma_l
        + 0.5 * (math.log(2.0) - _LN_PI + ln_gamma_low - ln_gamma_high)
    )

    def overflow(p: float) -> RefusedStateError:
        return RefusedStateError(
            f"{name()} is out of the evaluator's range: its Gegenbauer factor overflows at p = {p!r}"
        )

    return ln_norm, overflow


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

    _Family gives check, radial, label, radial_nodes and _grid, and builds
    compile from scale and unit, and unit, fisher_panel and layout from
    _oscillator; each family states every other entry once. The entries
    that take numbers take the quantum numbers as a tuple in number_fields
    order, as a grid yields them, and need no QuantumState.

    name                    the CLI --system name
    number_fields           quantum-number fields, in label order; the
                            others must be left at None
    radial                  True when integrals of f take the weight s^2;
                            False only for the 1D oscillator
    check(state)            raise ValueError unless the quantum numbers are valid
    radial_nodes(numbers)   interior nodes of the radial (or full-line) function
    reference(state)        the node-less state of the same system, space and l
    label(numbers)          the quantum numbers as text, each field=value, joined
                            by commas in number_fields order: "n=3,l=1"
    scale(state)            c, the length scale above
    _oscillator(state)      (n_r, kappa, alpha, reference, n): f as the radial
                            oscillator of _oscillator_terms, and its L, as
                            _evaluators.oscillator_panel takes them
    layout(state)           (a hashable name, within the family, for the
                            unit-scale integral: states of equal names have
                            the same f, reference log-derivative and layout,
                            and the oracle integrates them once; the unit
                            length, where |f|^2 lives and the oracle's
                            quadrature scale; the oracle's initial breaks in
                            f's argument, the lattice points across a
                            Laguerre state's classical window, or none);
                            by default named by _oscillator(state)
    unit(state)             f as an Evaluator
    fisher_panel(state)     the oracle's integrand 4 s^2 (f' - f L)^2 of f,
                            L = d/du log(reference f), without the s^2 unless
                            radial, as a quadrature.Panel: the loop of
                            _evaluators for unit's evaluator, from the same
                            terms, with its samples bit for bit. L is coded
                            in closed form in the loop, apart from f and
                            closed_form, so the oracle stays an independent
                            route, and, the reference being node-less, it
                            never divides by a wavefunction value
    closed_form(space, numbers)
                            relative Fisher information against the reference
    spacing(space)          constant gap between adjacent closed forms
    _grid(ranges)           optional: the corner and the number tuples of
                            a grid, when they are not the ranges' first
                            values and their product
    """

    radial = True
    _minimum: dict[str, int] = {}  # a number field's least value, where it is not 0
    _unit_length = 1.0

    def __init_subclass__(cls) -> None:
        # label's %-template, "n_r=%s,l=%s" for the fields ("n_r", "l").
        cls._label = ",".join(f"{field}=%s" for field in getattr(cls, "number_fields", ()))

    def check(self, state: QuantumState) -> None:
        fields = self.number_fields
        if any((getattr(state, field) is None) is (field in fields) for field in ("n", "l", "n_r")):
            raise ValueError(f"{self.name} states take exactly the quantum numbers {', '.join(fields)}")
        for field in fields:
            _require_quantum_number(field, getattr(state, field), self._minimum.get(field, 0))

    def label(self, numbers: tuple[int, ...]) -> str:
        return self._label % numbers

    def radial_nodes(self, numbers: tuple[int, ...]) -> int:
        return numbers[0]

    def unit(self, state: QuantumState) -> Evaluator:
        n_r, kappa, alpha, _, n = self._oscillator(state)
        ln_norm = _oscillator_terms(n_r, kappa, alpha, lambda: self._name(state))
        wave = radial_oscillator(ln_norm, laguerre_kernel(n_r, alpha), kappa=kappa)
        return hydrogen_position(wave, n) if n else wave

    def fisher_panel(self, state: QuantumState) -> Panel:
        n_r, kappa, alpha, reference, n = self._oscillator(state)
        ln_norm = _oscillator_terms(n_r, kappa, alpha, lambda: self._name(state))
        column = laguerre_column(n_r, alpha)
        return oscillator_panel(ln_norm, column, kappa=kappa, reference=reference, radial=self.radial, n=n)

    def layout(self, state: QuantumState) -> tuple[Hashable, float, tuple[float, ...]]:
        name = self._oscillator(state)
        n_r, _, alpha, _, n = name
        lattice = _lattice(n_r, alpha)
        if not n:
            return name, self._unit_length, lattice
        # The D = 4 oscillator's s is at r = n s^2 / 2, and n is the unit
        # length, so the breaks' t-images s^2 / (s^2 + 2) do not depend on n.
        return name, float(n), tuple(0.5 * n * s * s for s in lattice)

    def compile(self, state: QuantumState) -> Evaluator:
        """The normalized radial function R(s) = c^(3/2) f(c s) as an Evaluator."""
        c = self.scale(state)
        wave = self.unit(state)
        # Factor by factor, as c^(3/2) may overflow and inf * 0.0 is nan.
        root = math.sqrt(c)

        def scaled(s: float) -> tuple[float, float]:
            value, derivative = wave(c * s)
            return value * c * root, derivative * c * c * root

        return scaled

    def _name(self, state: QuantumState) -> str:
        return f"{self.name} {state.space} {self.label(state.numbers)} of {self!r}"

    def state(self, space: str, numbers: tuple[int, ...]) -> QuantumState:
        """QuantumState(self, space, ...) at the quantum numbers in number_fields order."""
        return QuantumState(self, space, **dict(zip(self.number_fields, numbers)))

    def grid(self, spaces: Sequence[str], **ranges: range) -> Iterator[QuantumState]:
        """The states of this system over a grid of quantum numbers: a state,
        built by state(space, numbers), for each of grid_numbers(spaces,
        **ranges) and each space, with the space innermost."""
        spaces = tuple(spaces)  # iterated once by grid_numbers and again per state
        return (self.state(space, numbers) for numbers in self.grid_numbers(spaces, **ranges) for space in spaces)

    def grid_numbers(self, spaces: Sequence[str], **ranges: range) -> Iterable[tuple[int, ...]]:
        """The quantum-number tuples of a grid, in number_fields order, checked once.

        Each keyword names one of number_fields and gives its values as an
        ascending range. The tuples come in the order of itertools.product
        over the fields, in number_fields order. A hydrogen grid skips, at
        each n, the part of its l range above n-1. An empty range makes an
        empty grid.

        The grid is checked here, before the first tuple: QuantumState's own
        checks run on its corner state in each of spaces, which an invalid
        grid always fails first, so an invalid grid raises the ValueError of
        its first invalid state, and every tuple is valid in every space.
        """
        if sorted(ranges) != sorted(self.number_fields):
            raise ValueError(f"a {self.name} grid takes ranges for exactly {', '.join(self.number_fields)}")
        if not all(ranges.values()):
            return ()
        if any(r.step < 0 for r in ranges.values()):
            raise ValueError("grid ranges must ascend")
        corner, numbers = self._grid([ranges[field] for field in self.number_fields])
        for space in spaces:
            self.state(space, corner)
        return numbers

    def _grid(self, ranges: list[range]) -> tuple[tuple[int, ...], Iterable[tuple[int, ...]]]:
        """The corner of a grid, which fails the checks first if any state
        does, and the grid's quantum-number tuples."""
        return tuple(r[0] for r in ranges), itertools.product(*ranges)


@record
class Oscillator1D(_Family):
    """Harmonic oscillator on the full line; omega in atomic units."""

    omega: float

    name = "qho1d"
    number_fields = ("n",)
    radial = False

    def __post_init__(self) -> None:
        _require_positive("omega", self.omega)

    def reference(self, state: QuantumState) -> QuantumState:
        return replace(state, n=0)

    def scale(self, state: QuantumState) -> float:
        # c^2 = omega/sqrt(2) in position space and its reciprocal in
        # momentum space, formed in logs so that neither over- nor underflows.
        ln_c = 0.5 * math.log(self.omega) - _QUARTER_LN_2
        return math.exp(ln_c if state.space == POSITION else -ln_c)

    def _oscillator(self, state: QuantumState) -> tuple[int, float, float, float, int]:
        # H_{2m+p}(y) = (-1)^m 2^(2m+p) m! y^p L_m^(p-1/2)(y^2) (Abramowitz &
        # Stegun 22.5.40-41): sqrt(2) (-1)^m psi on the half line is the d = 1
        # radial oscillator, and the reference n = 0 is its m = p = 0.
        m, p = divmod(state.n, 2)
        return m, float(p), p - 0.5, 0.0, 0

    def compile(self, state: QuantumState) -> Evaluator:
        """psi(x) = (-1)^m sqrt(c/2) f(c |x|) on the full line, n = 2m + p, with
        parity (-1)^n bit for bit; at x = 0 from f(s) ~ sqrt(2) A(m, p) s^p."""
        c = self.scale(state)
        wave = self.unit(state)
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

    def closed_form(self, space: str, numbers: tuple[int, ...]) -> float:
        (n,) = numbers
        if not n:
            return 0.0  # also where the spacing overflows and inf * 0 is nan
        return self.spacing(space) * n

    def spacing(self, space: str) -> float:
        # Factoring through omega/sqrt(2) makes the two spaces coincide
        # bitwise at omega = sqrt(2), where both equal 8 per unit n.
        ratio = self.omega / _SQRT2 if space == POSITION else _SQRT2 / self.omega
        return 8.0 * ratio


class _RadialOscillator(_Family):
    """States (n_r, l) of the radial family A s^kappa exp(-b s^2/2) L_{n_r}^{kappa+1/2}(b s^2).

    A subclass supplies _kappa_b(state), the exponent kappa and the width b of
    the state's space; the length scale is sqrt(b). f and the unit length do
    not depend on the space, so both spaces integrate the same unit-scale
    integral, named by _oscillator.
    """

    number_fields = ("n_r", "l")

    def reference(self, state: QuantumState) -> QuantumState:
        return replace(state, n_r=0)

    def scale(self, state: QuantumState) -> float:
        return math.sqrt(self._kappa_b(state)[1])

    def _oscillator(self, state: QuantumState) -> tuple[int, float, float, float, int]:
        kappa, _ = self._kappa_b(state)
        return state.n_r, kappa, kappa + 0.5, kappa, 0


@record
class Oscillator3D(_RadialOscillator):
    """Isotropic three-dimensional harmonic oscillator; omega in atomic units."""

    omega: float

    name = "qho3d"

    def __post_init__(self) -> None:
        _require_positive("omega", self.omega)

    def _kappa_b(self, state: QuantumState) -> tuple[float, float]:
        b = self.omega if state.space == POSITION else 1.0 / self.omega
        return float(state.l), b

    def closed_form(self, space: str, numbers: tuple[int, ...]) -> float:
        n_r = numbers[0]
        if not n_r:
            return 0.0  # also where the factor overflows and inf * 0 is nan
        factor = 16.0 * self.omega if space == POSITION else 16.0 / self.omega
        return factor * n_r

    def spacing(self, space: str) -> float:
        # Per unit principal quantum number 2*n_r + l: half the per-n_r step.
        return 8.0 * self.omega if space == POSITION else 8.0 / self.omega


@record
class Hydrogenic(_Family):
    """One-electron atom with nuclear charge Z.

    Z is real, not integer: nothing in the formulas needs integrality, and
    screened-charge experiments are legitimate inputs.
    """

    Z: float

    name = "hydrogen"
    number_fields = ("n", "l")
    _minimum = {"n": 1}

    def __post_init__(self) -> None:
        _require_positive("Z", self.Z)

    def check(self, state: QuantumState) -> None:
        super().check(state)
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

    def radial_nodes(self, numbers: tuple[int, ...]) -> int:
        n, l = numbers
        return n - l - 1

    def reference(self, state: QuantumState) -> QuantumState:
        # The circular state n = l + 1.
        return replace(state, n=state.l + 1)

    def scale(self, state: QuantumState) -> float:
        return self.Z if state.space == POSITION else 1.0 / self.Z

    # For position states; f is at unit charge, so Z is not part of a layout's name.
    def _oscillator(self, state: QuantumState) -> tuple[int, float, float, float, int]:
        n, l = state.n, state.l
        return n - l - 1, 2.0 * l, 2.0 * l + 1.0, l, n

    def unit(self, state: QuantumState) -> Evaluator:
        if state.space == POSITION:
            return super().unit(state)
        n, l = state.n, state.l
        ln_norm, overflow = _momentum_terms(n, l, lambda: self._name(state))
        return hydrogen_momentum(ln_norm, gegenbauer_kernel(n - l - 1, l + 1.0), overflow, n=n, l=l)

    def fisher_panel(self, state: QuantumState) -> Panel:
        if state.space == POSITION:
            return super().fisher_panel(state)
        n, l = state.n, state.l
        ln_norm, overflow = _momentum_terms(n, l, lambda: self._name(state))
        return momentum_panel(ln_norm, gegenbauer_column(n - l - 1, l + 1.0), overflow, n=n, l=l)

    def layout(self, state: QuantumState) -> tuple[Hashable, float, tuple[float, ...]]:
        if state.space == POSITION:
            return super().layout(state)
        return (state.n, state.l), 1.0 / state.n, ()

    def closed_form(self, space: str, numbers: tuple[int, ...]) -> float:
        n, l = numbers
        Z = self.Z
        if space == POSITION:
            # Int true division is correctly rounded, so this equals
            # float(hydrogen_position_rational(n, l)) * Z * Z bit for bit.
            return 8 * (n - l - 1) / n ** 3 * Z * Z
        if n == l + 1:
            return 0.0
        return _over_z_squared(float(16 * n * n * (n * n - (l + 1) ** 2)), Z)

    def spacing(self, space: str) -> float:
        raise UnsupportedSystemError("spacing is not constant for hydrogen-like systems")


@record
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

    def closed_form(self, space: str, numbers: tuple[int, ...]) -> float:
        lam = self._lam
        return 32.0 * lam * numbers[0] if space == POSITION else 8.0 * numbers[0] / lam

    def spacing(self, space: str) -> float:
        lam = self._lam
        return 32.0 * lam if space == POSITION else 8.0 / lam


# Every system family, in the order the CLI lists and sweeps them.
FAMILIES = (Oscillator1D, Oscillator3D, Hydrogenic, Pseudoharmonic)

SystemParams = Oscillator1D | Oscillator3D | Hydrogenic | Pseudoharmonic


@record
class PhpDerived:
    """Derived pseudoharmonic parameters.

    gamma_l is the effective angular exponent (>= l always), lam the Gaussian
    width parameter in inverse squared length.
    """

    gamma_l: float
    lam: float


@record
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
    def numbers(self) -> tuple[int, ...]:
        """The quantum numbers, in the system's number_fields order."""
        return tuple(getattr(self, field) for field in self.system.number_fields)

    @property
    def radial_nodes(self) -> int:
        """Interior nodes of the radial (or full-line) wavefunction."""
        return self.system.radial_nodes(self.numbers)


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
