"""Closed forms, the quadrature oracle, spacings, products, maxima.

The hydrogen momentum-space closed form carried by the bundled tables is
known to disagree with the defining integral for radially excited states;
those cases are marked xfail(strict) here, and the integral-derived form
is tested as the convergent route. Everything else agrees to 1e-8 or
better.
"""

import math
import re
import sys
import threading
import time
from collections import Counter, OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relfisher._evaluators
import relfisher.relative_fisher
import relfisher.specfun
import relfisher.systems
from relfisher._evaluators import hydrogen_momentum, momentum_panel, radial_oscillator
from relfisher._record import replace
from relfisher.data_units import MoleculeRecord, find_molecule, registry, to_atomic_units
from relfisher.quadrature import (
    _GK31,
    IntegrandError,
    QuadratureResult,
    QuadratureSpec,
    _initial_edges,
    integrate,
    point_panel,
)
from relfisher.relative_fisher import (
    UnsupportedSystemError,
    closed_form_ir,
    hydrogen_asymptotics,
    hydrogen_ir_max,
    hydrogen_momentum_integral_closed_form,
    hydrogen_position_rational,
    ir_product,
    ir_spacing,
    numeric_ir,
)
from relfisher.specfun import gegenbauer_kernel, laguerre_kernel
from relfisher.systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    RefusedStateError,
    php_derived,
)
from relfisher.wavefunctions import compile_state, default_quadrature_spec, normalization_defect

H2_PARAMS = to_atomic_units(find_molecule("H2"))
CO_PARAMS = to_atomic_units(find_molecule("CO"))


def _hydrogen(n, l, space, Z=1.0):
    return QuantumState(system=Hydrogenic(Z=Z), space=space, n=n, l=l)


# orbital table: 8(n-l-1)/n^3 as exact rationals
HYDROGEN_POSITION_TABLE = {
    (2, 0): Fraction(1, 1),
    (3, 0): Fraction(16, 27),
    (4, 0): Fraction(3, 8),
    (5, 0): Fraction(32, 125),
    (3, 1): Fraction(8, 27),
    (4, 1): Fraction(1, 4),
    (5, 1): Fraction(24, 125),
    (6, 1): Fraction(4, 27),
    (4, 2): Fraction(1, 8),
    (5, 2): Fraction(16, 125),
    (6, 2): Fraction(1, 9),
    (7, 2): Fraction(32, 343),
    (5, 3): Fraction(8, 125),
    (6, 3): Fraction(2, 27),
    (7, 3): Fraction(24, 343),
    (8, 3): Fraction(1, 16),
}


def test_hydrogen_position_rationals():
    for (n, l), expected in HYDROGEN_POSITION_TABLE.items():
        assert hydrogen_position_rational(n, l) == expected
        assert closed_form_ir(_hydrogen(n, l, POSITION)) == float(expected)


def test_hydrogen_momentum_printed_form():
    # 16 n^2 (n^2 - (l+1)^2) at unit charge
    assert closed_form_ir(_hydrogen(2, 0, MOMENTUM)) == 192.0
    assert closed_form_ir(_hydrogen(3, 1, MOMENTUM)) == 16.0 * 9.0 * 5.0
    assert closed_form_ir(_hydrogen(3, 2, MOMENTUM)) == 0.0


def test_hydrogen_position_closed_form_is_the_rational_bit_for_bit():
    exact = {(n, l): float(hydrogen_position_rational(n, l)) for n in range(1, 401) for l in range(n)}
    mismatches = []
    for Z in (1.0, 2.0, 3.0, 0.7):
        for state in Hydrogenic(Z=Z).grid([POSITION], n=range(1, 401), l=range(400)):
            if closed_form_ir(state) != exact[state.n, state.l] * Z * Z:
                mismatches.append((state.n, state.l, Z))
    assert mismatches == []


def test_hydrogen_z_scaling_is_exact():
    for space, factor in ((POSITION, 9.0), (MOMENTUM, 1.0 / 9.0)):
        base = closed_form_ir(_hydrogen(4, 1, space, Z=1.0))
        scaled = closed_form_ir(_hydrogen(4, 1, space, Z=3.0))
        assert scaled == pytest.approx(factor * base, rel=1e-15)


def test_1d_closed_forms():
    omega = math.sqrt(2.0)
    for n in range(1, 11):
        for space in (POSITION, MOMENTUM):
            state = QuantumState(system=Oscillator1D(omega=omega), space=space, n=n)
            assert closed_form_ir(state) == 8.0 * n
    state = QuantumState(system=Oscillator1D(omega=0.7), space=POSITION, n=4)
    assert closed_form_ir(state) == pytest.approx(4.0 * math.sqrt(2.0) * 0.7 * 4, rel=1e-14)
    state = QuantumState(system=Oscillator1D(omega=0.7), space=MOMENTUM, n=4)
    assert closed_form_ir(state) == pytest.approx(8.0 * math.sqrt(2.0) * 4 / 0.7, rel=1e-14)


def test_3d_closed_forms():
    osc = Oscillator3D(omega=1.7)
    assert closed_form_ir(
        QuantumState(system=osc, space=POSITION, n_r=2, l=1)
    ) == pytest.approx(16.0 * 1.7 * 2, rel=1e-15)
    assert closed_form_ir(
        QuantumState(system=osc, space=MOMENTUM, n_r=2, l=1)
    ) == pytest.approx(32.0 / 1.7, rel=1e-15)
    # l does not enter
    for l in range(4):
        state = QuantumState(system=osc, space=POSITION, n_r=3, l=l)
        assert closed_form_ir(state) == closed_form_ir(
            QuantumState(system=osc, space=POSITION, n_r=3, l=0)
        )


def test_php_closed_forms_match_bundled_table():
    lam = php_derived(H2_PARAMS, 0).lam
    position = QuantumState(system=H2_PARAMS, space=POSITION, n_r=1, l=0)
    momentum = QuantumState(system=H2_PARAMS, space=MOMENTUM, n_r=1, l=0)
    assert closed_form_ir(position) == pytest.approx(32.0 * lam, rel=1e-15)
    # bundled table prints truncated 6-decimal values, hence 5e-6 absolute
    assert closed_form_ir(position) == pytest.approx(202.676044, abs=5e-6)
    assert closed_form_ir(momentum) == pytest.approx(1.263099, abs=5e-6)

    co = to_atomic_units(find_molecule("CO"))
    state = QuantumState(system=co, space=MOMENTUM, n_r=100, l=0)
    assert closed_form_ir(state) == pytest.approx(34.448621, abs=5e-6)


def test_reference_states_have_zero_closed_form():
    assert closed_form_ir(_hydrogen(3, 2, POSITION)) == 0.0
    assert closed_form_ir(_hydrogen(3, 2, MOMENTUM)) == 0.0
    assert closed_form_ir(QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=0)) == 0.0
    assert (
        closed_form_ir(QuantumState(system=Oscillator3D(omega=1.0), space=MOMENTUM, n_r=0, l=2))
        == 0.0
    )
    assert closed_form_ir(QuantumState(system=H2_PARAMS, space=POSITION, n_r=0, l=0)) == 0.0
    # Also where the spacing overflows and spacing * 0 would be nan.
    for omega, space in ((1e308, POSITION), (1e-308, MOMENTUM)):
        assert closed_form_ir(QuantumState(system=Oscillator1D(omega=omega), space=space, n=0)) == 0.0
        assert (
            closed_form_ir(QuantumState(system=Oscillator3D(omega=omega), space=space, n_r=0, l=1))
            == 0.0
        )
    assert closed_form_ir(_hydrogen(2, 1, MOMENTUM, Z=1e-170)) == 0.0


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 40), omega=st.floats(0.05, 20.0))
def test_1d_product_identity(n, omega):
    state = QuantumState(system=Oscillator1D(omega=omega), space=POSITION, n=n)
    assert ir_product(state) == pytest.approx(64.0 * n * n, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_r=st.integers(0, 20), l=st.integers(0, 6), omega=st.floats(0.05, 20.0))
def test_3d_product_identity(n_r, l, omega):
    state = QuantumState(system=Oscillator3D(omega=omega), space=POSITION, n_r=n_r, l=l)
    assert ir_product(state) == pytest.approx(256.0 * n_r * n_r, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    l_pick=st.integers(0, 1000),
    Z=st.floats(0.25, 8.0),
)
def test_hydrogen_product_identity_is_z_free(n, l_pick, Z):
    l = l_pick % n
    state = _hydrogen(n, l, POSITION, Z=Z)
    expected = float(Fraction(128 * (n - l - 1) * (n * n - (l + 1) ** 2), n))
    assert ir_product(state) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_php_product_identity():
    for record in registry():
        params = to_atomic_units(record)
        for n_r in range(1, 6):
            state = QuantumState(system=params, space=POSITION, n_r=n_r, l=0)
            assert ir_product(state) == pytest.approx(256.0 * n_r * n_r, rel=1e-12)


def test_oscillator_product_is_frequency_invariant():
    n = 3
    values = [
        ir_product(QuantumState(system=Oscillator1D(omega=w), space=POSITION, n=n))
        for w in (0.5, 1.0, math.sqrt(2.0), 3.0)
    ]
    for value in values[1:]:
        assert value == pytest.approx(values[0], rel=1e-13)


def test_spacing_constants():
    for omega in (0.5, 1.0, math.sqrt(2.0), 3.0):
        osc1 = Oscillator1D(omega=omega)
        assert ir_spacing(osc1, POSITION) == pytest.approx(4.0 * math.sqrt(2.0) * omega, rel=1e-15)
        assert ir_spacing(osc1, MOMENTUM) == pytest.approx(8.0 * math.sqrt(2.0) / omega, rel=1e-15)
        diffs = [
            closed_form_ir(QuantumState(system=osc1, space=POSITION, n=n + 1))
            - closed_form_ir(QuantumState(system=osc1, space=POSITION, n=n))
            for n in range(8)
        ]
        for diff in diffs:
            assert diff == pytest.approx(ir_spacing(osc1, POSITION), rel=1e-12)

        osc3 = Oscillator3D(omega=omega)
        assert ir_spacing(osc3, POSITION) == pytest.approx(8.0 * omega, rel=1e-15)
        assert ir_spacing(osc3, MOMENTUM) == pytest.approx(8.0 / omega, rel=1e-15)
        # radial steps advance the principal number by two
        step = closed_form_ir(
            QuantumState(system=osc3, space=POSITION, n_r=4, l=2)
        ) - closed_form_ir(QuantumState(system=osc3, space=POSITION, n_r=3, l=2))
        assert step == pytest.approx(2.0 * ir_spacing(osc3, POSITION), rel=1e-12)

    lam = php_derived(H2_PARAMS, 0).lam
    assert ir_spacing(H2_PARAMS, POSITION) == pytest.approx(32.0 * lam, rel=1e-14)
    assert ir_spacing(H2_PARAMS, MOMENTUM) == pytest.approx(8.0 / lam, rel=1e-14)


def test_spacing_rejects_hydrogen():
    with pytest.raises(UnsupportedSystemError):
        ir_spacing(Hydrogenic(Z=1.0), POSITION)
    with pytest.raises(ValueError):
        ir_spacing(Oscillator1D(omega=1.0), "angle")


def test_hydrogen_first_differences_are_not_constant():
    values = [closed_form_ir(_hydrogen(n, 0, POSITION)) for n in range(2, 8)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert max(diffs) - min(diffs) > 0.1 * max(abs(d) for d in diffs)


def test_linearity_second_differences_vanish():
    osc1 = Oscillator1D(omega=0.83)
    for space in (POSITION, MOMENTUM):
        c = [
            closed_form_ir(QuantumState(system=osc1, space=space, n=n)) for n in range(11)
        ]
        for n in range(9):
            d2 = c[n + 2] - 2.0 * c[n + 1] + c[n]
            assert abs(d2) <= 1e-12 * max(1.0, abs(c[n + 2]))
    for params in (Oscillator3D(omega=2.4), H2_PARAMS):
        c = [
            closed_form_ir(QuantumState(system=params, space=POSITION, n_r=k, l=1))
            for k in range(11)
        ]
        for k in range(9):
            d2 = c[k + 2] - 2.0 * c[k + 1] + c[k]
            assert abs(d2) <= 1e-12 * max(1.0, abs(c[k + 2]))


def test_hydrogen_monotonicity_in_l():
    n = 6
    for space in (POSITION, MOMENTUM):
        values = [closed_form_ir(_hydrogen(n, l, space)) for l in range(n - 1)]
        for left, right in zip(values, values[1:]):
            assert left > right


def test_hydrogen_momentum_rises_with_n_and_falls_with_l():
    # The abstract has the IR in both conjugate spaces first rise with n at
    # fixed l and then fall; that holds in position space only (the maxima
    # below). Both momentum forms, the tabulated one and the defining
    # integral, rise strictly with n and fall strictly with l
    # (README, Known discrepancy 6).
    def forms(n, l):
        return closed_form_ir(_hydrogen(n, l, MOMENTUM)), hydrogen_momentum_integral_closed_form(n, l, 1.0)

    for l in range(11):
        values = [forms(n, l) for n in range(l + 1, l + 101)]
        for form in (0, 1):
            assert all(left[form] < right[form] for left, right in zip(values, values[1:])), (l, form)
    for n in range(1, 111):
        values = [forms(n, l) for l in range(n)]
        for form in (0, 1):
            assert all(left[form] > right[form] for left, right in zip(values, values[1:])), (n, form)


EVEN_L_MAXIMA = {0: (2, Fraction(1, 1)), 2: (5, Fraction(16, 125)), 4: (8, Fraction(3, 64)),
                 6: (11, Fraction(32, 1331))}
ODD_L_MAXIMA = {1: (3, Fraction(8, 27)), 3: (6, Fraction(2, 27)), 5: (9, Fraction(8, 243)),
                7: (12, Fraction(1, 54))}


def test_hydrogen_maxima_even_l():
    for l, (n_star, value) in EVEN_L_MAXIMA.items():
        assert value == Fraction(32 * (l + 2), (3 * l + 4) ** 3)
        assert hydrogen_ir_max(l) == (n_star, float(value))


def test_hydrogen_maxima_odd_l():
    for l, (n_star, value) in ODD_L_MAXIMA.items():
        assert value == Fraction(32, 27 * (l + 1) ** 2)
        assert hydrogen_ir_max(l) == (n_star, float(value))


def test_hydrogen_maxima_validation():
    with pytest.raises(ValueError):
        hydrogen_ir_max(-1)
    with pytest.raises(ValueError):
        hydrogen_ir_max(5, n_max=3)
    for l, n_max in ((2, 10.0), (2, True)):
        with pytest.raises(ValueError):
            hydrogen_ir_max(l, n_max)


def test_asymptotics():
    approx_r, approx_p = hydrogen_asymptotics(100, 0, 1.0)
    assert approx_r == pytest.approx(8.0e-4, rel=1e-15)
    assert approx_p == pytest.approx(16.0 * 100.0**4, rel=1e-15)
    exact_r = closed_form_ir(_hydrogen(100, 0, POSITION))
    exact_p = closed_form_ir(_hydrogen(100, 0, MOMENTUM))
    assert abs(approx_r - exact_r) / exact_r <= 0.0102
    assert abs(approx_p - exact_p) / exact_p <= 2e-4
    # -16 E_n at Z=2, n=2: -16 * (-0.5) = 8
    assert hydrogen_asymptotics(2, 0, 2.0)[0] == pytest.approx(8.0, rel=1e-15)


EXTREME_Z = [1e-200, 1e-160, 1e-100, 1e-80, 0.7, 1.0, 2.0, 1e150, 1e160, 1e200]


def _agrees_in_double_range(value, exact):
    # Within 1e-14 where the exact value lies in [1e-300, 1e300], inf above
    # double range, and never nan.
    assert not math.isnan(value)
    if exact > Fraction(sys.float_info.max):
        assert value == math.inf
    elif exact == 0 or Fraction(1, 10**300) <= exact <= 10**300:
        assert abs(Fraction(value) - exact) <= Fraction(1, 10**14) * exact


@pytest.mark.parametrize("Z", EXTREME_Z)
@pytest.mark.parametrize("n", [1, 3, 100])
def test_hydrogen_helpers_at_extreme_charge(n, Z):
    z = Fraction(Z)
    position, momentum = hydrogen_asymptotics(n, 0, Z)
    _agrees_in_double_range(position, 8 * z * z / n**2)
    _agrees_in_double_range(momentum, 16 * Fraction(n) ** 4 / (z * z))
    # The integral form is exact over Z^2; its unit-charge value is exact to
    # one rounding.
    unit = Fraction(hydrogen_momentum_integral_closed_form(n, 0, 1.0))
    _agrees_in_double_range(hydrogen_momentum_integral_closed_form(n, 0, Z), unit / (z * z))
    assert hydrogen_momentum_integral_closed_form(n, n - 1, Z) == 0.0


def test_hydrogen_momentum_forms_keep_subnormal_values():
    # At Z = 1e155 the square of Z overflows, but both momentum values are
    # representable: 192/Z^2 and 72/Z^2 are subnormals.
    state = QuantumState(system=Hydrogenic(Z=1e155), space=MOMENTUM, n=2, l=0)
    assert closed_form_ir(state) == pytest.approx(1.92e-308, rel=1e-14, abs=0.0)
    assert hydrogen_momentum_integral_closed_form(2, 0, 1e155) == pytest.approx(
        7.2e-309, rel=1e-14, abs=0.0
    )


ORACLE_SPOTS = [
    QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=3, l=0),
    QuantumState(system=Hydrogenic(Z=5.0), space=POSITION, n=4, l=2),
    QuantumState(system=Oscillator3D(omega=1.7), space=MOMENTUM, n_r=2, l=1),
    QuantumState(system=Oscillator1D(omega=0.5), space=POSITION, n=2),
    QuantumState(system=Oscillator1D(omega=3.0), space=MOMENTUM, n=7),
    QuantumState(system=H2_PARAMS, space=POSITION, n_r=1, l=0),
    QuantumState(system=H2_PARAMS, space=MOMENTUM, n_r=3, l=0),
]


@pytest.mark.parametrize("state", ORACLE_SPOTS, ids=lambda s: str(s)[:48])
def test_numeric_oracle_agrees_with_closed_form(state):
    result = numeric_ir(state)
    assert result.quadrature.converged
    assert result.rel_diff <= 1e-8
    assert result.closed_form == closed_form_ir(state)


def test_oracle_cost_of_a_degree_sweep():
    # The 31-point rule needs 43,152 evaluations for this sweep from the
    # classical window's panels alone, 53,320 with the equal edges outside
    # the window kept, and 79,081 from 7 equal panels; the 15-point rule
    # before it needed 142,230.
    co = to_atomic_units(find_molecule("CO"))
    total = 0
    for n_r in range(61):
        result = numeric_ir(QuantumState(system=co, space=POSITION, n_r=n_r, l=0))
        assert result.quadrature.converged
        total += result.quadrature.evaluations
    assert total < 43_200


def test_numeric_oracle_hydrogen_3s_value():
    result = numeric_ir(QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=3, l=0))
    assert result.numeric == pytest.approx(16.0 / 27.0, rel=1e-9)


def test_numeric_ir_of_reference_is_zero():
    result = numeric_ir(QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=3, l=2))
    assert result.closed_form == 0.0
    assert abs(result.numeric) <= 1e-12
    assert result.rel_diff == result.abs_diff / 1e-12


def test_rel_diff_divides_by_a_closed_form_below_the_reference_floor():
    # At omega = 1e160 the closed form is 2.26e-159; dividing by the 1e-12
    # floor reported rel_diff 8.5e-148 however far the quadrature was off.
    result = numeric_ir(QuantumState(system=Oscillator1D(omega=1e160), space=MOMENTUM, n=2))
    assert 0.0 < result.closed_form < 1e-12
    assert result.rel_diff == result.abs_diff / result.closed_form


@pytest.mark.parametrize(
    "omega,space", [(1e160, MOMENTUM), (1e-160, POSITION), (1e160, POSITION), (1e-160, MOMENTUM)]
)
def test_1d_oscillator_reference_slope_holds_at_extreme_omega(omega, space):
    # The slope was sqrt(omega^2/2): at omega = 1e160 the square overflowed
    # (rel_diff 0.375 in momentum space, a non-finite integrand in position
    # space), and at 1e-160 it underflowed (rel_diff 5.6e-6 in position space).
    result = numeric_ir(QuantumState(system=Oscillator1D(omega=omega), space=space, n=2))
    assert result.quadrature.converged
    assert result.rel_diff <= 1e-13


def test_hydrogen_momentum_integral_form_values():
    # exact rationals: 72, 612, 495/2, 2912/5
    assert hydrogen_momentum_integral_closed_form(2, 0, 1.0) == 72.0
    assert hydrogen_momentum_integral_closed_form(3, 0, 1.0) == 612.0
    assert hydrogen_momentum_integral_closed_form(3, 1, 1.0) == 247.5
    assert hydrogen_momentum_integral_closed_form(4, 2, 1.0) == 582.4
    assert hydrogen_momentum_integral_closed_form(3, 2, 1.0) == 0.0
    # same 1/Z^2 scaling as the defining integral
    assert hydrogen_momentum_integral_closed_form(2, 0, 2.0) == 18.0
    with pytest.raises(ValueError, match="l must satisfy l <= n-1, got n=2, l=2"):
        hydrogen_momentum_integral_closed_form(2, 2, 1.0)


# An exact witness for the defining hydrogen momentum integral, in rational
# arithmetic with no quadrature. With t = n p (Z = 1) the state is
# t^l / (1+t^2)^(l+2) C(q) with C = C_{n-l-1}^(l+1) and q = (t^2-1)/(t^2+1),
# and its reference is the same shape without C, so the integral is
# 4 n^2 Int w C'(q)^2 (dq/dt)^2 dt / Int w C(q)^2 dt, w = t^(2l+2) / (1+t^2)^(2l+4).
# In x = (1+q)/2 = t^2/(1+t^2) both become sums of Beta moments:
#   Int w C^2 dt              = 1/2 Int x^(l+1/2) (1-x)^(l+3/2) C^2 dx,
#   Int w C'^2 (dq/dt)^2 dt   = 8 Int x^(l+3/2) (1-x)^(l+9/2) C'(q)^2 dx,
# with C'(q) = (1/2) d/dx C(2x-1). B(a+1/2, b+1/2) = pi G(a) G(b) / (a+b)!
# for integers a, b, where G(m) = Gamma(m+1/2) / sqrt(pi) = (2m)! / (4^m m!),
# so the pi cancels in the ratio and the value is rational.


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _gegenbauer_in_x(m, lam):
    """The integer coefficients, lowest power first, of C_m^(lam)(2x-1), for integer lam >= 1:
    C_m^(lam)(q) = sum_k (-1)^k (m-k+lam-1)! / ((lam-1)! k! (m-2k)!) (2q)^(m-2k)."""
    powers = [[1]]
    for _ in range(m):
        powers.append(_poly_mul(powers[-1], [-2, 4]))  # 2q = 4x - 2
    result = [0] * (m + 1)
    for k in range(m // 2 + 1):
        c = (-1) ** k * math.factorial(m - k + lam - 1) // (
            math.factorial(lam - 1) * math.factorial(k) * math.factorial(m - 2 * k)
        )
        for i, p in enumerate(powers[m - 2 * k]):
            result[i] += c * p
    return result


def _beta_moments(poly, a, b):
    """sum_k poly[k] B(a + k + 1/2, b + 1/2) / pi, for integers a, b >= 0."""

    def g(m):
        return Fraction(math.factorial(2 * m), 4 ** m * math.factorial(m))

    total = Fraction(0)
    moment = g(a) * g(b) / math.factorial(a + b)
    for k, c in enumerate(poly):
        total += c * moment
        # G(a+k+1) / G(a+k) = a+k+1/2, and (a+k+b+1)! / (a+k+b)! = a+k+b+1.
        moment *= Fraction(2 * (a + k) + 1, 2 * (a + k + b + 1))
    return total


def _hydrogen_momentum_witness(n, l):
    """The defining momentum-space integral of hydrogen (n, l) at Z = 1, exactly."""
    c = _gegenbauer_in_x(n - l - 1, l + 1)
    dc = [i * coefficient for i, coefficient in enumerate(c)][1:] or [0]
    norm = Fraction(1, 2) * _beta_moments(_poly_mul(c, c), l + 1, l + 2)
    fisher = 8 * Fraction(1, 4) * _beta_moments(_poly_mul(dc, dc), l + 2, l + 5)
    return 4 * n * n * fisher / norm


def test_hydrogen_momentum_exact_witness_values():
    assert _hydrogen_momentum_witness(2, 0) == 72
    assert _hydrogen_momentum_witness(3, 0) == 612
    assert _hydrogen_momentum_witness(3, 1) == Fraction(495, 2)
    assert _hydrogen_momentum_witness(4, 2) == Fraction(2912, 5)
    assert _hydrogen_momentum_witness(4, 3) == 0


def test_hydrogen_momentum_exact_witness_is_the_integral_form_not_the_tabulated_one():
    # Known discrepancy 2 with no tolerance on either side: the integral form
    # equals the exact integral, and the tabulated form differs from it
    # wherever the state has nodes.
    for n in range(1, 31):
        for l in range(n):
            exact = _hydrogen_momentum_witness(n, l)
            assert float(exact) == hydrogen_momentum_integral_closed_form(n, l, 1.0), (n, l)
            tabulated = closed_form_ir(_hydrogen(n, l, MOMENTUM))
            assert (Fraction(tabulated) != exact) == (n - l - 1 > 0), (n, l)


@pytest.mark.parametrize("Z", [1.0, 2.0])
@pytest.mark.parametrize("n,l", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_hydrogen_momentum_integral_form_matches_quadrature(n, l, Z):
    state = _hydrogen(n, l, MOMENTUM, Z=Z)
    result = numeric_ir(state)
    assert result.quadrature.converged
    expected = hydrogen_momentum_integral_closed_form(n, l, Z)
    assert result.numeric == pytest.approx(expected, rel=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="bundled momentum-space closed form disagrees with the defining "
    "integral for hydrogen states with radial excitation",
)
@pytest.mark.parametrize("n,l", [(2, 0), (3, 0), (3, 1), (4, 2)])
def test_hydrogen_momentum_printed_form_matches_integral(n, l):
    result = numeric_ir(_hydrogen(n, l, MOMENTUM))
    assert result.rel_diff <= 1e-8


def test_hydrogen_momentum_circular_states_are_consistent():
    # no radial excitation: printed form, integral form, and quadrature all 0
    state = _hydrogen(4, 3, MOMENTUM)
    result = numeric_ir(state)
    assert result.closed_form == 0.0
    assert hydrogen_momentum_integral_closed_form(4, 3, 1.0) == 0.0
    assert abs(result.numeric) <= 1e-12


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def test_numeric_ir_keeps_state_work_out_of_the_integrand(monkeypatch):
    """php_derived and ln_gamma run a fixed number of times per cell, however
    many points the quadrature evaluates."""
    counts = {}
    _count_calls(monkeypatch, relfisher.systems, "php_derived", counts)
    _count_calls(monkeypatch, relfisher.systems, "ln_gamma", counts)
    state = QuantumState(system=H2_PARAMS, space=POSITION, n_r=20, l=0)
    seen = []
    for rel_tol in (1e-6, 1e-10):
        counts.clear()
        result = numeric_ir(state, rel_tol)
        assert result.quadrature.converged
        seen.append((result.quadrature.evaluations, dict(counts)))
    (few, counts_few), (many, counts_many) = seen
    assert few < many
    assert counts_few == counts_many
    assert 1 <= counts_many["php_derived"] <= 4
    assert 1 <= counts_many["ln_gamma"] <= 2
    assert many >= 100 * (counts_many["php_derived"] + counts_many["ln_gamma"])


def test_a_tiny_integral_is_not_reported_converged_when_it_is_off():
    # Integrated at omega = 1e160, the integral of 3.4e-158 fell under the
    # quadrature's absolute tolerance (1e-14): it stopped after 217
    # evaluations and reported convergence at rel_diff 2.2e-8.
    result = numeric_ir(QuantumState(system=Oscillator1D(omega=1e160), space=MOMENTUM, n=30))
    assert not result.quadrature.converged or result.rel_diff <= 1e-8


def test_a_reference_cell_at_a_tiny_charge_converges_to_zero():
    # The radial integrand 4 s^2 (...)^2 overflowed at s = 7.0e153 and
    # raised IntegrandError, although psi is exactly 0 there.
    result = numeric_ir(QuantumState(system=Hydrogenic(Z=1e-150), space=POSITION, n=1, l=0))
    assert result.quadrature.converged
    assert result.numeric == 0.0


def test_a_reference_cell_at_a_huge_frequency_converges_at_once():
    # Integrated at omega = 1e160, this cell ran to the panel cap: it stopped
    # unconverged after 619,783 evaluations.
    state = QuantumState(system=Oscillator1D(omega=1e160), space=POSITION, n=0)
    initial = len(_initial_edges(default_quadrature_spec(state))) - 1
    result = numeric_ir(state)
    assert result.quadrature.converged
    assert result.quadrature.panels == initial
    assert result.quadrature.evaluations == 31 * initial
    assert result.numeric == 0.0


@pytest.mark.parametrize("scale", [1e-3, 0.37, 1e3])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: QuantumState(Oscillator1D(omega=x), POSITION, n=3),
        lambda x: QuantumState(Oscillator3D(omega=x), POSITION, n_r=2, l=1),
        lambda x: QuantumState(Hydrogenic(Z=x), POSITION, n=4, l=1),
        lambda x: QuantumState(Pseudoharmonic(mu=1e3 * x, De=0.1, re=2.0), POSITION, n_r=2, l=1),
    ],
    ids=["qho1d", "qho3d", "hydrogen", "php"],
)
def test_unit_scale_integral_equals_the_direct_one(make, space, scale):
    # The defining integral of the compiled state, against the reference
    # log-derivative stretched by the same length scale c, at the state's
    # own nodes: numeric_ir's unit-scale integral times c^2 must agree.
    state = replace(make(scale), space=space)
    wave = compile_state(state)
    c = state.system.scale(state)
    unit_log_derivative = _reference_log_derivative(state)
    weight = (lambda s: 4.0 * s * s) if state.system.radial else (lambda s: 8.0)

    def integrand(s):
        value, derivative = wave(s)
        difference = derivative - value * c * unit_log_derivative(c * s)
        return weight(s) * difference * difference

    spec = default_quadrature_spec(state, rel_tol=1e-12)
    direct = integrate(point_panel(integrand), replace(spec, scale=spec.scale / c, breaks=[b / c for b in spec.breaks]))
    result = numeric_ir(state, spec.rel_tol)
    assert direct.converged and result.quadrature.converged
    assert result.numeric == pytest.approx(direct.value, rel=1e-12, abs=0.0)


def _reference_log_derivative(state):
    """L, the log-derivative of the state's node-less reference at unit
    scale, in f's argument: for the hydrogen momentum decay, 2(l+2) t times
    1/(1+t^2), as the evaluator's 2(l+2) t v."""
    system = state.system
    if isinstance(system, Oscillator1D):
        return lambda y: -y
    if isinstance(system, Hydrogenic):
        n, l = state.n, state.l
        if state.space == POSITION:
            # The circular reference r^l e^{-r/n} at the target's length scale.
            return lambda r: l / r - 1.0 / n

        def momentum(p):
            t = n * p
            return n * (l / t - (2.0 * (l + 2.0) * t) * (1.0 / (1.0 + t * t)))

        return momentum
    kappa, _ = system._kappa_b(state)
    return lambda s: kappa / s - s


def _point_integrand(state):
    """The Fisher integrand of state's unit-scale f as a point function of
    system.unit(state) and _reference_log_derivative(state): what the panel
    loops of numeric_ir must match bit for bit. Hydrogen is integrated in
    u = s^2 and y = n p instead (_hydrogen_position_integrand and
    _hydrogen_momentum_integrand)."""
    if isinstance(state.system, Hydrogenic):
        twin = _hydrogen_position_integrand if state.space == POSITION else _hydrogen_momentum_integrand
        return twin(state.n, state.l)
    wave, log_derivative = state.system.unit(state), _reference_log_derivative(state)
    weight = (lambda s: 4.0 * s * s) if state.system.radial else (lambda s: 4.0)

    def integrand(s):
        value, derivative = wave(s)
        difference = derivative - value * log_derivative(s)
        return weight(s) * difference * difference

    return integrand


def _hydrogen_position_integrand(n, l):
    """The hydrogen position integrand at unit charge in u = s^2 = 2r/n,
    2u (F' - F (2l/s - s))^2, F the D = 4 radial oscillator (kappa = 2l)
    times 1/sqrt(2 n^3): from radial_oscillator, and with L coded here."""
    n_r, kappa = n - l - 1, 2.0 * l
    ln_norm = relfisher.systems._oscillator_terms(n_r, kappa, kappa + 1.0, lambda: f"hydrogen n={n},l={l}")
    wave = radial_oscillator(ln_norm, laguerre_kernel(n_r, kappa + 1.0), kappa, -0.5 * math.log(2 * n ** 3))

    def integrand(u):
        s = math.sqrt(u)
        value, derivative = wave(s)
        difference = derivative - value * (kappa / s - s)
        return 2.0 * u * difference * difference

    return integrand


def _hydrogen_momentum_integrand(n, l):
    """The hydrogen momentum integrand at unit charge in y = n p,
    (4/n) y^2 (F' - F L_y)^2, F(y) = f(y/n) from hydrogen_momentum at n = 1,
    and L_y = l/y - 2(l+2) y/(1+y^2) coded here."""
    ln_norm, overflow = relfisher.systems._momentum_terms(n, l, lambda: f"hydrogen n={n},l={l}")
    wave = hydrogen_momentum(ln_norm, gegenbauer_kernel(n - l - 1, l + 1.0), overflow, n=1, l=l)

    def integrand(y):
        value, derivative = wave(y)
        difference = derivative - value * (l / y - (2.0 * (l + 2.0) * y) * (1.0 / (1.0 + y * y)))
        return (4 / n) * y * y * difference * difference

    return integrand


def _oracle_spec(state, rel_tol=1e-10):
    """The quadrature configuration numeric_ir integrates state in: that of
    default_quadrature_spec before it is mapped to f's argument."""
    _, length, breaks = state.system.layout(state)
    return QuadratureSpec(rel_tol=rel_tol, scale=length, breaks=breaks)


def test_a_factor_on_the_oscillator_leaves_its_cutoff_where_it_was():
    # Hydrogen position's panel carries 1/sqrt(2 n^3) as ln_factor, and the
    # cutoff still tests the oscillator's own envelope. Cut where the
    # shifted envelope falls below LN_TINY, the guard lost 0.5 ln(2 n^3) of
    # its margin, and n = 323, l = 0, the last state it admits, moved from
    # rel_diff 4.6e-12 to 6.8e-10.
    n = 323
    kernel, ln_norm = laguerre_kernel(n - 1, 1.0), relfisher.systems._oscillator_terms(n - 1, 0.0, 1.0, str)
    plain = radial_oscillator(ln_norm, kernel, 0.0)
    scaled = radial_oscillator(ln_norm, kernel, 0.0, -0.5 * math.log(2 * n ** 3))
    points = [30.0 + k / 100 for k in range(2000)]
    cut = [plain(s) == (0.0, 0.0) for s in points]
    assert cut == [scaled(s) == (0.0, 0.0) for s in points]
    assert 0 < sum(cut) < len(cut)


def _unit_integral(state, spec=None):
    """The unit-scale integral numeric_ir takes for state, integrated here
    directly, so that no stored integral of another state can stand in."""
    return integrate(point_panel(_point_integrand(state)), spec or _oracle_spec(state))


# States whose oracle integral runs each branch of the panel loops: both
# parities of qho1d, qho3d at l > 0, php at two molecules, hydrogen position
# and momentum at l = 0 and l >= 1, each in both spaces, and hydrogen
# momentum (89, 87). qho3d (2, 79) and hydrogen momentum (89, 87) have nodes
# in the near-origin branch, where the value is cut and the slope kept;
# every Laguerre state, and hydrogen momentum (89, 87), has nodes where both
# are cut.
_PANEL_STATES = [
    *(QuantumState(Oscillator1D(0.7), space, n=n) for n in (6, 7) for space in (POSITION, MOMENTUM)),
    *(QuantumState(Oscillator3D(2.0), space, n_r=n_r, l=l)
      for n_r, l in ((3, 2), (2, 79)) for space in (POSITION, MOMENTUM)),
    *(QuantumState(params, space, n_r=5, l=l)
      for params in (H2_PARAMS, CO_PARAMS) for l in (0, 3) for space in (POSITION, MOMENTUM)),
    *(_hydrogen(n, l, space, 2.0) for n, l in ((5, 0), (7, 3)) for space in (POSITION, MOMENTUM)),
    _hydrogen(89, 87, MOMENTUM),
]


def _state_id(state):
    return f"{state.system.name}-{state.space}-{state.system.label(state.numbers)}"


@pytest.mark.parametrize("state", _PANEL_STATES, ids=_state_id)
def test_the_panel_loop_integrates_the_point_integrand_bit_for_bit(state):
    # numeric_ir integrates system.fisher_panel(state), one loop per panel;
    # the point integrand is built from system.unit(state), the evaluator
    # compile_state uses, and _reference_log_derivative(state), and
    # integrated through the point adapter. Every
    # field of the result must agree: value, error estimate, evaluations,
    # panels and stop reason.
    assert numeric_ir(state).quadrature == _unit_integral(state)


def _branches(state):
    """The nodes s of state's oracle integral where the evaluator cuts both
    value and slope, and those where it cuts the value only."""
    wave = state.system.unit(state)
    nodes = ([], [])

    def density(s):
        value, derivative = wave(s)
        if value == 0.0:
            nodes[derivative != 0.0].append(s)
        return value * value

    integrate(point_panel(density), default_quadrature_spec(state))
    return nodes


def test_the_panel_states_reach_the_cut_and_near_origin_branches():
    # A zero value with a nonzero slope is the near-origin branch at qho3d
    # (2, 79) and hydrogen momentum (89, 87), whose polynomial factors are
    # far from 0 near the origin. That branch's slope is below e^-700 / s,
    # so its Fisher sample underflows to 0: the results above pin the
    # branch's cut, not its slope.
    for state in _PANEL_STATES:
        cut, _ = _branches(state)
        if state.system.name != "hydrogen" or state.space == POSITION:
            assert cut, _state_id(state)
    assert all(_branches(QuantumState(Oscillator3D(2.0), POSITION, n_r=2, l=79)))
    assert all(_branches(_hydrogen(89, 87, MOMENTUM)))


@pytest.mark.parametrize(
    "states,continued",
    [
        ([QuantumState(Oscillator3D(2.0), POSITION, n_r=n_r, l=10) for n_r in range(8)], 2),
        ([_hydrogen(n, 87, MOMENTUM) for n in (89, 91)], 0),
    ],
    ids=["qho3d l=10", "hydrogen momentum l=87"],
)
def test_the_near_origin_branch_keeps_its_slope_bit_for_bit(states, continued, monkeypatch):
    # At LN_TINY = -700 the branch's samples underflow (see above). At -40
    # they do not, and these states have nodes in the branch, qho3d also
    # from n_r = 2, where its Laguerre panels have a table. A narrow panel
    # around each such node puts about all of its nodes in the branch: the
    # panel form, from degree 0 and again continued from the panel it
    # stored, must give the point form's sums there, and over the integral.
    monkeypatch.setattr(relfisher._evaluators, "LN_TINY", -40.0)
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    reached = []
    for state in states:
        integrand = _point_integrand(state)
        point, panel = point_panel(integrand), state.system.fisher_panel(state)
        # _branches' nodes are in f's argument, the panels in the oracle's variable.
        own, scale = default_quadrature_spec(state).scale, _oracle_spec(state).scale
        for s in _branches(state)[1]:
            t = s / (s + own)
            narrow = (t, 1e-4 * t, scale)
            assert point(*narrow)[0] > 0.0
            assert panel(*narrow) == panel(*narrow) == point(*narrow), (_state_id(state), s)
            reached.append(state)
        assert numeric_ir(state).quadrature == integrate(point, _oracle_spec(state))
    assert len(reached) >= 2 and reached[-1] in states[continued:]


def _integrated(state):
    """numeric_ir's unit-scale quadrature of state, integrated now rather
    than served from the store."""
    relfisher.relative_fisher._UNIT_INTEGRALS.clear()
    return numeric_ir(state).quadrature


def _laguerre_table(params, l):
    """The panel table of the pseudoharmonic Laguerre column at l."""
    return relfisher.specfun._LIVE["laguerre"][php_derived(params, l).gamma_l + 1.5].states


def test_a_sweep_across_the_continuation_degree_matches_the_point_integrand(monkeypatch):
    # A Laguerre panel runs from degree 0 at the first degree bound on its
    # column, is stored at the second and continued from the third on. The
    # panel loop must give the point form's result at each.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    for n_r in range(8):
        state = QuantumState(CO_PARAMS, POSITION, n_r=n_r, l=0)
        assert numeric_ir(state).quadrature == _unit_integral(state), n_r
    alpha = php_derived(CO_PARAMS, 0).gamma_l + 0.5
    column = relfisher.specfun._LIVE["laguerre"][alpha + 1.0]
    assert column.states and column.lowest == 0


def test_an_ascending_then_descending_degree_sweep_matches_the_point_integrand(monkeypatch):
    # Ascending, each panel continues the state of the degree below; then
    # descending, each stored state is above the target and restarts from 0.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    states = [QuantumState(CO_PARAMS, POSITION, n_r=n_r, l=2) for n_r in range(16)]
    for state in states:
        assert _integrated(state) == _unit_integral(state), state.n_r
    table = _laguerre_table(CO_PARAMS, 2)

    def degrees():
        return {k for _, stored, _, _ in table.values() for k in stored}

    for state in states[14:0:-1]:
        assert max(degrees()) > state.n_r
        assert _integrated(state) == _unit_integral(state), state.n_r
        assert state.n_r in degrees()


def test_a_node_the_envelope_cuts_at_one_degree_continues_when_live_at_the_next(monkeypatch):
    # The envelope cuts more nodes of degree 9 at LN_TINY = -40 than at -700,
    # so at degree 10 those nodes are live again and continue from the state
    # they kept, stored below degree 9.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    for n_r in range(9):
        _integrated(QuantumState(CO_PARAMS, POSITION, n_r=n_r, l=0))
    table = _laguerre_table(CO_PARAMS, 0)
    with monkeypatch.context() as patch:
        patch.setattr(relfisher._evaluators, "LN_TINY", -40.0)
        state = QuantumState(CO_PARAMS, POSITION, n_r=9, l=0)
        assert _integrated(state) == _unit_integral(state)
    cut = {(key, i) for key, (_, stored, _, _) in table.items() if 9 in stored for i, k in enumerate(stored) if k < 9}
    state = QuantumState(CO_PARAMS, POSITION, n_r=10, l=0)
    assert _integrated(state) == _unit_integral(state)
    revived = [(key, i) for key, i in cut if table[key][1][i] == 10]
    assert len(revived) >= 10


def test_a_hydrogen_position_sweep_at_fixed_l_continues_its_panels(monkeypatch):
    # In u = s^2 no panel's key or rows hold n, so the l = 2 column (alpha
    # + 1 = 6) stores its panels from the first degree on and continues
    # them up to the last, n_r = 11.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    for n in range(3, 15):
        state = _hydrogen(n, 2, POSITION)
        assert _integrated(state) == _unit_integral(state), n
    column = relfisher.specfun._LIVE["laguerre"][6.0]
    assert column.lowest == 0 and column.states
    assert 11 in {k for _, degrees, _, _ in column.states.values() for k in degrees}


def test_a_hydrogen_momentum_sweep_at_fixed_l_stores_one_entry_per_panel(monkeypatch):
    # In y = n p a panel's nodes are the same at every n, so the l = 2
    # column (alpha + 1 = 4) keeps one entry per panel, whose 31 states
    # continue from one degree to the next.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    keys = set()

    def recorded(*args, **kwargs):
        panel = momentum_panel(*args, **kwargs)

        def record(c, h, scale):
            keys.add((c, h, scale))
            return panel(c, h, scale)

        return record

    monkeypatch.setattr(relfisher.systems, "momentum_panel", recorded)
    for n in range(3, 15):
        state = _hydrogen(n, 2, MOMENTUM)
        assert _integrated(state) == _unit_integral(state), n
    column = relfisher.specfun._LIVE["gegenbauer"][4.0]
    assert column.lowest == 0 and set(column.states) == keys
    for (c, h, scale), states in column.states.items():
        assert len(states) == 31
        for (node, _, _), (k, *terms) in zip(_GK31, states):
            t = c + h * node
            y = scale * t / (1.0 - t)
            q = (y * y - 1.0) * (1.0 / (1.0 + y * y))  # as the panel loop rounds it
            assert tuple(terms) == _gegenbauer_terms(k, q)
    assert 11 in {k for states in column.states.values() for k, *_ in states}


def _gegenbauer_terms(k, q):
    """C_{k-2}, C_{k-1} and C_k of parameter 4 at q, from degree 0, in the
    order of specfun.gegenbauer_kernel's operations."""
    before, prev, cur = 0.0, 0.0, 1.0
    for a_k, b_k in relfisher.specfun._gegenbauer_steps(4.0, 0, k):
        before, prev, cur = prev, cur, a_k * q * cur - b_k * prev
    return before, prev, cur


def test_one_laguerre_parameter_at_two_exponents_keeps_two_sets_of_panels(monkeypatch):
    # The odd 1D oscillator n = 2m + 1 and the 3D oscillator (m, l = 0) share
    # the parameter alpha = 1/2, the unit length and the lattice, so their
    # panels coincide; their exponents kappa (1 and 0) and weights do not.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    for m in range(12):
        for state in (QuantumState(Oscillator1D(0.7), POSITION, n=2 * m + 1),
                      QuantumState(Oscillator3D(0.7), POSITION, n_r=m, l=0)):
            assert _integrated(state) == _unit_integral(state), _state_id(state)
    keys = relfisher.specfun._LIVE["laguerre"][1.5].states
    panels = [{key[:3] for key in keys if key[3] == kappa} for kappa in (1.0, 0.0)]
    assert len(panels[0] & panels[1]) >= 10


def _quadratures(make):
    """The unit-scale quadrature of make(space) in each space, each integrated
    directly: numeric_ir gives the second space the first space's integral."""
    return [_unit_integral(make(space)) for space in (POSITION, MOMENTUM)]


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.7, 1e-3, 1e10])
def test_oscillator_spaces_integrate_one_unit_scale_integral(omega):
    # f, the reference log-derivative and the unit length do not depend on
    # the space, so both spaces sample one integrand at the same nodes.
    for n in (0, 1, 2, 3, 4, 5, 10, 11, 30, 31, 100, 101):
        position, momentum = _quadratures(lambda space: QuantumState(Oscillator1D(omega), space, n=n))
        assert position == momentum, n
    for n_r, l in ((0, 0), (1, 0), (2, 1), (5, 3), (10, 7)):
        position, momentum = _quadratures(
            lambda space: QuantumState(Oscillator3D(omega), space, n_r=n_r, l=l)
        )
        assert position == momentum, (n_r, l)


@pytest.mark.parametrize("record", registry(), ids=lambda record: record.name)
def test_pseudoharmonic_spaces_integrate_one_unit_scale_integral(record):
    params = to_atomic_units(record)
    for n_r, l in ((0, 0), (1, 0), (2, 1), (3, 4), (8, 2)):
        position, momentum = _quadratures(lambda space: QuantumState(params, space, n_r=n_r, l=l))
        assert position == momentum, (n_r, l)


def _served(first, second, rel_tols=(1e-10, 1e-10)):
    """Whether numeric_ir, having integrated first, serves second first's
    unit-scale integral instead of integrating its own."""
    relfisher.relative_fisher._UNIT_INTEGRALS.clear()
    stored = numeric_ir(first, rel_tols[0]).quadrature
    return numeric_ir(second, rel_tols[1]).quadrature is stored


# Pairs of states that integrate one unit-scale integral.
_SHARED = {
    "qho1d across omega and space": (
        QuantumState(Oscillator1D(0.5), POSITION, n=7),
        QuantumState(Oscillator1D(40.0), MOMENTUM, n=7),
    ),
    "qho3d across omega and space": (
        QuantumState(Oscillator3D(1.0), POSITION, n_r=3, l=2),
        QuantumState(Oscillator3D(1e-3), MOMENTUM, n_r=3, l=2),
    ),
    "php across space": (
        QuantumState(H2_PARAMS, POSITION, n_r=4, l=1),
        QuantumState(H2_PARAMS, MOMENTUM, n_r=4, l=1),
    ),
    # 8 mu De re^2, and with it gamma_l, is the same bit for bit; lambda is not.
    "php across molecules of one gamma_l": (
        QuantumState(Pseudoharmonic(mu=2.0, De=0.1, re=1.0), POSITION, n_r=3, l=2),
        QuantumState(Pseudoharmonic(mu=8.0, De=0.1, re=0.5), MOMENTUM, n_r=3, l=2),
    ),
    "hydrogen position across Z": (_hydrogen(6, 2, POSITION, Z=1.0), _hydrogen(6, 2, POSITION, Z=3.0)),
    "hydrogen momentum across Z": (_hydrogen(6, 2, MOMENTUM, Z=1.0), _hydrogen(6, 2, MOMENTUM, Z=0.25)),
}


@pytest.mark.parametrize("first,second", _SHARED.values(), ids=_SHARED.keys())
def test_states_of_one_name_integrate_one_integral(first, second):
    assert first.system.layout(first)[0] == second.system.layout(second)[0]
    direct = _unit_integral(first)
    assert _unit_integral(second) == direct
    assert _served(first, second)
    assert numeric_ir(second).quadrature == direct


def test_states_of_one_layout_name_share_its_unit_length_and_breaks():
    # numeric_ir keys its store on (type(system), layout name, rel_tol), so a
    # name must fix the rest of the quadrature's configuration as well.
    grids = {
        Oscillator1D: ([Oscillator1D(0.5), Oscillator1D(40.0)], {"n": range(8)}),
        Oscillator3D: ([Oscillator3D(1e-3), Oscillator3D(1.0)], {"n_r": range(4), "l": range(3)}),
        Hydrogenic: ([Hydrogenic(Z) for Z in (0.25, 1.0, 3.0)], {"n": range(1, 7), "l": range(4)}),
        # The first two are molecules of one gamma_l at every l.
        Pseudoharmonic: (
            [Pseudoharmonic(mu=2.0, De=0.1, re=1.0), Pseudoharmonic(mu=8.0, De=0.1, re=0.5), H2_PARAMS, CO_PARAMS],
            {"n_r": range(4), "l": range(3)},
        ),
    }
    # How many names are shared by how many states: each oscillator name by
    # both systems in both spaces, each hydrogen name by the three charges,
    # and a pseudoharmonic name by both spaces of the first two molecules,
    # or of H2 or CO alone.
    sharing = {Oscillator1D: {4: 8}, Oscillator3D: {4: 12}, Hydrogenic: {3: 36}, Pseudoharmonic: {4: 12, 2: 24}}
    for family, (systems, ranges) in grids.items():
        layouts, states = {}, Counter()
        for system in systems:
            for state in system.grid((POSITION, MOMENTUM), **ranges):
                name, length, breaks = system.layout(state)
                assert layouts.setdefault(name, (length, breaks)) == (length, breaks), state
                states[name] += 1
        assert Counter(states.values()) == sharing[family], family


# Pairs of states, each with its rel_tol, that must not share a unit-scale integral.
_APART = {
    "php at two molecules of one n_r": (
        QuantumState(H2_PARAMS, POSITION, n_r=2, l=0),
        QuantumState(to_atomic_units(find_molecule("CO")), POSITION, n_r=2, l=0),
        (1e-10, 1e-10),
    ),
    # Both are the radial oscillator at n_r = 1 and kappa = 1, in D = 1 and D = 3.
    "qho1d n=2m+1 and qho3d (m, l=1)": (
        QuantumState(Oscillator1D(1.0), POSITION, n=3),
        QuantumState(Oscillator3D(1.0), POSITION, n_r=1, l=1),
        (1e-10, 1e-10),
    ),
    "hydrogen position and momentum": (_hydrogen(5, 1, POSITION), _hydrogen(5, 1, MOMENTUM), (1e-10, 1e-10)),
    # n_r = 12, as below it both tolerances hold on the initial panels.
    "one state at two rel_tol": (
        QuantumState(Oscillator3D(1.0), POSITION, n_r=12, l=0),
        QuantumState(Oscillator3D(1.0), POSITION, n_r=12, l=0),
        (1e-6, 1e-10),
    ),
}


@pytest.mark.parametrize("first,second,rel_tols", _APART.values(), ids=_APART.keys())
def test_states_of_different_names_integrate_their_own_integrals(first, second, rel_tols):
    assert not _served(first, second, rel_tols)
    first_spec = _oracle_spec(first, rel_tols[0])
    second_spec = _oracle_spec(second, rel_tols[1])
    own = _unit_integral(second, second_spec)
    assert numeric_ir(second, rel_tols[1]).quadrature == own
    assert own != _unit_integral(first, first_spec)


def test_the_unit_integral_store_keeps_to_its_bound():
    store = relfisher.relative_fisher._UNIT_INTEGRALS
    bound = relfisher.relative_fisher._UNIT_INTEGRALS_MAX
    states = [QuantumState(Oscillator3D(1.0), POSITION, n_r=0, l=l) for l in range(bound + 44)]
    for state in states:
        assert numeric_ir(state).quadrature.converged
        assert len(store) <= bound
    assert len(store) == bound
    # The oldest integrals went first.
    kept = {key[1] for key in store}
    assert [state.system.layout(state)[0] in kept for state in states] == [False] * 44 + [True] * bound


_UNIT_SCALE_CASES = [
    # The D-dimensional radial oscillator f against its node-less reference
    # at the same kappa: 4 Int s^(D-1) (f' - f (kappa/s - s))^2 ds = 16 n_r
    # at every kappa.
    *(
        (QuantumState(Oscillator3D(omega), space, n_r=n_r, l=l), 16 * n_r)
        for omega in (1e-3, 1.0, 1e10)
        for n_r in (1, 3, 12)
        for l in (0, 1, 4, 11)
        for space in (POSITION, MOMENTUM)
    ),
    # gamma_l is not an integer: 0.31 (l = 0) and 3.06 (l = 3) for the first system.
    *(
        (QuantumState(params, space, n_r=n_r, l=l), 16 * n_r)
        for params in (Pseudoharmonic(mu=2.0, De=0.1, re=1.0), H2_PARAMS)
        for n_r in (1, 3, 12)
        for l in (0, 3)
        for space in (POSITION, MOMENTUM)
    ),
    # Against the n = 0 Gaussian: 8 n.
    *(
        (QuantumState(Oscillator1D(omega), space, n=n), 8 * n)
        for omega in (1e-3, 1.0, 1e10)
        for n in (1, 2, 5, 30, 101)
        for space in (POSITION, MOMENTUM)
    ),
    # Hydrogen position at unit charge: 8 n_r / n^3.
    *(
        (_hydrogen(n, l, POSITION, Z=Z), 8 * (n - l - 1) / n**3)
        for Z in (0.5, 7.0)
        for n, l in ((2, 0), (5, 1), (12, 4))
    ),
]


@pytest.mark.parametrize("state,expected", _UNIT_SCALE_CASES, ids=str)
def test_unit_scale_integral_is_parameter_free(state, expected):
    # The unit-scale integral itself, apart from the closed forms, which
    # multiply it by c^2.
    quadrature = numeric_ir(state).quadrature
    assert quadrature.converged
    assert quadrature.value == pytest.approx(expected, rel=1e-10, abs=0.0)


class _YieldingStore(OrderedDict):
    """A store that hands the interpreter to another thread just after its
    size is read, inside the check-then-act of numeric_ir's bound."""

    def __len__(self):
        size = super().__len__()
        time.sleep(1e-3)
        return size


def test_threads_that_share_the_unit_integral_store_keep_its_bound(monkeypatch):
    store = _YieldingStore()
    monkeypatch.setattr(relfisher.relative_fisher, "_UNIT_INTEGRALS", store)
    monkeypatch.setattr(relfisher.relative_fisher, "_UNIT_INTEGRALS_MAX", 8)
    # Each thread sweeps its own cells, in both spaces.
    sweeps = [
        [QuantumState(Oscillator3D(1.0), space, n_r=n_r, l=l) for n_r in range(4) for space in (POSITION, MOMENTUM)]
        for l in range(6)
    ]
    expected = [[numeric_ir(state) for state in sweep] for sweep in sweeps]
    store.clear()
    sizes, results = [], {}

    def run(worker):
        for state in sweeps[worker]:
            results.setdefault(worker, []).append(numeric_ir(state))
            sizes.append(OrderedDict.__len__(store))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(worker,)) for worker in range(len(sweeps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [results[worker] for worker in range(len(sweeps))] == expected
    assert max(sizes) <= 8


def _assert_threads_sweeping_one_column_integrate_as_alone(states):
    """Four threads sweep states, the degrees of one column, in four orders,
    so that they read and store the same states at once. A store may be
    lost, but a state read half-written would change a result."""
    expected = {state: _unit_integral(state) for state in states}
    orders = [states, states[::-1], states[::2] + states[1::2], states[6:] + states[:6]]
    results = {}

    def run(worker):
        for state in orders[worker]:
            panel = state.system.fisher_panel(state)
            results[worker, state] = integrate(panel, _oracle_spec(state))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(worker,)) for worker in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {(worker, state): expected[state] for worker in range(len(orders)) for state in states}


def test_threads_that_share_a_laguerre_column_store_whole_panels(monkeypatch):
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    _assert_threads_sweeping_one_column_integrate_as_alone(
        [QuantumState(CO_PARAMS, POSITION, n_r=n_r, l=1) for n_r in range(12)]
    )


def test_threads_that_share_a_gegenbauer_column_store_whole_panels(monkeypatch):
    # The momentum states of one l: in y = n p they store the same panels.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    _assert_threads_sweeping_one_column_integrate_as_alone([_hydrogen(n, 1, MOMENTUM) for n in range(2, 14)])


def _column_of_steps(step):
    """Binds like systems.laguerre_column, but every recurrence step is step,
    a triple (a_k, c_k, b_k), and no panel is stored."""
    return lambda n, alpha: (n, (step,) * n, None)


def test_numeric_ir_reports_a_non_finite_integrand(monkeypatch):
    monkeypatch.setattr(relfisher.systems, "laguerre_column", _column_of_steps((math.nan,) * 3))
    with pytest.raises(IntegrandError):
        numeric_ir(QuantumState(system=Oscillator3D(omega=1.0), space=POSITION, n_r=2, l=0))


def test_an_integral_that_raises_is_not_stored(monkeypatch):
    # Refused inside the quadrature, where the Gegenbauer factor overflows.
    with pytest.raises(RefusedStateError):
        numeric_ir(_hydrogen(1000, 300, MOMENTUM))
    monkeypatch.setattr(relfisher.systems, "laguerre_column", _column_of_steps((math.nan,) * 3))
    with pytest.raises(IntegrandError):
        numeric_ir(QuantumState(system=Oscillator3D(omega=1.0), space=POSITION, n_r=2, l=0))
    assert not relfisher.relative_fisher._UNIT_INTEGRALS
    # The other space of that cell integrates again, with the real kernel.
    monkeypatch.undo()
    result = numeric_ir(QuantumState(system=Oscillator3D(omega=1.0), space=MOMENTUM, n_r=2, l=0))
    assert result.quadrature.converged and result.rel_diff <= 1e-8


_SAMPLE_ERROR = r"^integrand returned (nan|inf) at s = \S+ \(t = \S+\), weighted (nan|inf)$"


def _gegenbauer_column_of_steps(step):
    """Binds like systems.gegenbauer_column, but every recurrence step is
    step, a pair (a_k, b_k), and no state is stored."""
    return lambda n, alpha: (n, (step,) * n, None)


@pytest.mark.parametrize(
    "seam,poison,state",
    [
        # L_1 = 1e150 and L_2 = 1e300: value and slope are finite, their square is not.
        ("laguerre_column", _column_of_steps((1e150, 0.0, 0.0)),
         QuantumState(system=Oscillator3D(omega=1.0), space=POSITION, n_r=2, l=0)),
        # C_2 = 1e300 q^2, and likewise.
        ("gegenbauer_column", _gegenbauer_column_of_steps((1e150, 0.0)), _hydrogen(4, 1, MOMENTUM)),
    ],
    ids=["laguerre", "gegenbauer"],
)
def test_a_non_finite_sample_names_its_node(monkeypatch, seam, poison, state):
    monkeypatch.setattr(relfisher.systems, seam, poison)
    with pytest.raises(IntegrandError, match=_SAMPLE_ERROR):
        numeric_ir(state)


def test_a_hydrogen_momentum_integral_that_raises_is_not_stored(monkeypatch):
    # A Gegenbauer factor that is not finite is a refused state, not a bad sample.
    monkeypatch.setattr(relfisher.systems, "gegenbauer_column", _gegenbauer_column_of_steps((math.nan, math.nan)))
    with pytest.raises(RefusedStateError):
        numeric_ir(_hydrogen(4, 1, MOMENTUM))
    monkeypatch.setattr(relfisher.systems, "gegenbauer_column", _gegenbauer_column_of_steps((1e150, 0.0)))
    with pytest.raises(IntegrandError):
        numeric_ir(_hydrogen(4, 1, MOMENTUM))
    assert not relfisher.relative_fisher._UNIT_INTEGRALS
    # The same cell integrates again, with the real column.
    monkeypatch.undo()
    result = numeric_ir(_hydrogen(4, 1, MOMENTUM))
    assert result.quadrature.converged
    assert result.numeric == pytest.approx(hydrogen_momentum_integral_closed_form(4, 1, 1.0), rel=1e-8)


_TWO_HALF_CASES = [
    (omega, space, n)
    for omega in (1e-160, 1e-3, 1.0, 3.7, 1e160)
    for space in (POSITION, MOMENTUM)
    for n in (0, 1, 6, 31, 150)
]


@pytest.mark.parametrize("omega,space,n", _TWO_HALF_CASES)
def test_1d_oscillator_half_line_equals_the_two_half_sum(omega, space, n):
    # The full-line integral of compile_state's psi as the sum of its positive
    # and its negative half, each at the state's own scale, with an absolute
    # tolerance that scales with the value. psi has parity (-1)^n bit for bit,
    # so the two halves are the same integral. numeric_ir integrates the
    # half-line f, |f| = sqrt(2)|psi|, at unit scale instead, and must agree.
    state = QuantumState(system=Oscillator1D(omega=omega), space=space, n=n)
    wave = compile_state(state)
    c, length = state.system.scale(state), state.system.layout(state)[1]

    def integrand(x):
        value, derivative = wave(x)
        difference = derivative + value * c * (c * x)
        return 4.0 * difference * difference

    spec = replace(default_quadrature_spec(state, rel_tol=1e-12), abs_tol=1e-14 * c * c, scale=length / c)
    positive = integrate(point_panel(integrand), spec)
    negative = integrate(point_panel(lambda s: integrand(-s)), spec)
    assert negative == positive
    result = numeric_ir(state, 1e-12)
    assert positive.converged and result.quadrature.converged
    assert result.numeric == pytest.approx(2.0 * positive.value, rel=1e-11, abs=1e-13 * c * c)


# From n = 189 the Hermite form's envelope cutoff truncated psi: unguarded,
# n=255 converged to 323.2 against 1442.5, and from n=265 to exactly 0. The
# Laguerre form's guard admits n <= 651.
@pytest.mark.parametrize("n", [194, 255, 265, 400])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("omega", [1e-160, 1.0, 1e160])
def test_1d_oscillator_converges_where_the_hermite_form_truncated(omega, space, n):
    result = numeric_ir(QuantumState(system=Oscillator1D(omega=omega), space=space, n=n))
    assert result.quadrature.converged
    assert result.rel_diff <= 1e-10


@pytest.mark.parametrize("n", [652, 653, 700, 1000])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("omega", [1e-160, 1.0, 1e160])
def test_1d_oscillator_refuses_states_its_cutoff_would_truncate(omega, space, n):
    # The unit-scale state is the same at every omega, and so is the guard.
    state = QuantumState(system=Oscillator1D(omega=omega), space=space, n=n)
    message = re.escape(f"n={n} of Oscillator1D(omega={omega!r})") + ".*limit -650"
    with pytest.raises(RefusedStateError, match=message):
        numeric_ir(state)


def test_1d_oscillator_normalization_refuses_a_truncated_state():
    state = QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=700)
    with pytest.raises(RefusedStateError, match="n=700"):
        normalization_defect(state)


# (state, k) -> state, k being n_r or the hydrogen n: the last state each
# Laguerre family admits, and the next, which it refuses. The guard does not
# depend on the space or the scale. Before the guard covered them, these
# converged silently wrong: qho3d n_r=332, l=0 to rel_diff 7.4e-8, CO
# n_r=310 to 1.0e-6, hydrogen position n=326, l=0 to 4.5e-8 and n=332,
# l=10 to 1.4e-8; all are refused now.
_EDGES = [
    ("qho3d l=0", lambda n_r: QuantumState(Oscillator3D(omega=1.0), POSITION, n_r=n_r, l=0), 323, 332),
    ("qho3d l=10", lambda n_r: QuantumState(Oscillator3D(omega=1.0), POSITION, n_r=n_r, l=10), 322, None),
    ("php H2", lambda n_r: QuantumState(H2_PARAMS, POSITION, n_r=n_r, l=0), 320, None),
    ("php CO", lambda n_r: QuantumState(to_atomic_units(find_molecule("CO")), POSITION, n_r=n_r, l=0), 298, 310),
    ("hydrogen l=0", lambda n: QuantumState(Hydrogenic(Z=1.0), POSITION, n=n, l=0), 323, 326),
    ("hydrogen l=10", lambda n: QuantumState(Hydrogenic(Z=1.0), POSITION, n=n, l=10), 330, 332),
]


@pytest.mark.parametrize("make,last,silent", [edge[1:] for edge in _EDGES], ids=[edge[0] for edge in _EDGES])
def test_radial_oscillators_converge_up_to_their_limit_and_refuse_beyond(make, last, silent):
    result = numeric_ir(make(last))
    assert result.quadrature.converged
    assert result.rel_diff <= 1e-10
    for k in (last + 1, silent) if silent else (last + 1,):
        state = make(k)
        label = re.escape(f" {state.system.label(state.numbers)} of ")
        with pytest.raises(RefusedStateError, match=f"{label}.*limit -650"):
            numeric_ir(state)


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_1d_oscillator_high_state_inside_the_guard_converges(omega):
    result = numeric_ir(QuantumState(system=Oscillator1D(omega=omega), space=POSITION, n=150))
    assert result.quadrature.converged
    assert result.rel_diff <= 1e-8


def _molecule(mu_amu):
    return to_atomic_units(MoleculeRecord("X", "x", mu_amu, 1.0, 1.0, "s"))


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize("mu_amu", [1e10, 1e20])
def test_a_state_whose_log_envelope_cancels_is_refused(mu_amu, space):
    # At gamma_l above about 1e5 every quadrature node on 7 equal panels fell
    # past the cutoff around the narrow peak, and the all-zero integral
    # passed the convergence test: a converged 0.0 against the closed form.
    # The envelope's terms now round beyond the evaluator's budget there.
    state = QuantumState(_molecule(mu_amu), space, n_r=1, l=0)
    label = re.escape(f"php {space} n_r=1,l=0 of ")
    with pytest.raises(RefusedStateError, match=f"{label}.*round to .* above the budget 1e-09"):
        numeric_ir(state)


def test_a_state_with_nodes_that_integrates_to_zero_is_not_converged(monkeypatch):
    # An all-zero integral passes the convergence test; for a state with
    # nodes it means that no node reached the wavefunction.
    zero = QuadratureResult(0.0, 0.0, 217, True, 7, "tol")
    monkeypatch.setattr(relfisher.relative_fisher, "integrate", lambda f, spec: zero)
    result = numeric_ir(QuantumState(H2_PARAMS, POSITION, n_r=1, l=0))
    assert result.numeric == 0.0
    assert not result.quadrature.converged


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_a_narrow_pseudoharmonic_peak_is_not_reported_converged_when_it_is_off(space):
    # At mu_amu = 1e6 (gamma_l about 2e4) a few nodes of 7 equal panels
    # reached the peak's far tail: a value of 1.2e-297 (2.4e-83 in momentum
    # space), not 0, was reported converged against the closed form.
    result = numeric_ir(QuantumState(_molecule(1e6), space, n_r=1, l=0))
    assert not result.quadrature.converged or result.rel_diff <= 1e-8


def test_the_large_mass_scan_ends_every_cell_ok_or_refused():
    # README Known discrepancy 5's scan. On 7 equal panels it had 12 ok, 6
    # silently wrong, 142 not converged and 20 refused cells; now the
    # classical window's panels reach every peak up to mu_amu = 1e8, and the
    # envelope's rounding budget refuses the rest.
    outcomes = {}
    for exponent in range(2, 62, 2):
        molecule = _molecule(10.0**exponent)
        for n_r in (1, 2, 5):
            for space in (POSITION, MOMENTUM):
                try:
                    result = numeric_ir(QuantumState(molecule, space, n_r=n_r, l=0))
                except RefusedStateError:
                    outcome = "refused"
                else:
                    assert result.quadrature.converged, (exponent, n_r, space)
                    assert result.rel_diff <= 1e-8, (exponent, n_r, space, result.rel_diff)
                    outcome = "ok"
                outcomes.setdefault(outcome, set()).add(exponent)
    assert outcomes == {"ok": {2, 4, 6, 8}, "refused": set(range(10, 62, 2))}


def test_numeric_ir_is_the_same_with_or_without_a_degree_sweep_before_it(monkeypatch):
    # A degree sweep continues each Laguerre recurrence from the state the
    # previous degree stored at the same node; the result must not show it.
    state = QuantumState(system=H2_PARAMS, space=POSITION, n_r=60, l=0)
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})  # no column is live
    cold = numeric_ir(state)
    for n_r in range(60):
        numeric_ir(QuantumState(system=H2_PARAMS, space=POSITION, n_r=n_r, l=0))
    relfisher.relative_fisher._UNIT_INTEGRALS.clear()  # integrate it again, warm
    warm = numeric_ir(state)
    assert warm == cold
    assert cold.quadrature.converged and cold.rel_diff <= 1e-8


@pytest.mark.parametrize(
    "make",
    [
        lambda n_r: QuantumState(H2_PARAMS, POSITION, n_r=n_r, l=0),
        lambda n_r: QuantumState(Oscillator3D(omega=1.0), MOMENTUM, n_r=n_r, l=3),
    ],
    ids=["php H2", "qho3d l=3"],
)
def test_two_degrees_at_one_kappa_share_their_initial_edges_where_their_windows_overlap(make):
    # The breaks come from one lattice, not from each state's turning points.
    specs = [default_quadrature_spec(make(n_r)) for n_r in (10, 40)]
    assert specs[0].scale == specs[1].scale
    scale = specs[0].scale
    for spec in specs:
        assert all(b / 1.5 == round(b / 1.5) for b in spec.breaks)
    start = max(min(spec.breaks) for spec in specs)
    end = min(max(spec.breaks) for spec in specs)
    low, high = start / (start + scale), end / (end + scale)
    shared = [[t for t in _initial_edges(spec) if low <= t <= high] for spec in specs]
    assert shared[0] == shared[1]
    assert len(shared[0]) >= 5


def test_a_degree_sweep_continues_its_recurrence_at_most_nodes_of_the_next_degree(monkeypatch):
    # Consecutive degrees start on the same panels, so the n_r = 60 integral
    # finds the state that n_r = 59 stored at most of its nodes.
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {})
    for n_r in range(60):
        numeric_ir(QuantumState(system=H2_PARAMS, space=POSITION, n_r=n_r, l=0))
    table = _laguerre_table(H2_PARAMS, 0)
    stored = {key: entry[1] for key, entry in table.items()}
    assert numeric_ir(QuantumState(system=H2_PARAMS, space=POSITION, n_r=60, l=0)).quadrature.converged
    # The nodes the n_r = 60 integral evaluated are those now at degree 60;
    # a node continued a stored state if a degree above 0 had reached it.
    evaluated = [(key, i) for key, (_, degrees, _, _) in table.items() for i, k in enumerate(degrees) if k == 60]
    continued = [stored[key][i] for key, i in evaluated if key in stored and stored[key][i]]
    assert all(k == 59 for k in continued)
    assert len(continued) > 0.5 * len(evaluated)


_MONOTONE_STATES = [
    *(
        pytest.param(QuantumState(Oscillator1D(omega=omega), POSITION, n=n), id=f"qho1d-omega={omega:g}-n={n}")
        for omega in (1e-3, 1e3)
        for n in (1, 6, 41, 150)
    ),
    *(
        pytest.param(
            QuantumState(Oscillator3D(omega=omega), MOMENTUM, n_r=n_r, l=l), id=f"qho3d-omega={omega:g}-{n_r},{l}"
        )
        for omega in (1e-3, 1e3)
        for n_r, l in ((1, 0), (3, 5), (5, 80), (10, 40), (40, 200))
    ),
    *(
        pytest.param(QuantumState(H2_PARAMS, POSITION, n_r=n_r, l=l), id=f"php-H2-{n_r},{l}")
        for n_r, l in ((1, 0), (15, 10), (60, 0))
    ),
    *(pytest.param(QuantumState(CO_PARAMS, MOMENTUM, n_r=n_r, l=0), id=f"php-CO-{n_r},0") for n_r in (1, 60)),
    *(
        pytest.param(QuantumState(Pseudoharmonic(mu=mu, De=0.1, re=2.0), POSITION, n_r=5, l=0), id=f"php-mu={mu:g}-5,0")
        for mu in (1e2, 1e4, 1e6)
    ),
    *(
        pytest.param(_hydrogen(n, l, POSITION, Z), id=f"hydrogen-Z={Z:g}-{n},{l}")
        for Z in (0.5, 3.0)
        for n, l in ((5, 0), (20, 10), (40, 25), (60, 40), (100, 60))
    ),
]


@pytest.mark.parametrize("state", _MONOTONE_STATES)
def test_the_oracle_integrand_is_monotone_outside_its_breaks(state):
    # The initial panels are the breaks' alone (as dqagp takes them), so the
    # outer panels hold no feature: beyond the last break the integrand
    # falls, and below a first break that lies above the lattice's first
    # point (the window starts away from 0) it rises.
    spec = _oracle_spec(state)
    integrand = _point_integrand(state)
    first, last = min(spec.breaks), max(spec.breaks)
    t_last = last / (last + spec.scale)
    tail = sorted({
        *(last * (1.0 + k / 500) for k in range(501)),
        *(spec.scale * t / (1.0 - t) for t in (t_last + (1.0 - t_last) * k / 500 for k in range(1, 500))),
    })
    values = [integrand(s) for s in tail]
    assert values[0] > 0.0
    assert all(b <= a for a, b in zip(values, values[1:]))
    width = relfisher.systems._BREAK_WIDTH
    # Hydrogen position's breaks are the lattice's points in u = s^2.
    lattice_start = width * width if isinstance(state.system, Hydrogenic) else width
    if first > lattice_start:
        values = [integrand(first * k / 1000) for k in range(1, 1001)]
        assert all(a <= b for a, b in zip(values, values[1:]))
