"""Orthogonal polynomials and ln-gamma.

Expected values are either hand-derivable from the low-order closed forms
(H2 = 4x^2 - 2, L1^a = 1 + a - x, C2^a = 2a(1+a)x^2 - a, ...) or pinned
against an independent route (moment expansion, scipy, mpmath, finite
differences).
"""

import math
import tracemalloc

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from relfisher import specfun
from relfisher.quadrature import QuadratureSpec, integrate
from relfisher.specfun import (
    assoc_laguerre,
    gegenbauer,
    gegenbauer_kernel,
    hermite,
    laguerre_kernel,
    ln_gamma,
)


def test_hermite_low_orders():
    assert hermite(0, 0.7) == (1.0, 0.0)
    assert hermite(1, 1.0) == (2.0, 2.0)
    # H2 = 4x^2 - 2, H2' = 8x
    value, derivative = hermite(2, 0.3)
    assert value == pytest.approx(-1.64, rel=1e-15)
    assert derivative == pytest.approx(2.4, rel=1e-15)
    # H3 = 8x^3 - 12x, H3' = 24x^2 - 12
    value, derivative = hermite(3, 0.5)
    assert value == pytest.approx(-5.0, rel=1e-15)
    assert derivative == pytest.approx(-6.0, rel=1e-15)


def test_laguerre_low_orders():
    assert laguerre_kernel(0, 1.5)(3.2) == (1.0, 0.0)
    # L1^a = 1 + a - x
    value, derivative = laguerre_kernel(1, 0.5)(2.0)
    assert value == pytest.approx(-0.5, rel=1e-15)
    assert derivative == pytest.approx(-1.0, rel=1e-15)
    # L2^a = x^2/2 - (a+2)x + (a+1)(a+2)/2; at a=0.5, x=1: 0.5 - 2.5 + 1.875
    value, derivative = laguerre_kernel(2, 0.5)(1.0)
    assert value == pytest.approx(-0.125, rel=1e-15)
    assert derivative == pytest.approx(-1.5, rel=1e-15)


def test_gegenbauer_low_orders():
    assert gegenbauer_kernel(0, 2.0)(0.3) == (1.0, 0.0)
    # C1^a = 2ax
    value, derivative = gegenbauer_kernel(1, 2.0)(0.3)
    assert value == pytest.approx(1.2, rel=1e-15)
    assert derivative == pytest.approx(4.0, rel=1e-15)
    # C2^a = 2a(1+a)x^2 - a; at a=1.5, x=-0.5: 1.875 - 1.5
    value, derivative = gegenbauer_kernel(2, 1.5)(-0.5)
    assert value == pytest.approx(0.375, rel=1e-15)
    # (C2^a)' = 4a(1+a)x
    assert derivative == pytest.approx(-7.5, rel=1e-15)


@pytest.mark.parametrize("x", [-1.8, 0.0, 0.4, 2.6])
def test_degree_zero_derivative_is_exactly_zero(x):
    assert hermite(0, x)[1] == 0.0
    assert laguerre_kernel(0, 1.5)(abs(x))[1] == 0.0
    assert gegenbauer_kernel(0, 1.0)(max(min(x, 0.9), -0.9))[1] == 0.0


def test_ln_gamma_landmarks():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(2.0) == 0.0
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)
    # Gamma(7.5) = 6.5 * 5.5 * ... * 0.5 * sqrt(pi) by the recurrence
    expected = math.fsum(math.log(0.5 + k) for k in range(7)) + 0.5 * math.log(math.pi)
    assert ln_gamma(7.5) == pytest.approx(expected, rel=1e-14)


def test_ln_gamma_against_scipy():
    points = [0.5 * 1000.0 ** (i / 199.0) for i in range(200)]
    for x in points:
        reference = float(scipy.special.gammaln(x))
        assert abs(ln_gamma(x) - reference) <= 1e-13 * max(1.0, abs(reference))


@pytest.mark.parametrize("x", [0.0, -1.0, -3.7])
def test_ln_gamma_rejects_nonpositive(x):
    with pytest.raises(ValueError):
        ln_gamma(x)


def test_degree_and_parameter_validation():
    with pytest.raises(ValueError):
        hermite(-1, 0.5)
    with pytest.raises(ValueError):
        hermite(True, 0.5)
    with pytest.raises(ValueError):
        laguerre_kernel(2, -1.0)
    with pytest.raises(ValueError):
        gegenbauer_kernel(2, 0.0)


def _assert_derivative_matches(kernel, x, h=1e-6):
    value, derivative = kernel(x)
    fd = (kernel(x + h)[0] - kernel(x - h)[0]) / (2.0 * h)
    scale = max(abs(derivative), abs(value), 1.0)
    assert abs(derivative - fd) <= 1e-6 * scale


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), x=st.floats(-3.0, 3.0))
def test_hermite_derivative_matches_finite_difference(n, x):
    _assert_derivative_matches(lambda y: hermite(n, y), x)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), alpha=st.floats(0.5, 40.0), x=st.floats(0.01, 60.0))
def test_laguerre_derivative_matches_finite_difference(n, alpha, x):
    _assert_derivative_matches(laguerre_kernel(n, alpha), x)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), alpha=st.floats(0.25, 30.0), x=st.floats(-0.95, 0.95))
def test_gegenbauer_derivative_matches_finite_difference(n, alpha, x):
    _assert_derivative_matches(gegenbauer_kernel(n, alpha), x)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_laguerre_orthogonality_by_quadrature(alpha):
    def norm(i):
        return math.exp(ln_gamma(i + alpha + 1.0) - ln_gamma(i + 1.0))

    for i in range(9):
        for j in range(i, 9):
            # off-diagonal entries are exactly zero, so the absolute
            # tolerance must carry the pair's natural magnitude
            pair_scale = math.sqrt(norm(i) * norm(j))
            spec = QuadratureSpec(
                rel_tol=1e-12, abs_tol=1e-11 * pair_scale, scale=alpha + i + j + 1.0
            )
            l_i, l_j = laguerre_kernel(i, alpha), laguerre_kernel(j, alpha)

            def integrand(u):
                return u**alpha * math.exp(-u) * l_i(u)[0] * l_j(u)[0]

            result = integrate(integrand, spec)
            assert result.converged
            if i == j:
                assert result.value == pytest.approx(norm(i), rel=1e-9)
            else:
                assert abs(result.value) <= 1e-9 * pair_scale


def test_hermite_orthogonality_by_quadrature():
    # H_m H_k e^{-y^2} has parity (-1)^(m+k): an even product integrates to
    # twice its half line, and an odd one vanishes because it is odd.
    def norm(m):
        return math.exp(m * math.log(2.0) + ln_gamma(m + 1.0) + 0.5 * math.log(math.pi))

    for m in range(9):
        for k in range(m, 9):
            def integrand(y):
                return math.exp(-y * y) * hermite(m, y)[0] * hermite(k, y)[0]

            if (m + k) % 2:
                for y in (0.1, 0.7, 1.3, 2.9, 4.4):
                    assert integrand(-y) == -integrand(y)
                continue
            pair_scale = math.sqrt(norm(m) * norm(k))
            spec = QuadratureSpec(
                rel_tol=1e-12,
                abs_tol=1e-11 * pair_scale,
                scale=math.sqrt(m + k + 1.0),
            )
            result = integrate(lambda y: 2.0 * integrand(y), spec)
            assert result.converged
            if m == k:
                assert result.value == pytest.approx(norm(m), rel=1e-9)
            else:
                assert abs(result.value) <= 1e-9 * pair_scale


# One-pass kernels against mpmath. Each error is measured against the size of
# the recurrence terms the value is assembled from, |L_n^{a+1}| + |L_{n-1}^{a+1}|
# (a = alpha), and the matching Gegenbauer terms at alpha + 1, because the
# value itself passes through zero between them. Laguerre points sit at
# fractions of 4n + 2*alpha + 2, past which there are no zeros, and stay where
# the values fit in double range. On these points the worst error is 2.4e-13
# (n=500, alpha=0.5, x=4.0), where the earlier two-pass kernel reached 1.5e-12.
# Near the turning point before the first zero both terms are small and the
# measure grows for any forward recurrence: at n=500, alpha=151.3, x=23 the
# one-pass kernel reaches 1.1e-12 and the two-pass kernel 2.0e-12. The points
# below keep off that spot.
_LAGUERRE_FRACTIONS = (0.002, 0.05, 0.15, 0.3, 0.45)
_GEGENBAUER_POINTS = (-0.99, -0.7, -0.25, 0.1, 0.45, 0.8, 0.97)


@pytest.mark.parametrize("n", [10, 100, 500])
@pytest.mark.parametrize("alpha", [0.5, 1.5, 7.0, 40.0, 151.3, 420.0])
def test_laguerre_one_pass_matches_mpmath(n, alpha):
    mpmath.mp.dps = 30
    worst = 0.0
    for fraction in _LAGUERRE_FRACTIONS:
        x = fraction * (4.0 * n + 2.0 * alpha + 2.0)
        value, derivative = laguerre_kernel(n, alpha)(x)
        upper = mpmath.laguerre(n, alpha + 1.0, x)
        lower = mpmath.laguerre(n - 1, alpha + 1.0, x)
        terms = abs(upper) + abs(lower)
        value_error = abs(value - mpmath.laguerre(n, alpha, x)) / terms
        derivative_error = abs(derivative + lower) / terms
        worst = max(worst, float(value_error), float(derivative_error))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [10, 100, 500])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 7.0, 40.0, 151.0])
def test_gegenbauer_one_pass_matches_mpmath(n, alpha):
    mpmath.mp.dps = 30
    worst = 0.0
    for x in _GEGENBAUER_POINTS:
        value, derivative = gegenbauer_kernel(n, alpha)(x)
        c_n, c_n1, c_n2 = (mpmath.gegenbauer(m, alpha + 1.0, x) for m in (n, n - 1, n - 2))
        value_terms = alpha / (n + alpha) * (abs(c_n) + abs(c_n2))
        derivative_terms = 2.0 * alpha * (abs(c_n1) + abs(c_n2))
        value_error = abs(value - mpmath.gegenbauer(n, alpha, x)) / value_terms
        derivative_error = abs(derivative - 2.0 * alpha * c_n1) / derivative_terms
        worst = max(worst, float(value_error), float(derivative_error))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "kernel,one_point,args",
    [
        (laguerre_kernel, assoc_laguerre, (37, 151.3)),
        (gegenbauer_kernel, gegenbauer, (37, 3.0)),
    ],
)
def test_one_point_forms_call_the_kernel(kernel, one_point, args):
    # The one-point forms are kept only as names the benchmark times.
    compiled = kernel(*args)
    for x in (-0.6, 0.2, 0.9):
        sample = one_point(*args, x)
        assert type(sample) is tuple
        assert sample == compiled(x)


# Recurrence columns. A degree-n kernel continues the state its parameter's
# live column stored at x when that state's degree is <= n. Every value must be ==
# to a pass from degree 0, whatever order the degrees, parameters and points
# come in. These passes are written out here, in the kernels' operation order.
# `hermite` keeps no column; it runs its pass at every call and must equal it too.


def _hermite_pass(n, _, x):
    prev, cur = 0.0, 1.0
    for k in range(n):
        prev, cur = cur, 2.0 * x * cur - 2.0 * k * prev
    return cur, 2.0 * n * prev


def _laguerre_pass(n, alpha, x):
    a = alpha + 1.0
    prev, cur = 0.0, 1.0
    for k in range(n):
        step = (2.0 * k + 1.0 + a) / (k + 1.0) - 1.0 / (k + 1.0) * x
        prev, cur = cur, step * cur - (k + a) / (k + 1.0) * prev
    return cur - prev, -prev


def _gegenbauer_pass(n, alpha, x):
    g = alpha + 1.0
    before, prev, cur = 0.0, 0.0, 1.0
    for k in range(n):
        step = 2.0 * (k + g) / (k + 1.0)
        before, prev, cur = prev, cur, step * x * cur - (k + 2.0 * g - 1.0) / (k + 1.0) * prev
    return alpha / (n + alpha) * (cur - before), 2.0 * alpha * prev


_COLUMN_FAMILIES = {
    "hermite": (lambda n, _: lambda x: hermite(n, x), _hermite_pass, (None, None),
                (-4.5, -1.25, -0.0, 0.0, 0.3, 2.75, 6.0)),
    "laguerre": (laguerre_kernel, _laguerre_pass, (0.5, 151.3),
                 (-0.0, 0.0, 0.04, 1.5, 17.0, 60.0, 240.0)),
    "gegenbauer": (gegenbauer_kernel, _gegenbauer_pass, (1.0, 4.5),
                   (-0.97, -0.5, -0.0, 0.0, 0.25, 0.8, 1.0)),
}

_ASCENDING = list(range(45))
_ORDERS = {
    "ascending": [(n, 0) for n in _ASCENDING],
    "descending": [(n, 0) for n in reversed(_ASCENDING)],
    "interleaved": [(n, p) for n in _ASCENDING for p in (0, 1)],
    "repeated": [(n, 0) for n in (20, 20, 30, 25, 25, 44, 12, 44, 44)],
}


@pytest.mark.parametrize("order", sorted(_ORDERS))
@pytest.mark.parametrize("family", sorted(_COLUMN_FAMILIES))
def test_kernels_equal_a_pass_from_degree_zero_in_any_order(family, order):
    make, scratch, parameters, points = _COLUMN_FAMILIES[family]
    compiled = []
    for n, pick in _ORDERS[order]:
        parameter = parameters[pick]
        kernel = make(n, parameter)
        compiled.append((kernel, n, parameter))
        for x in points + points[::-1]:
            assert kernel(x) == scratch(n, parameter, x), (n, parameter, x)
    # Kernels stay correct after their column was replaced or moved on.
    for kernel, n, parameter in compiled[::7]:
        for x in points:
            assert kernel(x) == scratch(n, parameter, x), (n, parameter, x)


def test_a_degree_sweep_continues_the_stored_state():
    alpha, x = 2.5, 3.75
    laguerre_kernel(40, 99.0)  # start from another parameter's column
    first = specfun._CONTINUE_FROM_DEGREE
    laguerre_kernel(first, alpha)(x)  # a fresh column's first degree runs from 0
    column = specfun._LIVE["laguerre"][alpha + 1.0]
    assert list(specfun._LIVE["laguerre"]) == [100.0, alpha + 1.0]
    assert x not in column.states
    for n in range(first + 1, first + 30):
        assert laguerre_kernel(n, alpha)(x) == _laguerre_pass(n, alpha, x)
        assert column.states[x][0] == n
    # A lower degree runs from 0 and stores its own state.
    assert laguerre_kernel(first + 5, alpha)(x) == _laguerre_pass(first + 5, alpha, x)
    assert column.states[x][0] == first + 5
    assert len(column.steps) == first + 29
    # A second parameter leaves the column live; a third drops it.
    laguerre_kernel(first + 1, alpha + 1.0)
    assert list(specfun._LIVE["laguerre"].values()) == [column, specfun._LIVE["laguerre"][alpha + 2.0]]
    laguerre_kernel(first + 1, alpha + 2.0)
    assert column not in specfun._LIVE["laguerre"].values()


def test_a_sweep_that_alternates_two_parameters_continues_both():
    # The 1D oscillator's n = 2m + p alternates alpha = -1/2 and +1/2 by parity.
    x = 7.5
    laguerre_kernel(40, 99.0)
    first = specfun._CONTINUE_FROM_DEGREE
    for n in range(2 * first, 2 * first + 40):
        m, p = divmod(n, 2)
        assert laguerre_kernel(m, p - 0.5)(x) == _laguerre_pass(m, p - 0.5, x)
    assert list(specfun._LIVE["laguerre"]) == [0.5, 1.5]
    live = list(specfun._LIVE["laguerre"].values())
    # Both columns served every degree from the first: each holds the state
    # of its last degree, and no other column replaced it on the way.
    assert [column.lowest for column in live] == [first, first]
    assert [column.states[x][0] for column in live] == [first + 19, first + 19]


def test_degrees_below_the_break_even_leave_the_columns_alone():
    laguerre_kernel(30, 7.0)
    live = list(specfun._LIVE["laguerre"].values())
    for n in range(specfun._CONTINUE_FROM_DEGREE):
        laguerre_kernel(n, 0.25)(1.5)
    assert list(specfun._LIVE["laguerre"].values()) == live


@pytest.mark.parametrize("family", ["laguerre", "gegenbauer"])
def test_two_columns_per_family_stay_alive(family):
    make, _, _, points = _COLUMN_FAMILIES[family]
    n = specfun._CONTINUE_FROM_DEGREE
    grid = [points[0] + (points[-1] - points[0]) * k / 30 for k in range(31)]

    def sweep(parameter):
        for degree in (n, n + 1):
            kernel = make(degree, parameter)
            for x in grid:
                kernel(x)

    tracemalloc.start()
    try:
        # Parameters no other test uses, so their columns start empty.
        for k in range(10):
            sweep(1000.25 + 0.5 * k)
        ten_sweeps = tracemalloc.get_traced_memory()[0]
        for k in range(10, 200):
            sweep(1000.25 + 0.5 * k)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [len(column.states) for column in specfun._LIVE[family].values()] == [len(grid)] * 2
    # Each column's state table alone takes about 1 kB here (small tuples and
    # floats may come from free lists that tracemalloc does not see), so
    # keeping the columns of 190 more parameters would add at least 190 kB.
    assert after < 2 * ten_sweeps


def test_a_full_column_drops_its_states(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_STATES", 50)
    first = specfun._CONTINUE_FROM_DEGREE
    points = [0.25 * k for k in range(1, 81)]
    gegenbauer_kernel(first, 7.25)
    kernel = gegenbauer_kernel(first + 1, 7.25)
    for x in points:
        kernel(x)
    states = specfun._LIVE["gegenbauer"][8.25].states
    assert len(states) == 80
    kernel = gegenbauer_kernel(first + 2, 7.25)
    assert len(states) == 0
    for x in points:
        assert kernel(x) == _gegenbauer_pass(first + 2, 7.25, x)
    assert len(states) == 80
