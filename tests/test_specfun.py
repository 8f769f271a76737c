"""Orthogonal polynomials and ln-gamma.

Expected values are either hand-derivable from the low-order closed forms
(H2 = 4x^2 - 2, L1^a = 1 + a - x, C2^a = 2a(1+a)x^2 - a, ...) or pinned
against an independent route (moment expansion, scipy, mpmath, finite
differences).
"""

import gc
import math
import tracemalloc

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from relfisher import specfun
from relfisher._evaluators import _TERMS, momentum_panel, oscillator_panel
from relfisher.quadrature import _GK31, QuadratureSpec, integrate, point_panel
from relfisher.specfun import (
    assoc_laguerre,
    gegenbauer,
    gegenbauer_column,
    gegenbauer_kernel,
    hermite,
    laguerre_column,
    laguerre_kernel,
    ln_gamma,
)
from relfisher.systems import _momentum_terms


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

            result = integrate(point_panel(integrand), spec)
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
            result = integrate(point_panel(lambda y: 2.0 * integrand(y)), spec)
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


# Every kernel runs its pass from degree 0 and touches no column. Every value
# must be == to that pass, whatever order the degrees, parameters and points
# come in. These passes are written out here, in the kernels' operation order.


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


def _gegenbauer_terms(n, alpha, x):
    """C_{n-2}, C_{n-1} and C_n of parameter alpha + 1 at x."""
    g = alpha + 1.0
    before, prev, cur = 0.0, 0.0, 1.0
    for k in range(n):
        step = 2.0 * (k + g) / (k + 1.0)
        before, prev, cur = prev, cur, step * x * cur - (k + 2.0 * g - 1.0) / (k + 1.0) * prev
    return before, prev, cur


def _gegenbauer_pass(n, alpha, x):
    before, prev, cur = _gegenbauer_terms(n, alpha, x)
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
    # Kernels stay correct after other degrees and parameters were bound.
    for kernel, n, parameter in compiled[::7]:
        for x in points:
            assert kernel(x) == scratch(n, parameter, x), (n, parameter, x)


# Laguerre columns hold oracle panels. A degree-n panel on a column that
# served a lower degree looks its panel up, continues each node's stored
# state (degree, prev, cur) when that degree is <= n, and stores the panel
# back. Its sums must be == to those of the same panel without a table, and
# every stored state == to a pass from degree 0 at its node.


def _panel(n, alpha, column=None):
    """The oracle panel of the normalized D = 3 radial oscillator (kappa =
    alpha - 1/2) of degree n, on laguerre_column(n, alpha) or on column."""
    kappa = alpha - 0.5
    ln_norm = 0.5 * (math.log(2.0) + math.lgamma(n + 1.0) - math.lgamma(n + alpha + 1.0))
    column = column or laguerre_column(n, alpha)
    return oscillator_panel(ln_norm, column, kappa=kappa, reference=kappa, radial=True, squared=False)


def _fresh(n, alpha):
    """_panel(n, alpha) without a table: from degree 0 at every node."""
    return _panel(n, alpha, (n, tuple(specfun._laguerre_steps(alpha + 1.0, 0, n)), None))


def _assert_states_are_passes(column, alpha):
    terms = _TERMS.unpack  # prev and cur are stored packed
    for nodes, degrees, prevs, curs in column.states.values():
        for u, k, prev, cur in zip(nodes[0], degrees, terms(prevs), terms(curs)):
            assert (cur - prev, -prev) == _laguerre_pass(k, alpha, u), (k, u)


# Panels (c, h, scale) over s from about 0.1 to 9.
_PANELS = [(0.1 + 0.8 * k / 6, 0.06, 1.0) for k in range(7)]


@pytest.mark.parametrize("order", sorted(_ORDERS))
def test_laguerre_panels_equal_a_pass_from_degree_zero_in_any_order(order):
    parameters = (0.5, 3.5)
    bound = []
    for n, pick in _ORDERS[order]:
        alpha = parameters[pick]
        panel = _panel(n, alpha)
        bound.append((panel, n, alpha))
        for args in _PANELS + _PANELS[::-1]:
            assert panel(*args) == _fresh(n, alpha)(*args), (n, alpha, args)
    for alpha in {parameters[pick] for _, pick in _ORDERS[order]}:
        _assert_states_are_passes(specfun._LIVE["laguerre"][alpha + 1.0], alpha)
    # Panels stay correct after their column was replaced or moved on.
    for panel, n, alpha in bound[::7]:
        for args in _PANELS:
            assert panel(*args) == _fresh(n, alpha)(*args), (n, alpha, args)


def test_a_degree_sweep_continues_the_stored_state():
    alpha, args = 2.5, _PANELS[3]
    laguerre_column(40, 99.0)  # start from another parameter's column
    _panel(3, alpha)(*args)  # a fresh column's first degree runs from 0
    column = specfun._LIVE["laguerre"][alpha + 1.0]
    assert list(specfun._LIVE["laguerre"]) == [100.0, alpha + 1.0]
    assert not column.states
    for n in range(4, 33):
        assert _panel(n, alpha)(*args) == _fresh(n, alpha)(*args)
        ((_, degrees, _, _),) = column.states.values()
        assert set(degrees) == {n}
    # A lower degree runs from 0 and stores its own state.
    assert _panel(8, alpha)(*args) == _fresh(8, alpha)(*args)
    ((_, degrees, _, _),) = column.states.values()
    assert set(degrees) == {8}
    _assert_states_are_passes(column, alpha)
    assert len(column.steps) == 32
    # A second parameter leaves the column live; a third drops it.
    laguerre_column(4, alpha + 1.0)
    assert list(specfun._LIVE["laguerre"].values()) == [column, specfun._LIVE["laguerre"][alpha + 2.0]]
    laguerre_column(4, alpha + 2.0)
    assert column not in specfun._LIVE["laguerre"].values()


def test_a_sweep_that_alternates_two_parameters_continues_both():
    # The 1D oscillator's n = 2m + p alternates alpha = -1/2 and +1/2 by
    # parity; its panel has kappa = p, the reference 0 and no x^2.
    args = _PANELS[2]
    laguerre_column(40, 99.0)
    for n in range(4, 44):
        m, p = divmod(n, 2)
        steps = tuple(specfun._laguerre_steps(p + 0.5, 0, m))
        panel, fresh = (oscillator_panel(-3.0, column, kappa=float(p), reference=0.0, radial=False, squared=False)
                        for column in (laguerre_column(m, p - 0.5), (m, steps, None)))
        assert panel(*args) == fresh(*args), n
    assert list(specfun._LIVE["laguerre"]) == [0.5, 1.5]
    live = list(specfun._LIVE["laguerre"].values())
    # Both columns served every degree from the first: each holds the panel
    # of its last degree, and no other column replaced it on the way.
    assert [column.lowest for column in live] == [2, 2]
    assert [{k for _, degrees, _, _ in column.states.values() for k in degrees} for column in live] == [{21}, {21}]


# Gegenbauer columns hold hydrogen momentum panels. A degree-n panel on a
# column that served a lower degree looks up its entry once; each live node
# continues its state (degree, before, prev, cur) when that degree is <= n,
# and the panel is stored back. Its sums must be == to those of the same
# panel without a table, and every stored state == to a pass from degree 0
# at its node's q.


def _momentum(degree, l, column=None):
    """The oracle panel of the normalized hydrogen momentum state of
    C_degree^(l+1), n = degree + l + 1, on gegenbauer_column or on column."""
    n = degree + l + 1
    ln_norm, overflow = _momentum_terms(n, l, lambda: f"n={n},l={l}")
    panel = momentum_panel(ln_norm, column or gegenbauer_column(degree, l + 1.0), overflow, n, l)
    # At the unit length 1 of y = n p, a node's y, and so its q, is the same at every degree.
    return lambda c, h: panel(c, h, 1.0)


def _momentum_fresh(degree, l):
    """_momentum(degree, l) without a table: from degree 0 at every node."""
    return _momentum(degree, l, (degree, tuple(specfun._gegenbauer_steps(l + 2.0, 0, degree)), None))


def _assert_momentum_states_are_passes(column, l):
    for (c, h, scale), states in column.states.items():
        assert len(states) == len(_GK31)
        for (node, _, _), (k, *terms) in zip(_GK31, states):
            t = c + h * node
            y = scale * t / (1.0 - t)
            q = (y * y - 1.0) * (1.0 / (1.0 + y * y))  # as the panel loop rounds it
            assert tuple(terms) == _gegenbauer_terms(k, l + 1.0, q), (k, q)


# Panels (c, h) over y = n p from about 0.05 to 19.
_MOMENTUM_PANELS = [(0.1 + 0.8 * k / 6, 0.06) for k in range(7)]


@pytest.mark.parametrize("order", sorted(_ORDERS))
def test_momentum_panels_equal_a_pass_from_degree_zero_in_any_order(order):
    ls = (0, 3)
    bound = []
    for degree, pick in _ORDERS[order]:
        l = ls[pick]
        panel = _momentum(degree, l)
        bound.append((panel, degree, l))
        for args in _MOMENTUM_PANELS + _MOMENTUM_PANELS[::-1]:
            assert panel(*args) == _momentum_fresh(degree, l)(*args), (degree, l, args)
    for l in {ls[pick] for _, pick in _ORDERS[order]}:
        _assert_momentum_states_are_passes(specfun._LIVE["gegenbauer"][l + 2.0], l)
    # Panels stay correct after their column was replaced or moved on.
    for panel, degree, l in bound[::7]:
        for args in _MOMENTUM_PANELS:
            assert panel(*args) == _momentum_fresh(degree, l)(*args), (degree, l, args)


def test_a_momentum_sweep_from_degree_zero_continues_from_degree_one(monkeypatch):
    monkeypatch.setattr(specfun, "_LIVE", {})
    l, args = 5, _MOMENTUM_PANELS[3]
    gegenbauer_column(40, 99.0)  # start from another parameter's column
    _momentum(0, l)(*args)  # a fresh column's first degree runs from 0
    column = specfun._LIVE["gegenbauer"][l + 2.0]
    assert list(specfun._LIVE["gegenbauer"]) == [100.0, l + 2.0]
    assert not column.states
    for degree in range(1, 33):
        assert _momentum(degree, l)(*args) == _momentum_fresh(degree, l)(*args)
        (states,) = column.states.values()
        assert {k for k, *_ in states} == {degree}
    # A lower degree runs from 0 and stores its own state.
    assert _momentum(8, l)(*args) == _momentum_fresh(8, l)(*args)
    (states,) = column.states.values()
    assert {k for k, *_ in states} == {8}
    _assert_momentum_states_are_passes(column, l)
    assert column.lowest == 0 and len(column.steps) == 32


def test_no_kernel_touches_a_column():
    laguerre_column(30, 0.25)
    gegenbauer_column(30, 0.25)

    def columns():
        return {
            family: [(parameter, column, column.steps, dict(column.states), column.lowest)
                     for parameter, column in live.items()]
            for family, live in specfun._LIVE.items()
        }

    before = columns()
    # The kernels run from degree 0 at every degree: only the oracle's
    # panels (laguerre_column, gegenbauer_column) keep a column.
    for n in range(61):
        laguerre_kernel(n, 0.25)(1.5)
        gegenbauer_kernel(n, 0.25)(0.5)
    assert columns() == before


@pytest.mark.parametrize("family", ["laguerre", "gegenbauer"])
def test_two_columns_per_family_stay_alive(family):
    # Parameters no other test uses, so their columns start empty.
    n = 10
    if family == "laguerre":
        # Each panel is an entry of the table, about 3.3 kB.
        grid, parameters, entries = _PANELS[:4], [1000.25 + 0.5 * k for k in range(200)], 4

        def sweep(alpha):
            for degree in (n, n + 1):
                panel = _panel(degree, alpha)
                for args in grid:
                    panel(*args)
    else:
        # The panel, near the peak y = 1, is the entry of the table, about 5 kB.
        grid, parameters, entries = [(0.5, 0.01)], range(1000, 1200), 1

        def sweep(l):
            for degree in (n, n + 1):
                panel = _momentum(degree, l)
                for args in grid:
                    panel(*args)

    def traced():
        # A full collection empties the free lists of small tuples and
        # floats, which tracemalloc counts as they fill.
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        for parameter in parameters[:10]:
            sweep(parameter)
        ten_sweeps = traced()
        for parameter in parameters[10:]:
            sweep(parameter)
        after = traced()
    finally:
        tracemalloc.stop()
    assert [len(column.states) for column in specfun._LIVE[family].values()] == [entries] * 2
    # Each column's table alone takes at least 1 kB here, so keeping the
    # columns of 190 more parameters would add at least 190 kB.
    assert after < 2 * ten_sweeps


def test_a_full_column_drops_its_states(monkeypatch):
    # _MAX_STATES counts nodes: a momentum panel, like a Laguerre one, is 31.
    monkeypatch.setattr(specfun, "_MAX_STATES", 50)
    monkeypatch.setattr(specfun, "_LIVE", {})
    l, panels = 6, _MOMENTUM_PANELS[2:5]
    _momentum(10, l)
    panel = _momentum(11, l)
    for args in panels:
        panel(*args)
    states = specfun._LIVE["gegenbauer"][l + 2.0].states
    assert len(states) == 3
    panel = _momentum(12, l)
    assert len(states) == 0
    for args in panels:
        assert panel(*args) == _momentum_fresh(12, l)(*args)
    assert len(states) == 3
    _assert_momentum_states_are_passes(specfun._LIVE["gegenbauer"][l + 2.0], l)


def test_a_full_laguerre_column_drops_its_panels(monkeypatch):
    # A Laguerre panel is 31 nodes, so two of them pass a cap of 50 nodes.
    monkeypatch.setattr(specfun, "_MAX_STATES", 50)
    _panel(4, 6.25)
    panel = _panel(5, 6.25)
    for args in _PANELS[:2]:
        panel(*args)
    states = specfun._LIVE["laguerre"][7.25].states
    assert len(states) == 2
    panel = _panel(6, 6.25)
    assert len(states) == 0
    for args in _PANELS[:2]:
        assert panel(*args) == _fresh(6, 6.25)(*args)
    assert len(states) == 2
