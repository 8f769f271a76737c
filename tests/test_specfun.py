"""Orthogonal polynomials and ln-gamma.

Expected values are either hand-derivable from the low-order closed forms
(H2 = 4x^2 - 2, L1^a = 1 + a - x, C2^a = 2a(1+a)x^2 - a, ...) or pinned
against an independent route (moment expansion, scipy, mpmath, finite
differences).
"""

import math

import mpmath
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from relfisher.quadrature import FULL_LINE, QuadratureSpec, integrate
from relfisher.specfun import (
    assoc_laguerre,
    gegenbauer,
    gegenbauer_kernel,
    hermite,
    hermite_kernel,
    laguerre_kernel,
    ln_gamma,
)


def test_hermite_low_orders():
    assert hermite(0, 0.7).value == 1.0
    assert hermite(0, 0.7).derivative == 0.0
    assert hermite(1, 1.0).value == 2.0
    assert hermite(1, 1.0).derivative == 2.0
    # H2 = 4x^2 - 2, H2' = 8x
    assert hermite(2, 0.3).value == pytest.approx(-1.64, rel=1e-15)
    assert hermite(2, 0.3).derivative == pytest.approx(2.4, rel=1e-15)
    # H3 = 8x^3 - 12x, H3' = 24x^2 - 12
    assert hermite(3, 0.5).value == pytest.approx(-5.0, rel=1e-15)
    assert hermite(3, 0.5).derivative == pytest.approx(-6.0, rel=1e-15)


def test_laguerre_low_orders():
    assert assoc_laguerre(0, 1.5, 3.2).value == 1.0
    assert assoc_laguerre(0, 1.5, 3.2).derivative == 0.0
    # L1^a = 1 + a - x
    assert assoc_laguerre(1, 0.5, 2.0).value == pytest.approx(-0.5, rel=1e-15)
    assert assoc_laguerre(1, 0.5, 2.0).derivative == pytest.approx(-1.0, rel=1e-15)
    # L2^a = x^2/2 - (a+2)x + (a+1)(a+2)/2; at a=0.5, x=1: 0.5 - 2.5 + 1.875
    assert assoc_laguerre(2, 0.5, 1.0).value == pytest.approx(-0.125, rel=1e-15)
    assert assoc_laguerre(2, 0.5, 1.0).derivative == pytest.approx(-1.5, rel=1e-15)


def test_gegenbauer_low_orders():
    assert gegenbauer(0, 2.0, 0.3).value == 1.0
    assert gegenbauer(0, 2.0, 0.3).derivative == 0.0
    # C1^a = 2ax
    assert gegenbauer(1, 2.0, 0.3).value == pytest.approx(1.2, rel=1e-15)
    assert gegenbauer(1, 2.0, 0.3).derivative == pytest.approx(4.0, rel=1e-15)
    # C2^a = 2a(1+a)x^2 - a; at a=1.5, x=-0.5: 1.875 - 1.5
    assert gegenbauer(2, 1.5, -0.5).value == pytest.approx(0.375, rel=1e-15)
    # (C2^a)' = 4a(1+a)x
    assert gegenbauer(2, 1.5, -0.5).derivative == pytest.approx(-7.5, rel=1e-15)


@pytest.mark.parametrize("x", [-1.8, 0.0, 0.4, 2.6])
def test_degree_zero_derivative_is_exactly_zero(x):
    assert hermite(0, x).derivative == 0.0
    assert assoc_laguerre(0, 1.5, abs(x)).derivative == 0.0
    assert gegenbauer(0, 1.0, max(min(x, 0.9), -0.9)).derivative == 0.0


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
        hermite(-1, 0.0)
    with pytest.raises(ValueError):
        hermite(True, 0.0)
    with pytest.raises(ValueError):
        assoc_laguerre(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        gegenbauer(2, 0.0, 0.3)


def _finite_difference(evaluate, x, h):
    return (evaluate(x + h).value - evaluate(x - h).value) / (2.0 * h)


def _assert_derivative_matches(sample, fd):
    scale = max(abs(sample.derivative), abs(sample.value), 1.0)
    assert abs(sample.derivative - fd) <= 1e-6 * scale


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), x=st.floats(-3.0, 3.0))
def test_hermite_derivative_matches_finite_difference(n, x):
    fd = _finite_difference(lambda u: hermite(n, u), x, 1e-6)
    _assert_derivative_matches(hermite(n, x), fd)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), alpha=st.floats(0.5, 40.0), x=st.floats(0.01, 60.0))
def test_laguerre_derivative_matches_finite_difference(n, alpha, x):
    fd = _finite_difference(lambda u: assoc_laguerre(n, alpha, u), x, 1e-6)
    _assert_derivative_matches(assoc_laguerre(n, alpha, x), fd)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), alpha=st.floats(0.25, 30.0), x=st.floats(-0.95, 0.95))
def test_gegenbauer_derivative_matches_finite_difference(n, alpha, x):
    fd = _finite_difference(lambda u: gegenbauer(n, alpha, u), x, 1e-6)
    _assert_derivative_matches(gegenbauer(n, alpha, x), fd)


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

            def integrand(u):
                return (
                    u**alpha
                    * math.exp(-u)
                    * assoc_laguerre(i, alpha, u).value
                    * assoc_laguerre(j, alpha, u).value
                )

            result = integrate(integrand, spec)
            assert result.converged
            if i == j:
                assert result.value == pytest.approx(norm(i), rel=1e-9)
            else:
                assert abs(result.value) <= 1e-9 * pair_scale


def test_hermite_orthogonality_by_quadrature():
    def norm(m):
        return math.exp(m * math.log(2.0) + ln_gamma(m + 1.0) + 0.5 * math.log(math.pi))

    for m in range(9):
        for k in range(m, 9):
            pair_scale = math.sqrt(norm(m) * norm(k))
            spec = QuadratureSpec(
                domain=FULL_LINE,
                rel_tol=1e-12,
                abs_tol=1e-11 * pair_scale,
                scale=math.sqrt(m + k + 1.0),
            )

            def integrand(y):
                return math.exp(-y * y) * hermite(m, y).value * hermite(k, y).value

            result = integrate(integrand, spec)
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
        sample = assoc_laguerre(n, alpha, x)
        upper = mpmath.laguerre(n, alpha + 1.0, x)
        lower = mpmath.laguerre(n - 1, alpha + 1.0, x)
        terms = abs(upper) + abs(lower)
        value_error = abs(sample.value - mpmath.laguerre(n, alpha, x)) / terms
        derivative_error = abs(sample.derivative + lower) / terms
        worst = max(worst, float(value_error), float(derivative_error))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [10, 100, 500])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 7.0, 40.0, 151.0])
def test_gegenbauer_one_pass_matches_mpmath(n, alpha):
    mpmath.mp.dps = 30
    worst = 0.0
    for x in _GEGENBAUER_POINTS:
        sample = gegenbauer(n, alpha, x)
        c_n, c_n1, c_n2 = (mpmath.gegenbauer(m, alpha + 1.0, x) for m in (n, n - 1, n - 2))
        value_terms = alpha / (n + alpha) * (abs(c_n) + abs(c_n2))
        derivative_terms = 2.0 * alpha * (abs(c_n1) + abs(c_n2))
        value_error = abs(sample.value - mpmath.gegenbauer(n, alpha, x)) / value_terms
        derivative_error = abs(sample.derivative - 2.0 * alpha * c_n1) / derivative_terms
        worst = max(worst, float(value_error), float(derivative_error))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "kernel,one_point,args",
    [
        (hermite_kernel, hermite, (37,)),
        (laguerre_kernel, assoc_laguerre, (37, 151.3)),
        (gegenbauer_kernel, gegenbauer, (37, 3.0)),
    ],
)
def test_one_point_forms_call_the_kernel(kernel, one_point, args):
    compiled = kernel(*args)
    for x in (-0.6, 0.2, 0.9):
        sample = one_point(*args, x)
        assert (sample.value, sample.derivative) == compiled(x)
