"""Adaptive Gauss-Kronrod integration over the half line.

The gamma-integral family gives an exact oracle. The rule's table is checked
against exact rational moments and numpy's Gauss-Legendre rule.
"""

import math
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfisher import quadrature
from relfisher.quadrature import (
    _GK31,
    _INITIAL_PANELS,
    IntegrandError,
    QuadratureSpec,
    integrate,
)


def test_unit_exponential():
    result = integrate(lambda u: math.exp(-u))
    assert result.converged
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.error_estimate <= max(1e-10 * abs(result.value), 1e-14)


def test_gamma_five_halves():
    result = integrate(lambda u: u**1.5 * math.exp(-u), QuadratureSpec(scale=2.5))
    assert result.converged
    # Gamma(5/2) = (3/4) sqrt(pi)
    assert result.value == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-11)


def test_weighted_laguerre_square_moment():
    # integral of u^{5/2} e^{-u} [L1^{3/2}(u)]^2 du with L1^{3/2} = 5/2 - u,
    # expanded into moments: Gamma(11/2) - 5 Gamma(9/2) + 6.25 Gamma(7/2)
    expected = math.gamma(5.5) - 5.0 * math.gamma(4.5) + 6.25 * math.gamma(3.5)

    def integrand(u):
        poly = 2.5 - u
        return u**2.5 * math.exp(-u) * poly * poly

    result = integrate(integrand, QuadratureSpec(scale=4.0))
    assert result.converged
    assert result.value == pytest.approx(expected, rel=1e-11)
    assert expected == pytest.approx(14.955079367015301, rel=1e-13)


def test_laguerre_orthonormality_diagonal_cell():
    # integral of u^{3/2} e^{-u} [L1^{3/2}(u)]^2 du = Gamma(7/2) / 1!
    def integrand(u):
        poly = 2.5 - u
        return u**1.5 * math.exp(-u) * poly * poly

    result = integrate(integrand, QuadratureSpec(scale=3.0))
    assert result.converged
    assert result.value == pytest.approx(math.gamma(3.5), rel=1e-11)


@pytest.mark.parametrize("a", [0.5 + k for k in range(26)])
def test_gamma_family(a):
    result = integrate(lambda u: u**a * math.exp(-u), QuadratureSpec(scale=a + 1.0))
    assert result.converged
    assert result.value == pytest.approx(math.gamma(a + 1.0), rel=1e-11)
    assert result.error_estimate <= max(1e-10 * abs(result.value), 1e-14)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.5, 6.0), b=st.floats(0.0, 3.0))
def test_tightening_tolerance_stays_within_error_estimate(a, b):
    def integrand(u):
        return u**a * math.exp(-u) * (1.0 + 0.5 * math.cos(b * u))

    scale = a + 1.0
    coarse = integrate(integrand, QuadratureSpec(rel_tol=1e-8, scale=scale))
    fine = integrate(integrand, QuadratureSpec(rel_tol=1e-9, scale=scale))
    assert coarse.converged and fine.converged
    assert abs(coarse.value - fine.value) <= coarse.error_estimate + 1e-15


def test_non_finite_integrand_reports_offending_node():
    def integrand(s):
        if s > 5.0:
            return float("nan")
        return math.exp(-s)

    with pytest.raises(IntegrandError) as excinfo:
        integrate(integrand)
    message = str(excinfo.value)
    assert "s = " in message
    node = float(message.split("s = ")[1].split(" ")[0])
    assert node > 5.0
    assert isinstance(excinfo.value, ValueError)


def test_non_convergence_is_a_result_not_an_exception(monkeypatch):
    # endpoint singularity u^{-1/2} starves a one-round refinement budget
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 1)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-30)
    result = integrate(lambda u: math.exp(-u) / math.sqrt(u), spec)
    assert not result.converged
    assert result.value == pytest.approx(math.sqrt(math.pi), rel=1e-2)


def test_error_estimate_is_honest_when_not_converged():
    # bisection alone resolves an endpoint singularity slowly; the returned
    # estimate must still bracket the true error
    result = integrate(lambda u: math.exp(-u) / math.sqrt(u))
    assert not result.converged
    assert abs(result.value - math.sqrt(math.pi)) <= result.error_estimate


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureSpec(rel_tol=tol)
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureSpec(abs_tol=tol)
    with pytest.raises(ValueError):
        QuadratureSpec(scale=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(scale=float("inf"))


def test_evaluation_accounting():
    smooth = integrate(lambda u: math.exp(-u))
    assert smooth.evaluations % len(_GK31) == 0
    assert smooth.evaluations >= len(_GK31) * _INITIAL_PANELS

    # a narrow feature must cost more panels than the smooth baseline
    def narrow(u):
        return math.exp(-((u - 4.0) ** 2) * 400.0)

    hard = integrate(narrow, QuadratureSpec(scale=1.0))
    assert hard.converged
    assert hard.value == pytest.approx(math.sqrt(math.pi) / 20.0, rel=1e-9)
    assert hard.evaluations > smooth.evaluations


# The Gauss-Kronrod 15/31 table.

_NODES = [u for u, _, _ in _GK31]
_KRONROD = [wk for _, wk, _ in _GK31]
_GAUSS = [(u, wg) for u, _, wg in _GK31 if wg]


def _rule_error(rows, k):
    """Exact error of a rule of (node, weight) rows on x^k over (-1, 1)."""
    exact = Fraction(2, k + 1) if k % 2 == 0 else Fraction(0)
    return sum(Fraction(w) * Fraction(u) ** k for u, w in rows) - exact


def test_gk31_rule_is_symmetric():
    assert len(_GK31) == 31 and len(_GAUSS) == 15
    assert _NODES[15] == 0.0
    for row, mirror in zip(_GK31, reversed(_GK31)):
        assert row == (-mirror[0], mirror[1], mirror[2])


def test_gk31_kronrod_weights_are_exact_to_degree_46():
    rows = list(zip(_NODES, _KRONROD))
    for k in range(47):
        assert abs(_rule_error(rows, k)) <= 1e-16, k
    # Exactly, the rule's error on x^48 is 5.2e-17, below the rounding of
    # the table. Legendre's P_48 is x^48 times 2.3e13 plus terms of degree
    # <= 46, on which the rule is exact, so its error shows that of x^48.
    p48 = numpy.polynomial.legendre.legval(_NODES, [0] * 48 + [1])
    assert abs(math.fsum(w * p for w, p in zip(_KRONROD, p48))) > 1e-4


def test_gk31_gauss_weights_are_exact_to_degree_29():
    for k in range(30):
        assert abs(_rule_error(_GAUSS, k)) <= 1e-16, k
    assert abs(_rule_error(_GAUSS, 30)) > 1e-10


def test_gk31_gauss_rule_is_numpys_15_point_rule():
    nodes, weights = numpy.polynomial.legendre.leggauss(15)
    for (u, wg), x, w in zip(_GAUSS, nodes, weights):
        assert abs(u - x) <= 1e-15
        assert abs(wg - w) <= 1e-15


def test_gk31_kronrod_nodes_interlace_the_gauss_nodes():
    assert -1.0 < _NODES[0] and _NODES[-1] < 1.0
    assert all(a < b for a, b in zip(_NODES, _NODES[1:]))
    # Kronrod-only nodes (Gauss weight 0) at even positions, Gauss at odd.
    assert [bool(wg) for _, _, wg in _GK31] == [k % 2 == 1 for k in range(31)]
    assert all(wk > 0.0 for wk in _KRONROD)
