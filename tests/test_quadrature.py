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
    point_panel,
)


def test_unit_exponential():
    result = integrate(point_panel(lambda u: math.exp(-u)))
    assert result.converged
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.error_estimate <= max(1e-10 * abs(result.value), 1e-14)


def test_gamma_five_halves():
    result = integrate(point_panel(lambda u: u**1.5 * math.exp(-u)), QuadratureSpec(scale=2.5))
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

    result = integrate(point_panel(integrand), QuadratureSpec(scale=4.0))
    assert result.converged
    assert result.value == pytest.approx(expected, rel=1e-11)
    assert expected == pytest.approx(14.955079367015301, rel=1e-13)


def test_laguerre_orthonormality_diagonal_cell():
    # integral of u^{3/2} e^{-u} [L1^{3/2}(u)]^2 du = Gamma(7/2) / 1!
    def integrand(u):
        poly = 2.5 - u
        return u**1.5 * math.exp(-u) * poly * poly

    result = integrate(point_panel(integrand), QuadratureSpec(scale=3.0))
    assert result.converged
    assert result.value == pytest.approx(math.gamma(3.5), rel=1e-11)


@pytest.mark.parametrize("a", [0.5 + k for k in range(26)])
def test_gamma_family(a):
    result = integrate(point_panel(lambda u: u**a * math.exp(-u)), QuadratureSpec(scale=a + 1.0))
    assert result.converged
    assert result.value == pytest.approx(math.gamma(a + 1.0), rel=1e-11)
    assert result.error_estimate <= max(1e-10 * abs(result.value), 1e-14)


@settings(max_examples=30, deadline=None)
@given(a=st.floats(0.5, 6.0), b=st.floats(0.0, 3.0))
def test_tightening_tolerance_stays_within_error_estimate(a, b):
    def integrand(u):
        return u**a * math.exp(-u) * (1.0 + 0.5 * math.cos(b * u))

    scale = a + 1.0
    coarse = integrate(point_panel(integrand), QuadratureSpec(rel_tol=1e-8, scale=scale))
    fine = integrate(point_panel(integrand), QuadratureSpec(rel_tol=1e-9, scale=scale))
    assert coarse.converged and fine.converged
    assert abs(coarse.value - fine.value) <= coarse.error_estimate + 1e-15


def test_non_finite_integrand_reports_offending_node():
    def integrand(s):
        if s > 5.0:
            return float("nan")
        return math.exp(-s)

    with pytest.raises(IntegrandError) as excinfo:
        integrate(point_panel(integrand))
    message = str(excinfo.value)
    assert "s = " in message
    node = float(message.split("s = ")[1].split(" ")[0])
    assert node > 5.0
    assert isinstance(excinfo.value, ValueError)


def test_non_convergence_is_a_result_not_an_exception(monkeypatch):
    # endpoint singularity u^{-1/2} starves a one-round refinement budget
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 1)
    spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-30)
    result = integrate(point_panel(lambda u: math.exp(-u) / math.sqrt(u)), spec)
    assert not result.converged
    assert result.value == pytest.approx(math.sqrt(math.pi), rel=1e-2)


def test_error_estimate_is_honest_when_not_converged():
    # bisection alone resolves an endpoint singularity slowly; the returned
    # estimate must still bracket the true error
    result = integrate(point_panel(lambda u: math.exp(-u) / math.sqrt(u)))
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
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="breaks must be positive and finite"):
            QuadratureSpec(breaks=(1.0, bad))
    assert QuadratureSpec(breaks=[2.0, 1.0]) == QuadratureSpec(breaks=(2.0, 1.0))


def test_breaks_replace_the_uniform_edges():
    # t-images s / (s + 2): 1/2, 3/5 and 3/4. The edges are the ends and
    # the images, as QUADPACK's dqagp takes them; no uniform edge is kept.
    spec = QuadratureSpec(scale=2.0, breaks=(6.0, 2.0, 3.0))
    assert quadrature._initial_edges(spec) == [0.0, 0.5, 0.6, 0.75, 1.0]
    assert quadrature._initial_edges(QuadratureSpec(scale=2.0, breaks=(2.0,))) == [0.0, 0.5, 1.0]
    # Without breaks, or when every image is dropped, the 7 equal edges stay.
    uniform = [k / _INITIAL_PANELS for k in range(_INITIAL_PANELS + 1)]
    assert quadrature._initial_edges(QuadratureSpec(scale=2.0)) == uniform
    assert quadrature._initial_edges(QuadratureSpec(scale=2.0, breaks=(1e300, 1e-320))) == uniform
    result = integrate(point_panel(lambda u: math.exp(-u)), spec)
    assert result.converged
    assert result.value == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e10])
def test_a_break_whose_image_rounds_to_an_end_or_repeats_an_edge_is_dropped(scale):
    # 1e300 maps to t = 1.0, 2^52 scale to 1 - 2^-52, whose panel against
    # t = 1 has its nodes at 1.0, and 1e-320 below the smallest normal
    # double (to t = 0.0 at scale 1e10).
    spec = QuadratureSpec(scale=scale, breaks=(1e300, 2.0**52 * scale, 1e-320, scale, scale, 3.0 * scale))
    edges = quadrature._initial_edges(spec)
    assert edges[0] == 0.0 and edges[-1] == 1.0
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert all(t == 0.5 or t == 0.75 or t * _INITIAL_PANELS == round(t * _INITIAL_PANELS) for t in edges)
    seen = []

    def f(u):
        assert 0.0 < u < math.inf
        seen.append(u)
        return math.exp(-u / scale) / scale

    result = integrate(point_panel(f), spec)
    assert result.converged
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert len(seen) == result.evaluations


def test_evaluation_accounting():
    smooth = integrate(point_panel(lambda u: math.exp(-u)))
    assert smooth.evaluations % len(_GK31) == 0
    assert smooth.evaluations >= len(_GK31) * _INITIAL_PANELS

    # a narrow feature must cost more panels than the smooth baseline
    def narrow(u):
        return math.exp(-((u - 4.0) ** 2) * 400.0)

    hard = integrate(point_panel(narrow), QuadratureSpec(scale=1.0))
    assert hard.converged
    assert hard.value == pytest.approx(math.sqrt(math.pi) / 20.0, rel=1e-9)
    assert hard.evaluations > smooth.evaluations


def test_a_converged_result_stopped_at_its_tolerance():
    result = integrate(point_panel(lambda u: math.exp(-u)))
    assert result.converged
    assert (result.panels, result.stop_reason) == (_INITIAL_PANELS, "tol")


def test_an_endpoint_singularity_uses_every_round_of_refinement():
    # Each round bisects only the panels next to u = 0.
    result = integrate(point_panel(lambda u: math.exp(-u) / math.sqrt(u)))
    assert not result.converged
    assert result.stop_reason == "max_refinements"
    assert _INITIAL_PANELS < result.panels < quadrature._MAX_PANELS


def test_an_integrand_rough_everywhere_stops_at_the_panel_cap():
    result = integrate(point_panel(lambda u: math.exp(-u) * abs(math.sin(1e4 * u))))
    assert not result.converged
    assert (result.panels, result.stop_reason) == (quadrature._MAX_PANELS, "panel_cap")
    assert result.evaluations == 619_783


def test_overflowing_weighted_samples_and_panel_sums_raise():
    # Every sample of f is finite, but the weighted samples overflow near
    # t = 1, and on the first panel already the sums do.
    with pytest.raises(IntegrandError):
        integrate(point_panel(lambda u: 1e308))
    # A weighted sample that overflows is named by its node, with f's value.
    with pytest.raises(IntegrandError) as excinfo:
        integrate(point_panel(lambda u: 1e300), QuadratureSpec(scale=1e10))
    message = str(excinfo.value)
    assert message.startswith("integrand returned 1e+300 at s = ")
    assert message.endswith("weighted inf")
    # Every weighted sample is 1.7e308 or below, but a panel's Kronrod sum,
    # about twice that, overflows: the panel is named.
    with pytest.raises(IntegrandError, match=r"sums overflow on the panel t = \[0\.0, 0\.14285714285714285\]"):
        integrate(point_panel(lambda s: 1.7e308 / (1.0 + s) ** 2))


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
