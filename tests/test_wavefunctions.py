"""Wavefunction values, analytic derivatives, normalization, node structure.

Frozen expectations are asserted against the exact expressions they came
from, not retyped decimals, so every number here is independently checkable
in a line or two.
"""

import math
import random

import pytest

from relfisher import quadrature
from relfisher.quadrature import NonConvergedError, QuadratureSpec, integrate
from relfisher.specfun import gegenbauer_kernel
from relfisher.systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    php_derived,
)
from relfisher.wavefunctions import (
    compile_state,
    default_quadrature_spec,
    evaluate,
    natural_scale,
    normalization_defect,
)

H2_PARAMS = Pseudoharmonic(mu=918.5724999, De=0.171535509264, re=1.401413504256)


def test_1d_ground_state_at_special_frequency():
    state = QuantumState(system=Oscillator1D(omega=math.sqrt(2.0)), space=POSITION, n=0)
    value, derivative = compile_state(state)(0.0)
    assert value == pytest.approx((1.0 / math.pi) ** 0.25, rel=1e-14)
    assert derivative == 0.0


def test_1d_ground_state_off_origin():
    # (1/(sqrt(2) pi))^{1/4} e^{-1/(2 sqrt(2))} at omega=1, x=1
    expected = (1.0 / (math.sqrt(2.0) * math.pi)) ** 0.25 * math.exp(-1.0 / (2.0 * math.sqrt(2.0)))
    state = QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=0)
    value, derivative = compile_state(state)(1.0)
    assert value == pytest.approx(expected, rel=1e-13)
    # d/dx of a Gaussian: -c^2 x psi with c^2 = omega/sqrt(2)
    assert derivative == pytest.approx(-expected / math.sqrt(2.0), rel=1e-13)


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_1d_odd_states_vanish_at_origin(omega, space):
    for n in (1, 3, 5):
        state = QuantumState(system=Oscillator1D(omega=omega), space=space, n=n)
        assert compile_state(state)(0.0)[0] == 0.0


def test_1d_parity():
    for n, sign in ((2, 1.0), (3, -1.0)):
        state = QuantumState(system=Oscillator1D(omega=1.3), space=POSITION, n=n)
        wave = compile_state(state)
        left_value, left_derivative = wave(-0.8)
        right_value, right_derivative = wave(0.8)
        assert left_value == pytest.approx(sign * right_value, rel=1e-13)
        assert left_derivative == pytest.approx(-sign * right_derivative, rel=1e-13)


@pytest.mark.parametrize("omega", [1e-160, 1e-3, 0.5, 1.0, 2.0, 1e3, 1e160])
@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
def test_1d_oscillator_is_exactly_parity_symmetric(omega, space):
    # The oracle integrates twice the half line, which is exact only if
    # psi_n(-x) = (-1)^n psi_n(x) holds bit for bit. Degrees ascend, so from
    # degree 10 the Hermite kernels continue the states stored at each point.
    system = Oscillator1D(omega=omega)
    scale = natural_scale(QuantumState(system=system, space=space, n=0))
    points = [scale * u for u in (0.03, 0.4, 1.0, 2.5, 7.0, 13.0, 19.0)]
    checked = []
    for n in range(189):
        try:
            wave = compile_state(QuantumState(system=system, space=space, n=n))
        except ValueError as exc:
            # At extreme scales the 1D guard refuses the top degrees.
            assert "out of the evaluator's range" in str(exc)
            continue
        sign = -1.0 if n % 2 else 1.0
        for x in points:
            value, derivative = wave(x)
            assert wave(-x) == (sign * value, -sign * derivative), (n, x)
        checked.append(n)
    assert checked == list(range(len(checked))) and len(checked) >= 160


def test_3d_oscillator_ground_state_sample():
    state = QuantumState(system=Oscillator3D(omega=1.0), space=POSITION, n_r=0, l=0)
    # sqrt(2/Gamma(3/2)) e^{-r^2/2} at r = 0.5
    expected = math.sqrt(2.0 / math.gamma(1.5)) * math.exp(-0.125)
    value, derivative = compile_state(state)(0.5)
    assert value == pytest.approx(expected, rel=1e-13)
    assert derivative == pytest.approx(-0.5 * expected, rel=1e-13)


def test_hydrogen_1s_is_textbook():
    state = QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=1, l=0)
    value, derivative = compile_state(state)(1.0)
    assert value == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)
    assert derivative == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-13)


def test_hydrogen_2p_momentum_vanishes_at_origin():
    state = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=2, l=1)
    wave = compile_state(state)
    assert abs(wave(1e-12)[0]) < 1e-9
    near = wave(1e-3)[0]
    nearer = wave(5e-4)[0]
    # value scales as p^l with l = 1
    assert near == pytest.approx(2.0 * nearer, rel=1e-4)


def test_radial_rejects_nonpositive_argument():
    state = QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=2, l=0)
    wave = compile_state(state)
    with pytest.raises(ValueError):
        wave(0.0)
    with pytest.raises(ValueError):
        wave(-0.5)


def test_natural_scale_conventions():
    hyd = Hydrogenic(Z=2.0)
    assert natural_scale(QuantumState(system=hyd, space=POSITION, n=4, l=0)) == 2.0
    assert natural_scale(QuantumState(system=hyd, space=MOMENTUM, n=4, l=0)) == 0.5
    osc = Oscillator3D(omega=4.0)
    assert natural_scale(QuantumState(system=osc, space=POSITION, n_r=1, l=0)) == 0.5
    assert natural_scale(QuantumState(system=osc, space=MOMENTUM, n_r=1, l=0)) == 2.0
    php = QuantumState(system=H2_PARAMS, space=POSITION, n_r=0, l=0)
    lam = php_derived(H2_PARAMS, 0).lam
    assert natural_scale(php) == pytest.approx(1.0 / math.sqrt(lam), rel=1e-15)


def test_default_quadrature_spec_domains():
    one_d = QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=0)
    radial = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=2, l=1)
    assert not one_d.system.radial and radial.system.radial
    assert default_quadrature_spec(one_d).scale == natural_scale(one_d)
    assert default_quadrature_spec(radial, rel_tol=1e-8).rel_tol == 1e-8
    assert default_quadrature_spec(radial).scale == natural_scale(radial)


NORMALIZATION_GRID = []
for _omega in (0.5, 2.77):
    NORMALIZATION_GRID += [
        QuantumState(system=Oscillator1D(omega=_omega), space=_space, n=_n)
        for _n in range(9)
        for _space in (POSITION, MOMENTUM)
    ]
NORMALIZATION_GRID += [
    QuantumState(system=Oscillator3D(omega=1.7), space=_space, n_r=_n_r, l=_l)
    for _n_r in range(9)
    for _l in range(5)
    for _space in (POSITION, MOMENTUM)
]
NORMALIZATION_GRID += [
    QuantumState(system=Hydrogenic(Z=1.0), space=_space, n=_n, l=_l)
    for _n in range(1, 9)
    for _l in range(min(_n, 5))
    for _space in (POSITION, MOMENTUM)
]


def test_normalization_grid():
    worst = 0.0
    for state in NORMALIZATION_GRID:
        worst = max(worst, normalization_defect(state))
    assert worst <= 1e-9


@pytest.mark.parametrize(
    "params",
    [
        H2_PARAMS,
        Pseudoharmonic(mu=20953.68, De=0.0908915, re=3.754866), # Cl2 scale
    ],
)
def test_normalization_php(params):
    for n_r in range(9):
        for space in (POSITION, MOMENTUM):
            state = QuantumState(system=params, space=space, n_r=n_r, l=0)
            assert normalization_defect(state) <= 1e-9


def test_normalization_spot_checks():
    assert (
        normalization_defect(QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=1, l=0))
        <= 1e-10
    )
    assert (
        normalization_defect(
            QuantumState(system=Oscillator3D(omega=2.0), space=MOMENTUM, n_r=3, l=2)
        )
        <= 1e-10
    )
    assert (
        normalization_defect(QuantumState(system=H2_PARAMS, space=POSITION, n_r=2, l=0))
        <= 1e-9
    )


def test_normalization_defect_raises_when_its_quadrature_does_not_converge(monkeypatch):
    # Seven panels and no refinement cannot reach a 1e-15 tolerance.
    monkeypatch.setattr(quadrature, "_MAX_REFINEMENTS", 0)
    state = QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=8, l=0)
    spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300, scale=natural_scale(state))
    with pytest.raises(NonConvergedError, match="normalization quadrature did not converge"):
        normalization_defect(state, spec)


FD_STATES = [
    (QuantumState(system=Oscillator1D(omega=1.3), space=POSITION, n=3), 0.3, 2.8),
    (QuantumState(system=Oscillator1D(omega=1.3), space=MOMENTUM, n=3), 0.3, 2.8),
    (QuantumState(system=Oscillator3D(omega=0.8), space=POSITION, n_r=2, l=1), 0.3, 2.8),
    (QuantumState(system=Oscillator3D(omega=0.8), space=MOMENTUM, n_r=2, l=1), 0.3, 2.8),
    (QuantumState(system=Hydrogenic(Z=2.0), space=POSITION, n=4, l=1), 0.3, 2.8),
    (QuantumState(system=Hydrogenic(Z=2.0), space=MOMENTUM, n=4, l=1), 0.3, 2.8),
    # PHP probes sit near the density peak at sqrt(gamma_l/2) scale units
    (QuantumState(system=H2_PARAMS, space=POSITION, n_r=1, l=0), 1.5, 4.5),
    (QuantumState(system=H2_PARAMS, space=MOMENTUM, n_r=1, l=0), 1.5, 4.5),
    (
        QuantumState(
            system=Pseudoharmonic(mu=50.0, De=0.1, re=2.0), space=POSITION, n_r=2, l=1
        ),
        1.0,
        3.5,
    ),
    (
        QuantumState(
            system=Pseudoharmonic(mu=50.0, De=0.1, re=2.0), space=MOMENTUM, n_r=2, l=1
        ),
        1.0,
        3.5,
    ),
]


@pytest.mark.parametrize("state,lo,hi", FD_STATES, ids=lambda v: str(v)[:40])
def test_analytic_derivative_matches_finite_difference(state, lo, hi):
    rng = random.Random(20260819)
    scale = natural_scale(state)
    step = 1e-6 * scale
    wave = compile_state(state)
    for _ in range(20):
        s = scale * (lo + (hi - lo) * rng.random())
        value, derivative = wave(s)
        fd = (wave(s + step)[0] - wave(s - step)[0]) / (2.0 * step)
        denom = max(abs(derivative), abs(value) / scale)
        if denom == 0.0:
            assert fd == 0.0
            continue
        assert abs(derivative - fd) <= 2e-6 * denom


NODE_CASES = [
    (QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=2, l=0), 1),
    (QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=3, l=0), 2),
    (QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=3, l=1), 1),
    (QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=4, l=1), 2),
    (QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=5, l=2), 2),
    (QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=8, l=0), 7),
    (QuantumState(system=Oscillator3D(omega=1.3), space=POSITION, n_r=0, l=0), 0),
    (QuantumState(system=Oscillator3D(omega=1.3), space=POSITION, n_r=1, l=0), 1),
    (QuantumState(system=Oscillator3D(omega=1.3), space=POSITION, n_r=2, l=1), 2),
    (QuantumState(system=Oscillator3D(omega=1.3), space=POSITION, n_r=3, l=2), 3),
    (QuantumState(system=Oscillator3D(omega=1.3), space=POSITION, n_r=5, l=3), 5),
    (QuantumState(system=Oscillator3D(omega=1.3), space=MOMENTUM, n_r=2, l=1), 2),
    (QuantumState(system=H2_PARAMS, space=POSITION, n_r=0, l=0), 0),
    (QuantumState(system=H2_PARAMS, space=POSITION, n_r=2, l=0), 2),
    (QuantumState(system=H2_PARAMS, space=POSITION, n_r=3, l=0), 3),
    (QuantumState(system=H2_PARAMS, space=MOMENTUM, n_r=3, l=0), 3),
]


def _count_sign_changes(state, s_max, points=4000):
    wave = compile_state(state)
    previous = 0.0
    changes = 0
    for k in range(1, points + 1):
        value = wave(s_max * k / points)[0]
        if previous * value < 0.0:
            changes += 1
        if value != 0.0:
            previous = value
    return changes


@pytest.mark.parametrize("state,expected", NODE_CASES, ids=lambda v: str(v)[:40])
def test_interior_node_count(state, expected):
    scale = natural_scale(state)
    if isinstance(state.system, Hydrogenic):
        s_max = scale * (2 * state.n + 10)
    elif isinstance(state.system, Pseudoharmonic) and state.space == MOMENTUM:
        s_max = 16.0 * scale
    else:
        s_max = 12.0 * scale
    assert _count_sign_changes(state, s_max) == expected
    assert state.radial_nodes == expected


@pytest.mark.parametrize("n,l", [(3, 0), (4, 1), (5, 2), (6, 0)])
def test_momentum_odd_moment_vanishes(n, l):
    """The odd-in-q moment of the momentum density weight is exactly zero.

    Mapped to the half line via q = (t^2-1)/(t^2+1), dq = 4t/(t^2+1)^2 dt,
    the integrand is antisymmetric under t -> 1/t.
    """
    degree = n - l - 1
    order = l + 1.0
    power = l + 1.5
    poly_of = gegenbauer_kernel(degree, order)

    def q_of(t):
        return (t * t - 1.0) / (t * t + 1.0)

    def even_part(t):
        q = q_of(t)
        poly = poly_of(q)[0]
        jac = 4.0 * t / ((t * t + 1.0) ** 2)
        return (1.0 - q * q) ** power * poly * poly * jac

    base = integrate(even_part, QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
    assert base.converged and base.value > 0.0

    odd = integrate(
        lambda t: q_of(t) * even_part(t),
        QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12 * base.value),
    )
    assert odd.converged
    assert abs(odd.value) <= 1e-10 * base.value


RADIAL_STATES = [
    QuantumState(system=Oscillator3D(omega=0.8), space=POSITION, n_r=2, l=1),
    QuantumState(system=Oscillator3D(omega=0.8), space=MOMENTUM, n_r=0, l=0),
    QuantumState(system=H2_PARAMS, space=POSITION, n_r=3, l=0),
    QuantumState(system=H2_PARAMS, space=MOMENTUM, n_r=1, l=2),
    QuantumState(system=Hydrogenic(Z=2.0), space=POSITION, n=4, l=1),
    QuantumState(system=Hydrogenic(Z=2.0), space=MOMENTUM, n=4, l=0),
]
ALL_STATES = RADIAL_STATES + [
    QuantumState(system=Oscillator1D(omega=1.3), space=POSITION, n=5),
    QuantumState(system=Oscillator1D(omega=1.3), space=MOMENTUM, n=0),
]


@pytest.mark.parametrize("state", RADIAL_STATES, ids=lambda v: str(v)[:40])
def test_compiled_radial_state_rejects_nonpositive_argument(state):
    wave = compile_state(state)
    for s in (0.0, -0.5):
        with pytest.raises(ValueError):
            wave(s)


@pytest.mark.parametrize("state", ALL_STATES, ids=lambda v: str(v)[:40])
def test_compiled_state_is_exactly_zero_far_in_the_tail(state):
    # the envelope is far below exp(-700) here; the hydrogen momentum
    # density decays only as a power of p, so its tail starts much further out
    power_law = isinstance(state.system, Hydrogenic) and state.space == MOMENTUM
    far = (1e100 if power_law else 1e3) * natural_scale(state)
    assert compile_state(state)(far) == (0.0, 0.0)
    if isinstance(state.system, Oscillator1D):
        assert compile_state(state)(-far) == (0.0, 0.0)


@pytest.mark.parametrize("state", ALL_STATES, ids=lambda v: str(v)[:40])
def test_evaluate_matches_compiled_state_bit_for_bit(state):
    # evaluate is kept only as a name the benchmark hooks.
    wave = compile_state(state)
    scale = natural_scale(state)
    for k in range(1, 40):
        s = 0.2 * k * scale
        sample = evaluate(state, s)
        assert type(sample) is tuple
        assert [x.hex() for x in sample] == [x.hex() for x in wave(s)]
