"""Wavefunction values, analytic derivatives, normalization, node structure.

Frozen expectations are asserted against the exact expressions they came
from, not retyped decimals, so every number here is independently checkable
in a line or two.
"""

import math
import random

import pytest

import relfisher.systems
from relfisher._record import replace
from relfisher import quadrature
from relfisher.quadrature import NonConvergedError, QuadratureSpec, integrate, point_panel
from relfisher.relative_fisher import numeric_ir
from relfisher.specfun import gegenbauer_kernel
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
from relfisher.wavefunctions import (
    compile_state,
    default_quadrature_spec,
    evaluate,
    normalization_defect,
)

H2_PARAMS = Pseudoharmonic(mu=918.5724999, De=0.171535509264, re=1.401413504256)


def _length(state):
    """A length of the state's own density: the unit length over c."""
    return state.system.layout(state)[1] / state.system.scale(state)


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
    # n = 20 the Laguerre kernels of both parities continue the states
    # stored at each point.
    system = Oscillator1D(omega=omega)
    scale = _length(QuantumState(system=system, space=space, n=0))
    points = [scale * u for u in (0.03, 0.4, 1.0, 2.5, 7.0, 13.0, 19.0, 30.0, 36.0)]
    # The guard admits n <= 651 at every omega: the unit-scale state does
    # not depend on it.
    for n in range(652):
        wave = compile_state(QuantumState(system=system, space=space, n=n))
        sign = -1.0 if n % 2 else 1.0
        for x in points:
            value, derivative = wave(x)
            assert wave(-x) == (sign * value, -sign * derivative), (n, x)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 11, 50, 51, 188, 189, 400, 651])
def test_1d_oscillator_is_the_hermite_function(n):
    # psi_n(x) = sqrt(c) (2^n n! sqrt(pi))^(-1/2) H_n(c x) exp(-(c x)^2/2),
    # with H_n's own sign, although the evaluator goes through L_m^(p-1/2).
    mpmath = pytest.importorskip("mpmath")
    state = QuantumState(system=Oscillator1D(omega=0.7), space=POSITION, n=n)
    wave = compile_state(state)
    c = state.system.scale(state)
    with mpmath.workdps(40):
        norm = mpmath.sqrt(c) / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        for y in (-3.1, -0.2, 0.45, 1.7, 0.9 * math.sqrt(2 * n + 1)):
            x = y / c
            envelope = norm * mpmath.exp(-mpmath.mpf(y) ** 2 / 2)
            hermite, slope = mpmath.hermite(n, y), (2 * n * mpmath.hermite(n - 1, y) if n else 0)
            value, derivative = wave(x)
            # Measured against the size of the terms at x, as near a node
            # the value itself may cancel to nothing.
            size = abs(envelope) * (abs(hermite) + abs(slope) + abs(y * hermite))
            assert abs(value - envelope * hermite) <= 1e-11 * size, (n, y)
            assert abs(derivative - c * envelope * (slope - y * hermite)) <= 1e-11 * c * size, (n, y)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 40, 41, 650, 651])
@pytest.mark.parametrize("omega", [1e-160, 1.0, 1e160])
def test_1d_oscillator_at_the_origin_is_its_limit(n, omega):
    # x = 0 comes from f's leading term, not from the evaluator, which
    # refuses s = 0; it must match the value a hair away.
    state = QuantumState(system=Oscillator1D(omega=omega), space=MOMENTUM, n=n)
    wave = compile_state(state)
    c = state.system.scale(state)
    near = wave(1e-9 / c)
    for x in (0.0, -0.0):
        value, derivative = wave(x)
        if n % 2:
            assert value == 0.0
            assert derivative == pytest.approx(near[1], rel=1e-12)
        else:
            assert derivative == 0.0
            assert value == pytest.approx(near[0], rel=1e-12)


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


@pytest.mark.parametrize("r", [5e-324, 1e-320])
@pytest.mark.parametrize("n,l", [(1, 0), (5, 0), (5, 4), (300, 1)])
def test_hydrogen_position_at_a_subnormal_radius_is_its_limit(n, l, r):
    # 2r/n underflows to 0 here, but s = sqrt(2/n) sqrt(r) does not; the
    # s-state keeps its cusp R(0) = 2 n^(-3/2), dR/dr(0) = -R(0), and the
    # others vanish as r^l.
    value, derivative = compile_state(QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=n, l=l))(r)
    assert math.isfinite(value) and math.isfinite(derivative)
    if l:
        assert value == 0.0
    else:
        assert value == pytest.approx(2.0 * n**-1.5, rel=1e-13)
        assert derivative == pytest.approx(-value, rel=1e-13)


def _slope_at_the_origin(state, mpmath):
    """The exact first derivative at 0 of a state that vanishes there
    linearly, at unit omega or Z."""
    n, n_r = state.n, state.n_r
    if isinstance(state.system, Oscillator1D):
        # psi_n'(0) = c (2^n n! sqrt(pi))^(-1/2) sqrt(c) 2n H_{n-1}(0)
        c = mpmath.mpf(state.system.scale(state))
        norm = mpmath.sqrt(c) / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return c * norm * 2 * n * mpmath.hermite(n - 1, 0)
    if isinstance(state.system, Oscillator3D):
        # A L_{n_r}^(3/2)(0) at l = 1, A = sqrt(2 n_r! / Gamma(n_r + 5/2))
        return mpmath.sqrt(2 * mpmath.factorial(n_r) / mpmath.gamma(n_r + 2.5)) * mpmath.laguerre(n_r, 1.5, 0)
    if state.space == POSITION:
        # (2/n)^(5/2) sqrt((n-2)! / (2n (n+1)!)) L_{n-2}^(3)(0) at l = 1
        return (mpmath.mpf(2) / n) ** 2.5 * mpmath.sqrt(
            mpmath.factorial(n - 2) / (2 * n * mpmath.factorial(n + 1))
        ) * mpmath.laguerre(n - 2, 3, 0)
    # n^2 2^4 sqrt(2/pi (n-2)!/(n+1)!) n C_{n-2}^(2)(-1) at l = 1
    return n**2 * 16 * mpmath.sqrt(
        2 / mpmath.pi * mpmath.factorial(n - 2) / mpmath.factorial(n + 1)
    ) * n * mpmath.gegenbauer(n - 2, 2, -1)


@pytest.mark.parametrize("point", [1e-280, 1e-300, 1e-310, 5e-324])
@pytest.mark.parametrize(
    "state",
    [
        QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=1),
        QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=3),
        QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=651),
        QuantumState(system=Oscillator3D(omega=1.0), space=POSITION, n_r=0, l=1),
        QuantumState(system=Oscillator3D(omega=1.0), space=MOMENTUM, n_r=3, l=1),
        QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=2, l=1),
        QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=300, l=1),
        QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=2, l=1),
        QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=300, l=1),
    ],
    ids=lambda state: f"{state.system.name}-{state.space}-{state.system.label(state.numbers)}",
)
def test_a_slope_at_the_origin_survives_the_cutoff(state, point):
    # These states vanish linearly at 0. Below some point the envelope is
    # under exp(-700) and the value is cut to 0, but the slope is not small.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(_slope_at_the_origin(state, mpmath))
    value, derivative = compile_state(state)(point)
    assert derivative == pytest.approx(exact, rel=1e-11)
    assert abs(value) <= 2.0 * abs(exact) * point
    if isinstance(state.system, Oscillator1D):
        assert derivative == pytest.approx(compile_state(state)(0.0)[1], rel=1e-11)


@pytest.mark.parametrize(
    "n,l", [(n, l) for n in (1, 2, 7, 40, 150, 323) for l in sorted({0, 1, n - 1}) if l < n]
)
def test_hydrogen_position_is_the_laguerre_function(n, l):
    # R(r) = (2Z/n)^(3/2) sqrt((n-l-1)! / (2n (n+l)!)) xi^l e^(-xi/2)
    # L_{n-l-1}^(2l+1)(xi), xi = 2Zr/n, although the evaluator goes through
    # the D = 4 radial oscillator at s = sqrt(xi). The points span the
    # classically allowed band [xi_-, xi_+].
    mpmath = pytest.importorskip("mpmath")
    Z = 1.5
    wave = compile_state(QuantumState(system=Hydrogenic(Z=Z), space=POSITION, n=n, l=l))
    root = 2.0 * math.sqrt(n * n - l * (l + 1))
    inner, outer = 2.0 * n - root, 2.0 * n + root
    with mpmath.workdps(60):
        norm = (2 * mpmath.mpf(Z) / n) ** 1.5 * mpmath.sqrt(
            mpmath.factorial(n - l - 1) / (2 * n * mpmath.factorial(n + l))
        )
        for fraction in (0.001, 0.02, 0.3, 0.55, 0.97):
            xi = inner + fraction * (outer - inner)
            r = xi * n / (2.0 * Z)
            xi = mpmath.mpf(2 * Z) * r / n
            envelope = norm * xi**l * mpmath.exp(-xi / 2)
            laguerre = mpmath.laguerre(n - l - 1, 2 * l + 1, xi)
            slope = -mpmath.laguerre(n - l - 2, 2 * l + 2, xi) if n - l - 1 else 0
            growth = l / xi - mpmath.mpf(1) / 2
            value, derivative = wave(r)
            # Measured against the size of the terms at r, as near a node
            # the value itself may cancel to nothing.
            size = abs(envelope) * (abs(laguerre) + abs(slope) + abs(growth * laguerre))
            assert abs(value - envelope * laguerre) <= 1e-11 * size, (n, l, fraction)
            exact = 2 * Z / n * envelope * (growth * laguerre + slope)
            assert abs(derivative - exact) <= 1e-11 * 2 * Z / n * size, (n, l, fraction)


@pytest.mark.parametrize(
    "n,l", [(n, l) for n in (1, 2, 7, 40, 150, 300) for l in sorted({0, 1, n - 1}) if l < n]
)
def test_hydrogen_momentum_is_the_gegenbauer_function(n, l):
    # Podolsky & Pauling: F(p) = sqrt(2/pi (n-l-1)!/(n+l)!) n^2 2^(2l+2) l!
    # t^l / (1+t^2)^(l+2) C_{n-l-1}^{l+1}(q), t = n p, q = (t^2-1)/(t^2+1),
    # at Z = 1, at points t on both sides of t = 1 and far into both tails.
    mpmath = pytest.importorskip("mpmath")
    state = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=n, l=l)
    wave = compile_state(state)

    def log_derivative(p):
        # The oracle's reference log-derivative, rounded as its panel loop
        # rounds it (tests/test_relative_fisher.py, _reference_log_derivative).
        t = n * p
        return n * (l / t - (2.0 * (l + 2.0) * t) * (1.0 / (1.0 + t * t)))

    k, a = n - l - 1, l + 1
    with mpmath.workdps(60):
        norm = mpmath.sqrt(2 / mpmath.pi * mpmath.factorial(k) / mpmath.factorial(n + l))
        norm *= mpmath.mpf(n) ** 2 * 2 ** (2 * l + 2) * mpmath.factorial(l)

        def reference(p):
            t = n * p
            return t**l / (1 + t * t) ** (l + 2)

        for point in (1e-8, 0.3, 1.0, 1.0000001, 3.0, 1e8):
            p = point / n
            t = n * mpmath.mpf(p)
            envelope = norm * reference(mpmath.mpf(p))
            q = (t * t - 1) / (t * t + 1)
            gegenbauer = mpmath.gegenbauer(k, a, q, zeroprec=400)
            slope = 2 * a * mpmath.gegenbauer(k - 1, a + 1, q, zeroprec=400) if k else 0
            dq_dt = 4 * t / (1 + t * t) ** 2
            growth = l / t - 2 * (l + 2) * t / (1 + t * t)
            value, derivative = wave(p)
            # Measured against the size of the terms at p, as near a node
            # the value itself may cancel to nothing. Below exp(-700) the
            # evaluator may cut a value to 0.
            size = envelope * (abs(gegenbauer) + abs(slope * dq_dt) + abs(growth * gegenbauer))
            cut = envelope < math.exp(-700.0)
            exact = envelope * gegenbauer
            assert abs(value - exact) <= 1e-11 * size or (cut and value == 0.0), (n, l, point)
            exact = n * envelope * (growth * gegenbauer + slope * dq_dt)
            assert abs(derivative - exact) <= 1e-11 * n * size or (cut and derivative == 0.0), (n, l, point)
            exact = mpmath.diff(lambda x: mpmath.log(reference(x)), mpmath.mpf(p))
            terms = n * (l / t + 2 * (l + 2) * t / (1 + t * t))
            assert abs(log_derivative(p) - exact) <= 1e-13 * terms, (n, l, point)
    # Past t ~ 1.3e154, t*t is inf and the state is cut.
    assert wave(1e200) == (0.0, 0.0)


@pytest.mark.parametrize("t,cut", [(0.214, True), (0.22, False)], ids=["slope-at-the-cutoff", "value"])
def test_hydrogen_momentum_is_refused_where_its_gegenbauer_factor_overflows(t, cut):
    # n = 1000, l = 300 compiles, but near t = 0.21 its Gegenbauer factor
    # overflows while the envelope is about exp(-700): at t = 0.214 the
    # value is cut and the kept slope is not finite, at 0.22 the value.
    n, l = 1000, 300
    state = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=n, l=l)
    wave = compile_state(state)
    ln_norm = 0.5 * (math.log(2.0 / math.pi) + math.lgamma(n - l) - math.lgamma(n + l + 1))
    ln_norm += 2.0 * math.log(n) + (2 * l + 2) * math.log(2.0) + math.lgamma(l + 1)
    ln_envelope = ln_norm + l * math.log(t) - (l + 2) * math.log1p(t * t)
    assert (ln_envelope < -700.0) == cut
    assert ln_envelope - math.log(t) > -700.0
    with pytest.raises(RefusedStateError, match=r"^hydrogen momentum n=1000,l=300 of Hydrogenic\(Z=1\.0\) "):
        wave(t / n)


def _no_kernel(n, alpha):
    raise AssertionError(f"a degree-{n} kernel was bound")


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize(
    "system,numbers,label",
    [
        (Oscillator1D(omega=1e-300), {"n": 2**1024}, f"n={2**1024}"),
        (Oscillator3D(omega=1e-300), {"n_r": 2**1023, "l": 0}, f"n_r={2**1023},l=0"),
        (Hydrogenic(Z=1.0), {"n": 2**1023, "l": 0}, f"n={2**1023},l=0"),
        (H2_PARAMS, {"n_r": 2**1023, "l": 0}, f"n_r={2**1023},l=0"),
    ],
    ids=["qho1d", "qho3d", "hydrogen", "php"],
)
def test_a_state_whose_log_gamma_overflows_is_refused(system, numbers, label, space, monkeypatch):
    # math.lgamma raised OverflowError; the refusal must come before a kernel
    # binds its n recurrence steps.
    monkeypatch.setattr(relfisher.systems, "laguerre_kernel", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "laguerre_column", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "gegenbauer_kernel", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "gegenbauer_column", _no_kernel)
    state = QuantumState(system=system, space=space, **numbers)
    message = rf"^{system.name} {space} {label} of .* its log-normalization overflows$"
    with pytest.raises(RefusedStateError, match=message):
        compile_state(state)
    with pytest.raises(RefusedStateError, match=message):
        numeric_ir(state)


@pytest.mark.parametrize("n", [380_108, 10**20])
def test_a_hydrogen_momentum_state_whose_log_gammas_round_too_far_is_refused(n, monkeypatch):
    # ln_gamma(n) - ln_gamma(n + 1) cancels, and from n ~ 3.8e5 at l = 0 the
    # rounding of the two passes _LN_ENV_ROUNDING. The refusal comes before
    # the Gegenbauer kernel binds its n - 1 steps, which at n = 1e20 would
    # grow until memory runs out.
    monkeypatch.setattr(relfisher.systems, "gegenbauer_kernel", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "gegenbauer_column", _no_kernel)
    state = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=n, l=0)
    message = rf"^hydrogen momentum n={n},l=0 of .* its log-normalization terms round to .*, above the budget 1e-09$"
    with pytest.raises(RefusedStateError, match=message):
        compile_state(state)
    with pytest.raises(RefusedStateError, match=message):
        numeric_ir(state)


def test_the_hydrogen_momentum_rounding_budget_admits_the_state_below_its_edge(monkeypatch):
    monkeypatch.setattr(relfisher.systems, "gegenbauer_kernel", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "gegenbauer_column", _no_kernel)
    state = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=380_107, l=0)
    with pytest.raises(AssertionError, match="a degree-380106 kernel was bound"):
        compile_state(state)
    with pytest.raises(AssertionError, match="a degree-380106 kernel was bound"):
        numeric_ir(state)


@pytest.mark.parametrize("space", [POSITION, MOMENTUM])
@pytest.mark.parametrize(
    "system,numbers",
    [
        (Oscillator1D(omega=0.7), [{"n": n} for n in (0, 1, 2, 7)]),
        (Oscillator3D(omega=1.3), [{"n_r": n_r, "l": l} for n_r in (0, 3) for l in (0, 1, 5)]),
        (Hydrogenic(Z=2.0), [{"n": n, "l": l} for n in (1, 2, 6) for l in range(n)]),
        (H2_PARAMS, [{"n_r": n_r, "l": l} for n_r in (0, 3) for l in (0, 1)]),
    ],
    ids=["qho1d", "qho3d", "hydrogen", "php"],
)
def test_every_evaluator_is_zero_at_infinity(system, numbers, space):
    # At kappa > 0 (l > 0 for hydrogen momentum) the log-envelope at inf is
    # inf - inf = nan, which the cutoff must take for a cut.
    points = (math.inf, -math.inf) if isinstance(system, Oscillator1D) else (math.inf,)
    for fields in numbers:
        wave = compile_state(QuantumState(system=system, space=space, **fields))
        for x in points:
            assert wave(x) == (0.0, 0.0), (fields, x)


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


def test_scale_and_quadrature_spec_conventions():
    # scale() is c, layout() gives the unit length after the name, and the
    # quadrature runs at the unit length.
    hyd = Hydrogenic(Z=2.0)
    osc = Oscillator3D(omega=4.0)
    cases = [
        (QuantumState(system=hyd, space=POSITION, n=4, l=0), (2.0, 4.0), 2.0),
        (QuantumState(system=hyd, space=MOMENTUM, n=4, l=0), (0.5, 0.25), 0.5),
        (QuantumState(system=osc, space=POSITION, n_r=1, l=0), (2.0, 1.0), 0.5),
        (QuantumState(system=osc, space=MOMENTUM, n_r=1, l=0), (0.5, 1.0), 2.0),
    ]
    for state, scale, length in cases:
        assert state.system.scale(state) == scale[0]
        assert state.system.layout(state)[1] == scale[1]
        assert _length(state) == length
        assert default_quadrature_spec(state).scale == scale[1]
    # php has the one unit length sqrt(2) in both spaces.
    lam = php_derived(H2_PARAMS, 0).lam
    for space, c in ((POSITION, math.sqrt(2.0 * lam)), (MOMENTUM, math.sqrt(0.5 / lam))):
        php = QuantumState(system=H2_PARAMS, space=space, n_r=0, l=0)
        assert php.system.scale(php) == pytest.approx(c, rel=1e-15)
        assert php.system.layout(php)[1] == math.sqrt(2.0)
        assert default_quadrature_spec(php).scale == math.sqrt(2.0)
    php = QuantumState(system=H2_PARAMS, space=POSITION, n_r=0, l=0)
    assert _length(php) == pytest.approx(1.0 / math.sqrt(lam), rel=1e-15)


def test_default_quadrature_spec_domains():
    one_d = QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=0)
    radial = QuantumState(system=Hydrogenic(Z=1.0), space=MOMENTUM, n=2, l=1)
    assert not one_d.system.radial and radial.system.radial
    assert default_quadrature_spec(one_d).scale == one_d.system.layout(one_d)[1]
    assert default_quadrature_spec(radial, rel_tol=1e-8).rel_tol == 1e-8
    assert default_quadrature_spec(radial).scale == radial.system.layout(radial)[1]


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
    spec = replace(default_quadrature_spec(state), rel_tol=1e-15, abs_tol=1e-300)
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
    scale = _length(state)
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
    scale = _length(state)
    if isinstance(state.system, Hydrogenic):
        s_max = scale * (2 * state.n + 10)
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

    base = integrate(point_panel(even_part), QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14))
    assert base.converged and base.value > 0.0

    odd = integrate(
        point_panel(lambda t: q_of(t) * even_part(t)),
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


# At Z = 1e300 the amplitude Z^(3/2) overflows: inf * 0.0 would be nan.
@pytest.mark.parametrize(
    "state",
    ALL_STATES + [QuantumState(system=Hydrogenic(Z=1e300), space=POSITION, n=2, l=0)],
    ids=lambda v: str(v)[:40],
)
def test_compiled_state_is_exactly_zero_far_in_the_tail(state):
    # the envelope is far below exp(-700) here; the hydrogen momentum
    # density decays only as a power of p, so its tail starts much further out
    power_law = isinstance(state.system, Hydrogenic) and state.space == MOMENTUM
    far = (1e100 if power_law else 1e3) * _length(state)
    assert compile_state(state)(far) == (0.0, 0.0)
    if isinstance(state.system, Oscillator1D):
        assert compile_state(state)(-far) == (0.0, 0.0)


@pytest.mark.parametrize("state", ALL_STATES, ids=lambda v: str(v)[:40])
def test_evaluate_matches_compiled_state_bit_for_bit(state):
    # evaluate is kept only as a name the benchmark hooks.
    wave = compile_state(state)
    scale = _length(state)
    for k in range(1, 40):
        s = 0.2 * k * scale
        sample = evaluate(state, s)
        assert type(sample) is tuple
        assert [x.hex() for x in sample] == [x.hex() for x in wave(s)]
