"""Parameter records, quantum-number validation, and derived quantities."""

import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfisher.data_units import find_molecule, to_atomic_units
from relfisher.relative_fisher import closed_form_ir
from relfisher.systems import (
    FAMILIES,
    MOMENTUM,
    POSITION,
    SPACES,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    hydrogen_energy,
    php_derived,
    reference_state,
)
from relfisher.wavefunctions import compile_state, default_quadrature_spec


@pytest.mark.parametrize("omega", [0.0, -1.0, float("nan"), float("inf"), True])
def test_oscillator_rejects_bad_frequency(omega):
    with pytest.raises(ValueError):
        Oscillator1D(omega=omega)
    with pytest.raises(ValueError):
        Oscillator3D(omega=omega)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Hydrogenic(Z=0.0)
    with pytest.raises(ValueError):
        Pseudoharmonic(mu=0.5, De=0.0, re=1.0)
    with pytest.raises(ValueError):
        Pseudoharmonic(mu=-0.5, De=0.25, re=1.0)
    with pytest.raises(ValueError):
        Pseudoharmonic(mu=0.5, De=0.25, re=float("nan"))


def test_state_field_requirements():
    osc1 = Oscillator1D(omega=1.0)
    osc3 = Oscillator3D(omega=1.0)
    hyd = Hydrogenic(Z=1.0)

    QuantumState(system=osc1, space=POSITION, n=2)
    with pytest.raises(ValueError):
        QuantumState(system=osc1, space=POSITION, n=2, l=0)
    with pytest.raises(ValueError):
        QuantumState(system=osc1, space=POSITION)
    with pytest.raises(ValueError):
        QuantumState(system=osc1, space=POSITION, n=-1)
    with pytest.raises(ValueError, match="n must be an integer, got 1.5"):
        QuantumState(system=osc1, space=POSITION, n=1.5)

    QuantumState(system=osc3, space=MOMENTUM, n_r=0, l=3)
    with pytest.raises(ValueError):
        QuantumState(system=osc3, space=MOMENTUM, n=1)
    with pytest.raises(ValueError):
        QuantumState(system=osc3, space=MOMENTUM, n_r=1)

    QuantumState(system=hyd, space=POSITION, n=3, l=2)
    with pytest.raises(ValueError):
        QuantumState(system=hyd, space=POSITION, n=0, l=0)
    with pytest.raises(ValueError):
        QuantumState(system=hyd, space=POSITION, n=3, l=3)
    with pytest.raises(ValueError):
        QuantumState(system=hyd, space=POSITION, n=3)

    with pytest.raises(ValueError):
        QuantumState(system=osc1, space="x", n=2)


def test_radial_nodes():
    assert QuantumState(system=Oscillator1D(omega=1.0), space=POSITION, n=4).radial_nodes == 4
    assert (
        QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=5, l=2).radial_nodes == 2
    )
    assert (
        QuantumState(system=Oscillator3D(omega=1.0), space=MOMENTUM, n_r=4, l=1).radial_nodes
        == 4
    )


def test_reference_state_examples():
    hyd = QuantumState(system=Hydrogenic(Z=1.0), space=POSITION, n=5, l=2)
    ref = reference_state(hyd)
    assert (ref.n, ref.l) == (3, 2)
    assert ref.system == hyd.system and ref.space == hyd.space

    osc3 = QuantumState(system=Oscillator3D(omega=2.0), space=MOMENTUM, n_r=4, l=1)
    ref3 = reference_state(osc3)
    assert (ref3.n_r, ref3.l) == (0, 1)

    osc1 = QuantumState(system=Oscillator1D(omega=0.5), space=POSITION, n=7)
    assert reference_state(osc1).n == 0


def _any_state():
    osc1 = st.builds(
        lambda n, omega, space: QuantumState(system=Oscillator1D(omega=omega), space=space, n=n),
        st.integers(0, 12),
        st.floats(0.1, 10.0),
        st.sampled_from((POSITION, MOMENTUM)),
    )
    osc3 = st.builds(
        lambda n_r, l, omega, space: QuantumState(
            system=Oscillator3D(omega=omega), space=space, n_r=n_r, l=l
        ),
        st.integers(0, 8),
        st.integers(0, 6),
        st.floats(0.1, 10.0),
        st.sampled_from((POSITION, MOMENTUM)),
    )
    hyd = st.builds(
        lambda n, l_pick, Z, space: QuantumState(
            system=Hydrogenic(Z=Z), space=space, n=n, l=l_pick % n
        ),
        st.integers(1, 12),
        st.integers(0, 100),
        st.floats(0.5, 5.0),
        st.sampled_from((POSITION, MOMENTUM)),
    )
    php = st.builds(
        lambda n_r, l, space: QuantumState(
            system=Pseudoharmonic(mu=918.0, De=0.17, re=1.4), space=space, n_r=n_r, l=l
        ),
        st.integers(0, 8),
        st.integers(0, 4),
        st.sampled_from((POSITION, MOMENTUM)),
    )
    return st.one_of(osc1, osc3, hyd, php)


@settings(max_examples=120, deadline=None)
@given(state=_any_state())
def test_reference_state_is_idempotent_and_nodeless(state):
    ref = reference_state(state)
    assert reference_state(ref) == ref
    assert ref.radial_nodes == 0
    assert (state == reference_state(state)) == (state.radial_nodes == 0)
    assert ref.space == state.space
    assert ref.system == state.system


# One excited state per family: (parameters, quantum numbers).
_EXCITED = {
    Oscillator1D: (Oscillator1D(omega=1.3), {"n": 2}),
    Oscillator3D: (Oscillator3D(omega=0.8), {"n_r": 2, "l": 1}),
    Hydrogenic: (Hydrogenic(Z=2.0), {"n": 4, "l": 1}),
    Pseudoharmonic: (Pseudoharmonic(mu=918.0, De=0.17, re=1.4), {"n_r": 2, "l": 1}),
}


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.name)
def test_family_conformance(family, space):
    params, numbers = _EXCITED[family]
    assert tuple(numbers) == family.number_fields
    state = QuantumState(system=params, space=space, **numbers)
    assert state.system.label(state.numbers) == ",".join(f"{k}={v}" for k, v in numbers.items())
    assert state.radial_nodes == 2

    ref = reference_state(state)
    assert reference_state(ref) == ref
    assert ref.radial_nodes == 0
    assert ref.l == state.l
    assert closed_form_ir(ref) == 0.0
    assert closed_form_ir(state) > 0.0

    name, length, breaks = state.system.layout(state)
    c = state.system.scale(state)
    assert type(c) is float and type(length) is float
    scale = length / c
    assert math.isfinite(scale) and scale > 0.0
    spec = default_quadrature_spec(state)
    assert (spec.scale, spec.breaks) == (length, breaks)
    # The name keys the unit-integral store, and f does not depend on the
    # space except for hydrogen.
    hash(name)
    other = QuantumState(system=params, space=MOMENTUM if space == POSITION else POSITION, **numbers)
    assert (other.system.layout(other)[0] == name) == (family is not Hydrogenic)
    assert family.radial == (family is not Oscillator1D)
    value, derivative = compile_state(state)(scale)
    assert math.isfinite(value) and math.isfinite(derivative) and value != 0.0


def _one_by_one(system, spaces, ranges):
    """The grid as QuantumState(...) builds it, one state at a time: the
    states, or the message of the first state it refuses. A refusal of
    l > n-1 is skipped, as a hydrogen grid skips that part of its l range."""
    fields = system.number_fields
    states = []
    for combo in itertools.product(*(ranges[field] for field in fields)):
        for space in spaces:
            try:
                states.append(QuantumState(system, space, **dict(zip(fields, combo))))
            except ValueError as exc:
                if not str(exc).startswith("l must satisfy l <= n-1"):
                    return None, str(exc)
    return states, None


@st.composite
def _grids(draw):
    system = draw(st.sampled_from([params for params, _ in _EXCITED.values()]))
    spaces = draw(st.sampled_from([(POSITION,), (MOMENTUM,), SPACES, SPACES[::-1]]))
    ranges = {}
    for field in system.number_fields:
        start = draw(st.integers(-3, 6), label=field)
        ranges[field] = range(start, start + draw(st.integers(0, 5)))
    return system, spaces, ranges


@settings(max_examples=150, deadline=None)
@given(grid=_grids())
def test_grid_builds_the_quantum_states_after_checking_the_grid_once(grid):
    system, spaces, ranges = grid
    expected, error = _one_by_one(system, spaces, ranges)
    if error is not None:
        # The call raises, before any state is asked for.
        with pytest.raises(ValueError) as refused:
            system.grid(spaces, **ranges)
        assert str(refused.value) == error
        return
    states = list(system.grid(iter(spaces), **ranges))
    assert states == expected
    assert [hash(state) for state in states] == [hash(state) for state in expected]


def test_a_hydrogen_grid_takes_quantum_numbers_past_the_largest_range_length():
    # len() of a range stops at sys.maxsize, 2**63 - 1 on 64-bit builds, and
    # this l range is longer at each n.
    big = 2**63
    states = Hydrogenic(Z=1.0).grid([POSITION], n=range(big, big + 2), l=range(0, 2 * big))
    assert [(state.n, state.l) for state in itertools.islice(states, 3)] == [(big, 0), (big, 1), (big, 2)]


def test_grid_refuses_ranges_it_cannot_check_by_their_corner():
    with pytest.raises(ValueError, match="takes ranges for exactly n, l"):
        Hydrogenic(Z=1.0).grid(SPACES, n=range(1, 3))
    with pytest.raises(ValueError, match="takes ranges for exactly n_r, l"):
        Oscillator3D(omega=1.0).grid(SPACES, n=range(3), l=range(2))
    with pytest.raises(ValueError, match="must ascend"):
        Oscillator1D(omega=1.0).grid(SPACES, n=range(3, -2, -1))


def test_state_rejects_an_unknown_system():
    with pytest.raises(ValueError, match="unknown system parameters"):
        QuantumState(system=SimpleNamespace(omega=1.0), space=POSITION, n=1)


def test_php_derived_hand_example():
    derived = php_derived(Pseudoharmonic(mu=0.5, De=0.25, re=2.0), 0)
    # gamma_0 = (sqrt(5) - 1)/2, lambda = sqrt(0.5*0.5*0.25)/2 = 0.125
    assert derived.gamma_l == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    assert derived.lam == 0.125


def test_php_derived_h2_golden():
    params = to_atomic_units(find_molecule("H2"))
    derived = php_derived(params, 0)
    assert derived.gamma_l == pytest.approx(24.382999401686426, rel=1e-14)
    assert derived.lam == pytest.approx(6.33362639571438, rel=1e-14)


def test_php_gamma_approaches_l_for_weak_binding():
    params = Pseudoharmonic(mu=1e-12, De=1e-12, re=1e-3)
    for l in range(6):
        assert abs(php_derived(params, l).gamma_l - l) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(0.1, 2000.0),
    de=st.floats(0.01, 1.0),
    re=st.floats(0.5, 6.0),
    l=st.integers(0, 10),
)
def test_php_gamma_strictly_increasing_in_l(mu, de, re, l):
    params = Pseudoharmonic(mu=mu, De=de, re=re)
    assert php_derived(params, l + 1).gamma_l > php_derived(params, l).gamma_l
    assert php_derived(params, l).gamma_l >= l
    assert php_derived(params, l).lam > 0.0


def test_hydrogen_energy():
    assert hydrogen_energy(1.0, 1) == -0.5
    assert hydrogen_energy(2.0, 2) == -0.5
    assert hydrogen_energy(1.0, 10) == -0.005
    with pytest.raises(ValueError):
        hydrogen_energy(1.0, 0)
    with pytest.raises(ValueError):
        hydrogen_energy(-1.0, 2)
