"""Parameter records, quantum-number validation, and derived quantities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfisher.data_units import find_molecule, to_atomic_units
from relfisher.systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    hydrogen_energy,
    php_derived,
    reference_state,
)


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
