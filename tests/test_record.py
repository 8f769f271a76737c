"""The frozen value records: construction, ==, hash, repr, immutability,
replace; and what importing the CLI loads."""

import os
import subprocess
import sys

import pytest

import relfisher
from relfisher._record import record, replace
from relfisher.data_units import ConversionConstants, MoleculeRecord
from relfisher.quadrature import QuadratureResult, QuadratureSpec
from relfisher.relative_fisher import IRResult
from relfisher.systems import (
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    PhpDerived,
    Pseudoharmonic,
    QuantumState,
)

_RESULT = QuadratureResult(
    value=0.5, error_estimate=2e-12, evaluations=31, converged=True, panels=1, stop_reason="tol"
)

# Each value type: a function making one, the repr a frozen dataclass wrote
# for it, one field with another valid value, and a change its own checks
# refuse (None for a type without checks).
_TYPES = {
    "Oscillator1D": (
        lambda: Oscillator1D(omega=1.0), "Oscillator1D(omega=1.0)", {"omega": 2.0}, {"omega": -1.0},
    ),
    "Oscillator3D": (
        lambda: Oscillator3D(omega=0.5), "Oscillator3D(omega=0.5)", {"omega": 2.0}, {"omega": 0.0},
    ),
    "Hydrogenic": (lambda: Hydrogenic(Z=2.0), "Hydrogenic(Z=2.0)", {"Z": 1.0}, {"Z": float("inf")}),
    "Pseudoharmonic": (
        lambda: Pseudoharmonic(mu=1.0, De=2.0, re=3.0),
        "Pseudoharmonic(mu=1.0, De=2.0, re=3.0)",
        {"re": 4.0},
        {"mu": -1.0},
    ),
    "PhpDerived": (
        lambda: PhpDerived(gamma_l=1.5, lam=0.25), "PhpDerived(gamma_l=1.5, lam=0.25)", {"lam": 0.5}, None,
    ),
    "QuantumState": (
        lambda: QuantumState(Hydrogenic(Z=1.0), "position", n=2, l=0),
        "QuantumState(system=Hydrogenic(Z=1.0), space='position', n=2, l=0, n_r=None)",
        {"space": "momentum"},
        {"l": 5},
    ),
    "QuadratureSpec": (
        lambda: QuadratureSpec(scale=2.0, breaks=[1.5, 3.0]),
        "QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, scale=2.0, breaks=(1.5, 3.0))",
        {"rel_tol": 1e-12},
        {"scale": 0.0},
    ),
    "QuadratureResult": (
        lambda: QuadratureResult(0.5, 2e-12, 31, True, 1, "tol"),
        "QuadratureResult(value=0.5, error_estimate=2e-12, evaluations=31, converged=True, panels=1, "
        "stop_reason='tol')",
        {"converged": False},
        None,
    ),
    "IRResult": (
        lambda: IRResult(closed_form=1.0, numeric=1.0000000001, abs_diff=1e-10, rel_diff=1e-10, quadrature=_RESULT),
        "IRResult(closed_form=1.0, numeric=1.0000000001, abs_diff=1e-10, rel_diff=1e-10, "
        "quadrature=QuadratureResult(value=0.5, error_estimate=2e-12, evaluations=31, converged=True, "
        "panels=1, stop_reason='tol'))",
        {"numeric": 1.0},
        None,
    ),
    "MoleculeRecord": (
        lambda: MoleculeRecord("H2", "X ¹Σ_g⁺", 0.50391, 4.7446, 0.7416, "oyewumi2012"),
        "MoleculeRecord(name='H2', state_label='X ¹Σ_g⁺', mu_amu=0.50391, de_ev=4.7446, re_angstrom=0.7416, "
        "source='oyewumi2012')",
        {"source": "cli"},
        {"mu_amu": 0.0},
    ),
    "ConversionConstants": (
        lambda: ConversionConstants(amu_to_au=1822.89, ev_to_au=0.03615384, angstrom_to_au=1.88971616),
        "ConversionConstants(amu_to_au=1822.89, ev_to_au=0.03615384, angstrom_to_au=1.88971616)",
        {"ev_to_au": 0.036749322176},
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(_TYPES))
def test_a_value_type_is_a_frozen_record(name):
    make, text, change, _ = _TYPES[name]
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == text
    # == and hash by class and fields.
    twin = make()
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1
    other = replace(value, **change)
    assert other != value
    assert type(other) is type(value)
    assert replace(other, **{field: getattr(value, field) for field in change}) == value
    assert value != tuple(getattr(value, field) for field in type(value)._fields)
    # Immutable.
    field = type(value)._fields[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before
    assert vars(value).keys() == set(type(value)._fields)


@pytest.mark.parametrize("name", sorted(name for name, entry in _TYPES.items() if entry[3] is not None))
def test_replace_runs_the_checks_again(name):
    make, _, _, refused = _TYPES[name]
    with pytest.raises(ValueError):
        replace(make(), **refused)


def test_replace_checks_a_quantum_state_again():
    state = QuantumState(Hydrogenic(Z=1.0), "position", n=2, l=0)
    with pytest.raises(ValueError, match="l must satisfy l <= n-1"):
        replace(state, l=5)
    with pytest.raises(TypeError, match="unknown fields 'm'"):
        replace(state, m=1)


def test_equal_fields_of_different_classes_are_not_equal():
    assert Oscillator1D(1.0) != Oscillator3D(1.0)
    assert Oscillator1D(1.0) == Oscillator1D(omega=1.0)
    assert QuadratureSpec(scale=2.0) != QuadratureSpec(scale=3.0)


def test_init_takes_fields_by_position_and_keyword_and_fills_defaults():
    spec = QuadratureSpec(1e-8, scale=3.0)
    assert (spec.rel_tol, spec.abs_tol, spec.scale, spec.breaks) == (1e-8, 1e-14, 3.0, ())
    assert QuantumState(Hydrogenic(1.0), "momentum", 3, 1) == QuantumState(
        system=Hydrogenic(Z=1.0), space="momentum", l=1, n=3
    )
    with pytest.raises(TypeError, match=r"missing fields 'space'"):
        QuantumState(Hydrogenic(1.0))
    with pytest.raises(TypeError, match=r"missing fields 'Z'"):
        Hydrogenic()
    with pytest.raises(TypeError, match=r"unknown fields 'z'"):
        Hydrogenic(z=1.0)
    with pytest.raises(TypeError, match=r"unknown fields 'z'"):
        Pseudoharmonic(1.0, De=1.0, re=1.0, z=1.0)
    with pytest.raises(TypeError, match="both by position and by keyword"):
        Hydrogenic(1.0, Z=2.0)
    with pytest.raises(TypeError, match="takes 1 fields, got 2 positional arguments"):
        Hydrogenic(1.0, 2.0)


def test_a_class_without_fields_is_refused():
    with pytest.raises(TypeError, match="annotates no fields"):
        @record
        class Empty:
            pass


def test_importing_the_cli_loads_neither_dataclasses_nor_fractions_nor_json():
    # Each costs every run of the CLI start-up time: dataclasses with inspect
    # and the exec of its generated methods, fractions with decimal, json.
    src = os.path.dirname(os.path.dirname(os.path.abspath(relfisher.__file__)))
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import relfisher.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "relfisher.cli" in added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "json"}, sorted(added)
