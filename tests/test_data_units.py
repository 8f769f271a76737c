"""Molecule registry and unit conversion."""

import re

import pytest

from relfisher.data_units import (
    CONSTANT_PROFILES,
    ConversionConstants,
    MoleculeRecord,
    UnknownMoleculeError,
    find_molecule,
    parse_molecule_file,
    registry,
    to_atomic_units,
)

EXPECTED_REGISTRY = {
    "H2": ("X ¹Σ_g⁺", 0.50391, 4.7446, 0.7416, "oyewumi2012"),
    "Na2": ("X ¹Σ_g⁺", 11.4948845, 0.746707167, 3.079, "yahya2015"),
    "Cl2": ("X ¹Σ_g⁺", 17.7275, 2.513903386, 1.987, "yahya2015"),
    "O2+": ("X ²Π_g", 7.9995, 6.780447346, 1.116, "yahya2015"),
    "CO": ("X ¹Σ⁺", 6.860586000, 10.845073641, 1.1283, "oyewumi2012"),
    "NO": ("X ²Σ_r", 7.46844100, 8.043729855, 1.1508, "oyewumi2012"),
}


def test_registry_contents_exact():
    records = registry()
    assert [r.name for r in records] == list(EXPECTED_REGISTRY)
    for record in records:
        label, mu, de, re, source = EXPECTED_REGISTRY[record.name]
        assert record.state_label == label
        assert record.mu_amu == mu
        assert record.de_ev == de
        assert record.re_angstrom == re
        assert record.source == source


def test_find_molecule_and_unknown_error():
    assert find_molecule("H2").mu_amu == 0.50391
    assert find_molecule("NO").de_ev == 8.043729855
    with pytest.raises(UnknownMoleculeError) as excinfo:
        find_molecule("XY")
    assert "H2" in str(excinfo.value)


def test_extra_records_take_priority():
    override = MoleculeRecord("H2", "custom", 1.0, 1.0, 1.0, "local")
    assert find_molecule("H2", extra=[override]).source == "local"
    fresh = MoleculeRecord("XY2", "custom", 2.0, 3.0, 4.0, "local")
    assert find_molecule("XY2", extra=[fresh]).de_ev == 3.0


def test_record_validation():
    with pytest.raises(ValueError):
        MoleculeRecord("bad", "label", -1.0, 1.0, 1.0, "src")
    with pytest.raises(ValueError):
        MoleculeRecord("bad", "label", 1.0, 0.0, 1.0, "src")


def test_paper_profile_conversion():
    params = to_atomic_units(find_molecule("H2"))
    assert params.mu == pytest.approx(0.50391 * 1.82289e3, rel=1e-15)
    assert params.mu == pytest.approx(918.5724999, rel=1e-12)
    assert params.De == pytest.approx(4.7446 * 0.03615384, rel=1e-15)
    assert params.re == pytest.approx(0.7416 * 1.88971616, rel=1e-15)

    co = to_atomic_units(find_molecule("CO"))
    assert co.De == pytest.approx(10.845073641 * 0.03615384, rel=1e-15)
    assert co.De == pytest.approx(0.3920911, abs=5e-7)


def test_angstrom_identity():
    record = MoleculeRecord("unit", "x", 1.0, 1.0, 1.0, "src")
    assert to_atomic_units(record).re == 1.88971616


def test_conversion_is_linear():
    base = MoleculeRecord("a", "x", 2.0, 3.0, 4.0, "src")
    scaled = MoleculeRecord("b", "x", 5.0, 7.5, 10.0, "src")
    pa = to_atomic_units(base)
    pb = to_atomic_units(scaled)
    assert pb.mu == pytest.approx(2.5 * pa.mu, rel=1e-15)
    assert pb.De == pytest.approx(2.5 * pa.De, rel=1e-15)
    assert pb.re == pytest.approx(2.5 * pa.re, rel=1e-15)


def test_modern_profile_and_custom_constants():
    params = to_atomic_units(find_molecule("H2"), constants="modern")
    assert params.mu == pytest.approx(0.50391 * 1822.888486209, rel=1e-15)
    custom = ConversionConstants(amu_to_au=2.0, ev_to_au=3.0, angstrom_to_au=4.0)
    record = MoleculeRecord("c", "x", 1.0, 1.0, 1.0, "src")
    converted = to_atomic_units(record, constants=custom)
    assert (converted.mu, converted.De, converted.re) == (2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        to_atomic_units(record, constants="nist")
    assert set(CONSTANT_PROFILES) == {"paper", "modern"}


def test_parse_molecule_file(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text(
        "# custom molecules\n"
        "\n"
        "XY, X ¹Σ, 1.25, 2.5, 1.1, local  # trailing comment\n"
        "AB2, ground, 10.0, 0.5, 2.25, local\n",
        encoding="utf-8",
    )
    records = parse_molecule_file(str(path))
    assert [r.name for r in records] == ["XY", "AB2"]
    assert records[0].state_label == "X ¹Σ"
    assert records[0].mu_amu == 1.25
    assert records[1].re_angstrom == 2.25


def test_parse_molecule_file_errors(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("only,five,fields,in,line\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        parse_molecule_file(str(short))
    assert f"{short}:1:" in str(excinfo.value)

    bad_number = tmp_path / "bad.csv"
    bad_number.write_text("\n# header\nXY, s, not_a_number, 2.5, 1.1, src\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        parse_molecule_file(str(bad_number))
    assert f"{bad_number}:3:" in str(excinfo.value)

    negative = tmp_path / "neg.csv"
    negative.write_text("XY, s, -1.0, 2.5, 1.1, src\n", encoding="utf-8")
    with pytest.raises(ValueError):
        parse_molecule_file(str(negative))


@pytest.mark.parametrize("field,line", [
    ("mu_amu", "X,lab,inf,1.0,1.0,src"),
    ("de_ev", "X,lab,1.0,inf,1.0,src"),
    ("re_angstrom", "X,lab,1.0,1.0,Infinity,src"),
])
def test_parse_molecule_file_refuses_an_infinite_value(field, line, tmp_path):
    # An infinite value was accepted: `molecules` printed inf, its JSON form
    # failed after six rows, and `compute` failed without naming the file.
    path = tmp_path / "extra.csv"
    path.write_text(f"# name,label,mu,De,re,source\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {field} must be positive and finite")):
        parse_molecule_file(str(path))
