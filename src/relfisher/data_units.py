"""Unit conversion to atomic units and the built-in diatomic molecule registry.

Two conversion-constant profiles are provided. The default "paper" profile uses
the truncated factors the bundled reference tables were generated with, so the
table reproduction is exact at its printed precision; the "modern" profile uses
CODATA 2018 values for users who care about physical accuracy instead.
"""
from __future__ import annotations

import math

from ._record import record
from .systems import Pseudoharmonic

__all__ = [
    "MoleculeRecord",
    "ConversionConstants",
    "CONSTANT_PROFILES",
    "UnknownMoleculeError",
    "to_atomic_units",
    "registry",
    "find_molecule",
    "parse_molecule_file",
]


class UnknownMoleculeError(ValueError):
    """Requested molecule name is not in the registry."""


@record
class MoleculeRecord:
    """One diatomic species: reduced mass (amu), dissociation energy (eV),
    equilibrium separation (angstrom), plus labels and data provenance."""

    name: str
    state_label: str
    mu_amu: float
    de_ev: float
    re_angstrom: float
    source: str

    def __post_init__(self) -> None:
        for field in ("mu_amu", "de_ev", "re_angstrom"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{field} must be positive and finite, got {value!r}")


@record
class ConversionConstants:
    """Multiplicative factors taking (amu, eV, angstrom) to atomic units."""

    amu_to_au: float
    ev_to_au: float
    angstrom_to_au: float


CONSTANT_PROFILES: dict[str, ConversionConstants] = {
    # Truncated factors matching the bundled reference tables bit-for-bit.
    "paper": ConversionConstants(
        amu_to_au=1.82289e3,
        ev_to_au=0.03615384,
        angstrom_to_au=1.88971616,
    ),
    # CODATA 2018.
    "modern": ConversionConstants(
        amu_to_au=1822.888486209,
        ev_to_au=0.036749322176,
        angstrom_to_au=1.889726124626,
    ),
}

_REGISTRY = (
    MoleculeRecord("H2", "X ¹Σ_g⁺", 0.50391, 4.7446, 0.7416, "oyewumi2012"),
    MoleculeRecord("Na2", "X ¹Σ_g⁺", 11.4948845, 0.746707167, 3.079, "yahya2015"),
    MoleculeRecord("Cl2", "X ¹Σ_g⁺", 17.7275, 2.513903386, 1.987, "yahya2015"),
    MoleculeRecord("O2+", "X ²Π_g", 7.9995, 6.780447346, 1.116, "yahya2015"),
    MoleculeRecord("CO", "X ¹Σ⁺", 6.860586000, 10.845073641, 1.1283, "oyewumi2012"),
    MoleculeRecord("NO", "X ²Σ_r", 7.46844100, 8.043729855, 1.1508, "oyewumi2012"),
)


def registry() -> list[MoleculeRecord]:
    """The six built-in molecules, in table order."""
    return list(_REGISTRY)


def find_molecule(name: str, extra: list[MoleculeRecord] | None = None) -> MoleculeRecord:
    """Look up a molecule by name (case-sensitive); extra records take priority."""
    for record in (extra or []):
        if record.name == name:
            return record
    for record in _REGISTRY:
        if record.name == name:
            return record
    known = ", ".join(r.name for r in _REGISTRY)
    raise UnknownMoleculeError(f"unknown molecule {name!r}; built-in: {known}")


def to_atomic_units(record: MoleculeRecord, constants: str | ConversionConstants = "paper") -> Pseudoharmonic:
    """Convert a molecule record to pseudoharmonic parameters in atomic units."""
    if isinstance(constants, str):
        try:
            constants = CONSTANT_PROFILES[constants]
        except KeyError:
            raise ValueError(
                f"unknown constants profile {constants!r}; available: {sorted(CONSTANT_PROFILES)}"
            ) from None
    return Pseudoharmonic(
        mu=record.mu_amu * constants.amu_to_au,
        De=record.de_ev * constants.ev_to_au,
        re=record.re_angstrom * constants.angstrom_to_au,
    )


def parse_molecule_file(path: str) -> list[MoleculeRecord]:
    """Read molecule records from a UTF-8 text file.

    One record per line: name,state_label,mu_amu,de_ev,re_angstrom,source.
    '#' starts a comment; blank lines are skipped. Decimal point is '.',
    no thousands separators.
    """
    records: list[MoleculeRecord] = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 6:
                raise ValueError(
                    f"{path}:{lineno}: expected 6 comma-separated fields, got {len(parts)}"
                )
            name, state_label, mu_amu, de_ev, re_angstrom, source = parts
            try:
                record = MoleculeRecord(
                    name=name,
                    state_label=state_label,
                    mu_amu=float(mu_amu),
                    de_ev=float(de_ev),
                    re_angstrom=float(re_angstrom),
                    source=source,
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            records.append(record)
    return records
