"""Command-line front end: single computations, oracle validation sweeps, and
reproduction of the bundled reference tables, with machine-readable output.

Output is CSV (UTF-8, LF, '.' decimal) or newline-delimited JSON with the same
field names. Rows are streamed: each is written as soon as it is computed, so
memory does not grow with the table beyond the list of states. The states are
built and validated before the first row, so a bad argument writes nothing. An
--out file is still all-or-nothing: rows go to a temp file in the same
directory, which is renamed over the target on success and removed on any
error. Stdout may already hold rows written before an error line. Exit codes:
0 ok, 2 usage error, 3 validation or quadrature failure, 4 I/O failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, TextIO

from .data_units import (
    CONSTANT_PROFILES,
    MoleculeRecord,
    find_molecule,
    parse_molecule_file,
    registry,
    to_atomic_units,
)
from .relative_fisher import (
    closed_form_ir,
    hydrogen_position_rational,
    numeric_ir,
)
from .systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
)

# Not called here any more; kept in this namespace because perfbench/tracer.py
# hooks the reference-state layer under this name.
from .systems import reference_state  # noqa: F401
from .wavefunctions import default_quadrature_spec

__all__ = ["OutputRow", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

STATUS_OK = "ok"
STATUS_QUADRATURE_FAILED = "quadrature_failed"
STATUS_REFERENCE = "reference_state"

# Published reference values bundled for regression comparison. The computed
# column never bends toward these: disagreement is reported, not absorbed.
_TABLE1_ORBITALS = (
    ("2s", 2, 0, Fraction(1)),
    ("3s", 3, 0, Fraction(16, 27)),
    ("4s", 4, 0, Fraction(3, 8)),
    ("5s", 5, 0, Fraction(32, 125)),
    ("3p", 3, 1, Fraction(8, 27)),
    ("4p", 4, 1, Fraction(1, 4)),
    ("5p", 5, 1, Fraction(24, 125)),
    ("6p", 6, 1, Fraction(4, 27)),
    ("4d", 4, 2, Fraction(1, 8)),
    ("5d", 5, 2, Fraction(16, 125)),
    ("6d", 6, 2, Fraction(1, 9)),
    ("7d", 7, 2, Fraction(32, 343)),
    ("5f", 5, 3, Fraction(8, 125)),
    ("6f", 6, 3, Fraction(2, 27)),
    ("7f", 7, 3, Fraction(24, 343)),
    ("8f", 8, 3, Fraction(1, 6)),
)

_TABLE3_NR = (1, 2, 3, 10, 25, 50, 100)


class OutputRow(NamedTuple):
    """One computed cell of a compute or validate sweep, in output column order."""

    system: str
    space: str
    quantum_numbers: str
    params_digest: str
    ir_closed: float
    ir_numeric: float | None
    rel_diff: float | None
    status: str


_ROW_HEADER = list(OutputRow._fields)


def _write_rows(
    stream: TextIO,
    header: list[str],
    rows: Iterable[Sequence[object]],
    formats: dict[str, str],
    output_format: str,
) -> None:
    """Write each row as it comes. A row holds its values in header order.

    CSV floats use the column's format spec (default .12g), None is an empty
    cell and anything else is written as str(value); JSON has no header line.
    """
    if output_format == "json":
        dumps = json.dumps
        for row in rows:
            stream.write(dumps(dict(zip(header, row)), ensure_ascii=False) + "\n")
        return
    specs = [formats.get(column, ".12g") for column in header]

    def cells(row: Sequence[object]) -> list[object]:
        return [format(v, spec) if isinstance(v, float) else v for v, spec in zip(row, specs)]

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(cells, rows))


def _emit(
    header: list[str],
    rows: Iterable[Sequence[object]],
    formats: dict[str, str],
    output_format: str,
    out_path: str | None,
) -> None:
    """Stream rows to stdout, or to out_path through a temp file in its directory.

    The temp file is renamed over out_path once every row is written and is
    removed on any exception, so the file is all-or-nothing; stdout keeps the
    rows written before an error.
    """
    if not out_path:
        _write_rows(sys.stdout, header, rows, formats, output_format)
        return
    fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as stream:
            _write_rows(stream, header, rows, formats, output_format)
        os.replace(temp_path, out_path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def _parse_range(text: str, name: str) -> list[int]:
    """Parse '3' or '1..8' into an inclusive integer list."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        raise ValueError(f"{name} must be an integer or an A..B range, got {text!r}") from None


def _molecule_records(args: argparse.Namespace) -> list[MoleculeRecord]:
    extra = parse_molecule_file(args.molecule_file) if getattr(args, "molecule_file", None) else []
    return extra


def _php_params(args: argparse.Namespace) -> tuple[Pseudoharmonic, str]:
    adhoc = (args.mu_amu, args.de_ev, args.re_angstrom)
    if any(v is not None for v in adhoc):
        if any(v is None for v in adhoc):
            raise ValueError("--mu-amu, --de-ev and --re-angstrom must be given together")
        record = MoleculeRecord(
            name="adhoc",
            state_label="",
            mu_amu=args.mu_amu,
            de_ev=args.de_ev,
            re_angstrom=args.re_angstrom,
            source="cli",
        )
        digest = (
            f"mu_amu={args.mu_amu:.12g},de_ev={args.de_ev:.12g},"
            f"re_angstrom={args.re_angstrom:.12g},constants={args.constants}"
        )
        return to_atomic_units(record, args.constants), digest
    if not args.molecule:
        raise ValueError("php needs --molecule or the --mu-amu/--de-ev/--re-angstrom triple")
    record = find_molecule(args.molecule, _molecule_records(args))
    return to_atomic_units(record, args.constants), f"molecule={record.name},constants={args.constants}"


def _spaces(choice: str) -> list[str]:
    if choice == "both":
        return [POSITION, MOMENTUM]
    return [choice]


def _describe_numbers(state: QuantumState) -> str:
    if state.n_r is not None:
        return f"n_r={state.n_r},l={state.l}"
    if state.l is not None:
        return f"n={state.n},l={state.l}"
    return f"n={state.n}"


def _states_for_compute(args: argparse.Namespace) -> tuple[list[QuantumState], str]:
    spaces = _spaces(args.space)
    if args.system == "qho1d":
        if args.n is None:
            raise ValueError("qho1d needs --n")
        params = Oscillator1D(omega=args.omega)
        states = [
            QuantumState(system=params, space=space, n=n)
            for n in _parse_range(args.n, "--n")
            for space in spaces
        ]
        return states, f"omega={args.omega:.12g}"
    if args.system == "qho3d":
        if args.nr is None:
            raise ValueError("qho3d needs --nr")
        params = Oscillator3D(omega=args.omega)
        states = [
            QuantumState(system=params, space=space, n_r=n_r, l=l)
            for n_r in _parse_range(args.nr, "--nr")
            for l in _parse_range(args.l, "--l")
            for space in spaces
        ]
        return states, f"omega={args.omega:.12g}"
    if args.system == "hydrogen":
        if args.n is None:
            raise ValueError("hydrogen needs --n")
        params = Hydrogenic(Z=args.Z)
        states = []
        for n in _parse_range(args.n, "--n"):
            for l in _parse_range(args.l, "--l"):
                if l > n - 1:
                    continue
                for space in spaces:
                    states.append(QuantumState(system=params, space=space, n=n, l=l))
        if not states:
            raise ValueError("no valid (n, l) combinations: every l exceeds n-1")
        return states, f"Z={args.Z:.12g}"
    if args.nr is None:
        raise ValueError("php needs --nr")
    params, digest = _php_params(args)
    states = [
        QuantumState(system=params, space=space, n_r=n_r, l=l)
        for n_r in _parse_range(args.nr, "--nr")
        for l in _parse_range(args.l, "--l")
        for space in spaces
    ]
    return states, digest


_SYSTEM_NAMES = {
    Oscillator1D: "qho1d",
    Oscillator3D: "qho3d",
    Hydrogenic: "hydrogen",
    Pseudoharmonic: "php",
}


def _evaluate_cell(state: QuantumState, digest: str, validate: bool, rel_tol: float) -> OutputRow:
    # The reference state is the node-less state of the same system, space and l.
    closed = closed_form_ir(state)
    numeric = None
    rel_diff = None
    status = STATUS_REFERENCE if state.radial_nodes == 0 else STATUS_OK
    if validate:
        result = numeric_ir(state, default_quadrature_spec(state, rel_tol=rel_tol))
        numeric = result.numeric
        rel_diff = result.rel_diff
        if not result.quadrature.converged:
            status = STATUS_QUADRATURE_FAILED
    return OutputRow(
        _SYSTEM_NAMES[type(state.system)],
        state.space,
        _describe_numbers(state),
        digest,
        closed,
        numeric,
        rel_diff,
        status,
    )


def _row_formats(digits: int) -> dict[str, str]:
    spec = f".{digits}g"
    return {"ir_closed": spec, "ir_numeric": spec, "rel_diff": ".3e"}


def _cmd_compute(args: argparse.Namespace) -> int:
    states, digest = _states_for_compute(args)
    failed = False

    def rows() -> Iterable[OutputRow]:
        nonlocal failed
        for state in states:
            row = _evaluate_cell(state, digest, args.validate, args.rel_tol)
            if row.status == STATUS_QUADRATURE_FAILED:
                failed = True
            yield row

    _emit(_ROW_HEADER, rows(), _row_formats(args.digits), args.format, args.out)
    return EXIT_VALIDATION if failed else EXIT_OK


def _validate_cells(args: argparse.Namespace) -> list[tuple[QuantumState, str]]:
    systems = [args.system] if args.system else ["qho1d", "qho3d", "hydrogen", "php"]
    spaces = _spaces(args.space)
    cells: list[tuple[QuantumState, str]] = []
    for system in systems:
        if system == "qho1d":
            params = Oscillator1D(omega=args.omega)
            digest = f"omega={args.omega:.12g}"
            for n in range(0, args.n_max + 1):
                for space in spaces:
                    cells.append((QuantumState(system=params, space=space, n=n), digest))
        elif system == "qho3d":
            params = Oscillator3D(omega=args.omega)
            digest = f"omega={args.omega:.12g}"
            for n_r in range(0, args.nr_max + 1):
                for l in range(0, args.l_max + 1):
                    for space in spaces:
                        cells.append(
                            (QuantumState(system=params, space=space, n_r=n_r, l=l), digest)
                        )
        elif system == "hydrogen":
            params = Hydrogenic(Z=args.Z)
            digest = f"Z={args.Z:.12g}"
            for n in range(1, args.n_max + 1):
                for l in range(0, n):
                    for space in spaces:
                        cells.append((QuantumState(system=params, space=space, n=n, l=l), digest))
        else:
            extra = _molecule_records(args)
            names = [args.molecule] if args.molecule else [record.name for record in registry()]
            for name in names:
                record = find_molecule(name, extra)
                params = to_atomic_units(record, args.constants)
                digest = f"molecule={record.name},constants={args.constants}"
                for n_r in range(0, args.nr_max + 1):
                    for space in spaces:
                        cells.append(
                            (QuantumState(system=params, space=space, n_r=n_r, l=0), digest)
                        )
    return cells


def _cmd_validate(args: argparse.Namespace) -> int:
    cells = _validate_cells(args)
    quadrature_failures = over_threshold = 0
    max_rel = 0.0

    def rows() -> Iterable[OutputRow]:
        nonlocal quadrature_failures, over_threshold, max_rel
        for state, digest in cells:
            row = _evaluate_cell(state, digest, True, args.rel_tol)
            if row.status == STATUS_QUADRATURE_FAILED:
                quadrature_failures += 1
            if row.rel_diff > args.threshold:
                over_threshold += 1
            max_rel = max(max_rel, row.rel_diff)
            yield row

    _emit(_ROW_HEADER, rows(), _row_formats(args.digits), args.format, args.out)
    print(
        f"validate: cells={len(cells)} max_rel_diff={max_rel:.3e} "
        f"quadrature_failures={quadrature_failures} over_threshold={over_threshold} "
        f"(threshold={args.threshold:g})",
        file=sys.stderr,
    )
    if quadrature_failures or over_threshold:
        return EXIT_VALIDATION
    return EXIT_OK


def _reproduce_table1(args: argparse.Namespace) -> list[str]:
    digits = args.digits if args.digits is not None else 12
    header = ["orbital", "n", "l", "ir_exact", "ir_value", "printed_value", "status"]
    rows = []
    for orbital, n, l, printed in _TABLE1_ORBITALS:
        computed = hydrogen_position_rational(n, l)
        status = STATUS_OK if computed == printed else "mismatch"
        rows.append((orbital, n, l, str(computed), float(computed), str(printed), status))
    path = os.path.join(args.out, f"table1.{args.format}")
    _emit(header, rows, {"ir_value": f".{digits}g"}, args.format, path)
    return [path]


def _reproduce_table3(args: argparse.Namespace) -> list[str]:
    digits = args.digits if args.digits is not None else 6
    header = ["molecule", "n_r", "ir_position", "ir_momentum"]
    rows = []
    for record in registry():
        params = to_atomic_units(record, args.constants)
        for n_r in _TABLE3_NR:
            position = QuantumState(system=params, space=POSITION, n_r=n_r, l=0)
            momentum = QuantumState(system=params, space=MOMENTUM, n_r=n_r, l=0)
            rows.append((record.name, n_r, closed_form_ir(position), closed_form_ir(momentum)))
    path = os.path.join(args.out, f"table3.{args.format}")
    formats = {"ir_position": f".{digits}f", "ir_momentum": f".{digits}f"}
    _emit(header, rows, formats, args.format, path)
    return [path]


def _reproduce_figure1(args: argparse.Namespace) -> list[str]:
    digits = args.digits if args.digits is not None else 12
    paths = []
    series = (
        ("figure1_position_even", POSITION, (0, 2, 4, 6)),
        ("figure1_position_odd", POSITION, (1, 3, 5, 7)),
        ("figure1_momentum_even", MOMENTUM, (0, 2, 4, 6)),
        ("figure1_momentum_odd", MOMENTUM, (1, 3, 5, 7)),
    )
    params = Hydrogenic(Z=1.0)
    for stem, space, l_values in series:
        header = ["l", "n", "value"]
        rows = []
        for l in l_values:
            for n in range(l + 2, 51):
                state = QuantumState(system=params, space=space, n=n, l=l)
                value = closed_form_ir(state)
                if space == MOMENTUM:
                    value = math.log(value)
                rows.append((l, n, value))
        path = os.path.join(args.out, f"{stem}.{args.format}")
        _emit(header, rows, {"value": f".{digits}g"}, args.format, path)
        paths.append(path)
    return paths


def _cmd_reproduce(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    builder = {
        "table1": _reproduce_table1,
        "table3": _reproduce_table3,
        "figure1": _reproduce_figure1,
    }[args.target]
    for path in builder(args):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_molecules(args: argparse.Namespace) -> int:
    header = ["name", "state_label", "mu_amu", "de_ev", "re_angstrom", "source"]
    records = registry() + _molecule_records(args)
    rows = [
        (record.name, record.state_label, record.mu_amu, record.de_ev, record.re_angstrom,
         record.source)
        for record in records
    ]
    formats = {"mu_amu": ".12g", "de_ev": ".12g", "re_angstrom": ".12g"}
    _emit(header, rows, formats, args.format, args.out)
    return EXIT_OK


def _add_output_options(parser: argparse.ArgumentParser, digits_default: int | None) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--digits", type=int, default=digits_default, help="printed precision")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _add_system_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--omega", type=float, default=1.0, help="oscillator frequency (a.u.)")
    parser.add_argument("--Z", type=float, default=1.0, help="nuclear charge")
    parser.add_argument("--molecule", default=None, help="registry molecule name")
    parser.add_argument("--molecule-file", default=None, help="extra molecule records (CSV)")
    parser.add_argument("--mu-amu", type=float, default=None, help="ad-hoc reduced mass (amu)")
    parser.add_argument("--de-ev", type=float, default=None, help="ad-hoc dissociation energy (eV)")
    parser.add_argument("--re-angstrom", type=float, default=None, help="ad-hoc separation (angstrom)")
    parser.add_argument(
        "--constants",
        choices=sorted(CONSTANT_PROFILES),
        default="paper",
        help="unit-conversion constants profile",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfisher",
        description="Relative Fisher information of exactly solvable quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="closed-form values, optionally oracle-checked")
    compute.add_argument("--system", choices=("qho1d", "qho3d", "hydrogen", "php"), required=True)
    compute.add_argument("--space", choices=(POSITION, MOMENTUM, "both"), default="both")
    compute.add_argument("--n", default=None, help="n or range A..B")
    compute.add_argument("--l", default="0", help="l or range A..B")
    compute.add_argument("--nr", default=None, help="n_r or range A..B")
    _add_system_options(compute)
    compute.add_argument("--validate", action="store_true", help="also run the quadrature oracle")
    compute.add_argument("--rel-tol", type=float, default=1e-10, help="quadrature relative tolerance")
    _add_output_options(compute, digits_default=12)
    compute.set_defaults(func=_cmd_compute)

    validate = sub.add_parser("validate", help="sweep the quadrature oracle against closed forms")
    validate.add_argument("--system", choices=("qho1d", "qho3d", "hydrogen", "php"), default=None)
    validate.add_argument("--space", choices=(POSITION, MOMENTUM, "both"), default="both")
    validate.add_argument("--n-max", type=int, default=8)
    validate.add_argument("--nr-max", type=int, default=8)
    validate.add_argument("--l-max", type=int, default=3)
    _add_system_options(validate)
    validate.add_argument("--rel-tol", type=float, default=1e-10, help="quadrature relative tolerance")
    validate.add_argument("--threshold", type=float, default=1e-8, help="maximum accepted rel diff")
    _add_output_options(validate, digits_default=12)
    validate.set_defaults(func=_cmd_validate)

    reproduce = sub.add_parser("reproduce", help="regenerate the bundled reference tables")
    reproduce.add_argument("target", choices=("table1", "table3", "figure1"))
    reproduce.add_argument("--format", choices=("csv", "json"), default="csv")
    reproduce.add_argument("--digits", type=int, default=None, help="printed precision")
    reproduce.add_argument("--out", default=".", help="output directory")
    reproduce.add_argument(
        "--constants",
        choices=sorted(CONSTANT_PROFILES),
        default="paper",
        help="unit-conversion constants profile",
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    molecules = sub.add_parser("molecules", help="list the molecule registry")
    molecules.add_argument("--molecule-file", default=None, help="extra molecule records (CSV)")
    _add_output_options(molecules, digits_default=12)
    molecules.set_defaults(func=_cmd_molecules)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
