"""Command-line front end: single computations, oracle validation sweeps, and
reproduction of the bundled reference tables, with machine-readable output.

Output is CSV (UTF-8, LF, '.' decimal) or newline-delimited JSON with the same
field names. Rows are streamed: each state is built, computed and written in
turn, so memory does not grow with the table. Each grid of states is checked
once, by its system's grid method, before the first row, so a bad argument
writes nothing. An --out file is still all-or-nothing: rows go to a temp file
in the same directory, which is renamed over the target on success and
removed on any error. Stdout may already hold rows written before an error
line. Exit codes: 0 ok, 2 usage error, 3 validation or quadrature failure
or a refused state, 4 I/O failure.

compute and validate turn the flags into systems by one rule (_systems):
hydrogen takes --Z and the oscillators --omega; php takes the
--mu-amu/--de-ev/--re-angstrom triple if any of it is given, else --molecule,
else every registry molecule. Both then stream their grids through _cells.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TextIO

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
    FAMILIES,
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    RefusedStateError,
    SystemParams,
)

# Not called here any more; kept in this namespace because perfbench/tracer.py
# hooks the reference-state layer under this name.
from .systems import reference_state  # noqa: F401
from .wavefunctions import default_quadrature_spec

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

STATUS_OK = "ok"
STATUS_QUADRATURE_FAILED = "quadrature_failed"
STATUS_REFERENCE = "reference_state"
STATUS_REFUSED = "refused"

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

_FAMILIES = {family.name: family for family in FAMILIES}

# The flag that sets each quantum-number field.
_FLAGS = {"n": "--n", "n_r": "--nr", "l": "--l"}


# The columns of a compute or validate row, which _evaluate_cell builds as a
# plain tuple in this order.
_ROW_HEADER = [
    "system", "space", "quantum_numbers", "params_digest", "ir_closed", "ir_numeric", "rel_diff", "status",
]
_Row = tuple[str, str, str, str, float, float | None, float | None, str]


def _write_rows(
    stream: TextIO,
    header: list[str],
    rows: Iterable[Sequence[object]],
    formats: dict[str, str],
    output_format: str,
) -> None:
    """Write each row as it comes. A row holds its values in header order.

    In CSV, a column named in formats holds floats, written with its format
    spec, or None, an empty cell; any other value is written as str(value).
    JSON has no header line.
    """
    if output_format == "json":
        dumps = json.dumps
        for row in rows:
            stream.write(dumps(dict(zip(header, row)), ensure_ascii=False, allow_nan=False) + "\n")
        return
    float_columns = [(i, formats[column]) for i, column in enumerate(header) if column in formats]

    def cells(row: Sequence[object]) -> list[object]:
        row = list(row)
        for i, spec in float_columns:
            value = row[i]
            if value is not None:
                row[i] = format(value, spec)
        return row

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


def _parse_range(text: str, name: str) -> range:
    """Parse '3' or '1..8' into an inclusive integer range."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        value = int(text)
        return range(value, value + 1)
    except ValueError:
        raise ValueError(f"{name} must be an integer or an A..B range, got {text!r}") from None


def _nonempty(items: Iterator, message: str) -> Iterator:
    """items, unchanged, once it has yielded its first item; ValueError(message) if it has none."""
    first = next(items, None)
    if first is None:
        raise ValueError(message)
    return itertools.chain((first,), items)


def _systems(args: argparse.Namespace, family: type) -> list[tuple[SystemParams, str]]:
    """The systems of one family that the flags select, each with its params digest.

    hydrogen takes --Z and the oscillators --omega. php takes the
    --mu-amu/--de-ev/--re-angstrom triple if any of the three is given, else
    --molecule, else every registry molecule in registry order; a
    --molecule-file record replaces the registry molecule of its name.
    """
    if family is Hydrogenic:
        return [(Hydrogenic(Z=args.Z), f"Z={args.Z:.12g}")]
    if family is not Pseudoharmonic:
        return [(family(omega=args.omega), f"omega={args.omega:.12g}")]
    adhoc = (args.mu_amu, args.de_ev, args.re_angstrom)
    if any(v is not None for v in adhoc):
        if any(v is None for v in adhoc):
            raise ValueError("--mu-amu, --de-ev and --re-angstrom must be given together")
        record = MoleculeRecord("adhoc", "", *adhoc, source="cli")
        digest = (
            f"mu_amu={args.mu_amu:.12g},de_ev={args.de_ev:.12g},"
            f"re_angstrom={args.re_angstrom:.12g},constants={args.constants}"
        )
        return [(to_atomic_units(record, args.constants), digest)]
    extra = parse_molecule_file(args.molecule_file) if args.molecule_file else []
    names = [args.molecule] if args.molecule else [record.name for record in registry()]
    records = [find_molecule(name, extra) for name in names]
    return [
        (to_atomic_units(record, args.constants), f"molecule={record.name},constants={args.constants}")
        for record in records
    ]


def _cells(
    args: argparse.Namespace,
    families: Sequence[type],
    ranges: Callable[[type], dict[str, range]],
    empty: str,
) -> Iterator[tuple[QuantumState, str]]:
    """(state, params digest) over the grid of every system the flags select
    in families, each over its family's ranges; ValueError(empty) if there is
    none. Every grid is built, and so checked, before the first cell."""
    spaces = [POSITION, MOMENTUM] if args.space == "both" else [args.space]
    grids = [
        (params.grid(spaces, **ranges(family)), digest)
        for family in families
        for params, digest in _systems(args, family)
    ]
    cells = ((state, digest) for states, digest in grids for state in states)
    return _nonempty(cells, empty)


def _evaluate_cell(state: QuantumState, digest: str, validate: bool, rel_tol: float) -> _Row:
    # The reference state is the node-less state of the same system, space and l.
    try:
        closed = closed_form_ir(state)
    except OverflowError:
        # A quantum number past the largest double does not convert to one.
        closed = math.inf
    if not math.isfinite(closed):
        raise ValueError(
            f"the closed form of {state.system.name} {state.space} {state.system.label(state)} "
            f"at {digest} is {closed!r}, outside double range"
        )
    numeric = None
    rel_diff = None
    status = STATUS_REFERENCE if state.radial_nodes == 0 else STATUS_OK
    if validate:
        try:
            result = numeric_ir(state, default_quadrature_spec(state, rel_tol=rel_tol))
        except RefusedStateError:
            # The evaluator's cutoff would truncate the state: no value, and the sweep goes on.
            status = STATUS_REFUSED
        else:
            numeric = result.numeric
            rel_diff = result.rel_diff
            if not result.quadrature.converged:
                status = STATUS_QUADRATURE_FAILED
    return (state.system.name, state.space, state.system.label(state), digest, closed, numeric, rel_diff, status)


def _row_formats(digits: int) -> dict[str, str]:
    spec = f".{digits}g"
    return {"ir_closed": spec, "ir_numeric": spec, "rel_diff": ".3e"}


def _cmd_compute(args: argparse.Namespace) -> int:
    family = _FAMILIES[args.system]
    fields = family.number_fields
    given = {"n": args.n, "n_r": args.nr, "l": args.l}
    for field, text in given.items():
        if text is not None and field not in fields:
            raise ValueError(
                f"{family.name} takes no {_FLAGS[field]}: its quantum numbers are {', '.join(fields)}"
            )
    if given["l"] is None:
        given["l"] = "0"
    for field in fields:
        if given[field] is None:
            raise ValueError(f"{family.name} needs {_FLAGS[field]}")
    # A hydrogen grid skips the part of an --l range beyond n-1 at each n.
    cells = _cells(
        args,
        [family],
        lambda _: {field: _parse_range(given[field], _FLAGS[field]) for field in fields},
        "no valid (n, l) combinations: every l exceeds n-1",
    )
    statuses: Counter[str] = Counter()

    def rows() -> Iterable[_Row]:
        for state, digest in cells:
            row = _evaluate_cell(state, digest, args.validate, args.rel_tol)
            statuses[row[-1]] += 1
            yield row

    _emit(_ROW_HEADER, rows(), _row_formats(args.digits), args.format, args.out)
    return EXIT_VALIDATION if statuses[STATUS_QUADRATURE_FAILED] or statuses[STATUS_REFUSED] else EXIT_OK


def _sweep_max(args: argparse.Namespace, flag: str) -> int:
    # A negative maximum would empty the family's grid without a word.
    value = getattr(args, flag)
    if value < 0:
        raise ValueError(f"--{flag.replace('_', '-')} must be >= 0, got {value}")
    return value


def _sweep_ranges(args: argparse.Namespace, family: type) -> dict[str, range]:
    """Quantum-number ranges of one family's validate sweep; molecules sweep l = 0 only."""
    if family is Oscillator1D:
        return {"n": range(_sweep_max(args, "n_max") + 1)}
    if family is Hydrogenic:
        n_max = _sweep_max(args, "n_max")
        # The grid keeps l <= n-1 of this l range at each n.
        return {"n": range(1, n_max + 1), "l": range(n_max)}
    l_max = _sweep_max(args, "l_max") if family is Oscillator3D else 0
    return {"n_r": range(_sweep_max(args, "nr_max") + 1), "l": range(l_max + 1)}


def _cmd_validate(args: argparse.Namespace) -> int:
    families = [_FAMILIES[args.system]] if args.system else FAMILIES
    cells = _cells(
        args, families, lambda family: _sweep_ranges(args, family),
        "no cells to validate: every sweep range is empty",
    )
    statuses: Counter[str] = Counter()
    over_threshold = 0
    max_rel = 0.0

    def rows() -> Iterable[_Row]:
        nonlocal over_threshold, max_rel
        for state, digest in cells:
            row = _evaluate_cell(state, digest, True, args.rel_tol)
            *_, rel_diff, status = row
            statuses[status] += 1
            if rel_diff is not None:  # a refused row has none
                over_threshold += rel_diff > args.threshold
                max_rel = max(max_rel, rel_diff)
            yield row

    _emit(_ROW_HEADER, rows(), _row_formats(args.digits), args.format, args.out)
    failures, refused = statuses[STATUS_QUADRATURE_FAILED], statuses[STATUS_REFUSED]
    # Named only when there are any, so a sweep without them prints what it always did.
    refusals = f" refused={refused}" if refused else ""
    print(
        f"validate: cells={statuses.total()} max_rel_diff={max_rel:.3e} "
        f"quadrature_failures={failures} over_threshold={over_threshold}{refusals} "
        f"(threshold={args.threshold:g})",
        file=sys.stderr,
    )
    return EXIT_VALIDATION if failures or over_threshold or refused else EXIT_OK


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
    extra = parse_molecule_file(args.molecule_file) if args.molecule_file else []
    records = registry() + extra
    rows = [
        (record.name, record.state_label, record.mu_amu, record.de_ev, record.re_angstrom,
         record.source)
        for record in records
    ]
    formats = dict.fromkeys(("mu_amu", "de_ev", "re_angstrom"), f".{args.digits}g")
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
    compute.add_argument("--system", choices=tuple(_FAMILIES), required=True)
    compute.add_argument("--space", choices=(POSITION, MOMENTUM, "both"), default="both")
    compute.add_argument("--n", default=None, help="n or range A..B")
    compute.add_argument("--l", default=None, help="l or range A..B (default 0)")
    compute.add_argument("--nr", default=None, help="n_r or range A..B")
    _add_system_options(compute)
    compute.add_argument("--validate", action="store_true", help="also run the quadrature oracle")
    compute.add_argument("--rel-tol", type=float, default=1e-10, help="quadrature relative tolerance")
    _add_output_options(compute, digits_default=12)
    compute.set_defaults(func=_cmd_compute)

    validate = sub.add_parser("validate", help="sweep the quadrature oracle against closed forms")
    validate.add_argument("--system", choices=tuple(_FAMILIES), default=None)
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


def _check_run_options(args: argparse.Namespace) -> None:
    """Reject bad run parameters before the first row, so they write nothing."""
    digits = getattr(args, "digits", None)
    if digits is not None and digits < 0:
        raise ValueError(f"--digits must be >= 0, got {digits}")
    rel_tol = getattr(args, "rel_tol", None)
    if rel_tol is not None and not 0.0 < rel_tol < math.inf:
        raise ValueError(f"--rel-tol must be positive and finite, got {rel_tol!r}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0.0 <= threshold < math.inf:
        raise ValueError(f"--threshold must be nonnegative and finite, got {threshold!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_run_options(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
