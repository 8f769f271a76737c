"""Command-line front end: single computations, oracle validation sweeps, and
reproduction of the bundled reference tables, with machine-readable output.

Output is CSV (UTF-8, LF, '.' decimal) or newline-delimited JSON with the same
field names. Rows are streamed: each cell is computed and written in turn,
so memory does not grow with the table. Each grid is checked once, by its
system's grid_numbers method, before the first row, so a bad argument writes
nothing. An --out file is still all-or-nothing: rows go to a temp file
in the same directory, which is renamed over the target on success and
removed on any error. Stdout may already hold rows written before an error
line. Exit codes: 0 ok, 2 usage error, 3 validation or quadrature failure
or a refused state, 4 I/O failure.

compute and validate turn the flags into systems by one rule (_systems):
hydrogen takes --Z and the oscillators --omega; php takes the
--mu-amu/--de-ev/--re-angstrom triple if any of it is given, else --molecule,
else every registry molecule. Both then run their grids through one row loop
(_run_cells). It runs over quantum-number tuples: the label and the
reference-state status are taken once per combination, which each space of
the combination shares, the closed form once per cell from the numbers, and
a QuantumState is built only for a cell the oracle runs. In CSV it writes
each row as one ready-made line, with one write: the system and space
fields and the params digest are quoted once per grid, and the label once
per combination. The bytes are those csv.writer would write
(_csv_field). reproduce and molecules write their short tables through
csv.writer (_write_rows).
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import sys
import tempfile
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

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

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

STATUS_OK = "ok"
STATUS_QUADRATURE_FAILED = "quadrature_failed"
STATUS_REFERENCE = "reference_state"
STATUS_REFUSED = "refused"

# Published reference values bundled for regression comparison, each as
# (numerator, denominator), of which _reproduce_table1 makes a Fraction. The
# computed column never bends toward these: disagreement is reported, not absorbed.
_TABLE1_ORBITALS = (
    ("2s", 2, 0, (1, 1)),
    ("3s", 3, 0, (16, 27)),
    ("4s", 4, 0, (3, 8)),
    ("5s", 5, 0, (32, 125)),
    ("3p", 3, 1, (8, 27)),
    ("4p", 4, 1, (1, 4)),
    ("5p", 5, 1, (24, 125)),
    ("6p", 6, 1, (4, 27)),
    ("4d", 4, 2, (1, 8)),
    ("5d", 5, 2, (16, 125)),
    ("6d", 6, 2, (1, 9)),
    ("7d", 7, 2, (32, 343)),
    ("5f", 5, 3, (8, 125)),
    ("6f", 6, 3, (2, 27)),
    ("7f", 7, 3, (24, 343)),
    ("8f", 8, 3, (1, 6)),
)

_TABLE3_NR = (1, 2, 3, 10, 25, 50, 100)

_FAMILIES = {family.name: family for family in FAMILIES}

# The flag that sets each quantum-number field.
_FLAGS = {"n": "--n", "n_r": "--nr", "l": "--l"}


# The columns of a compute or validate row.
_ROW_HEADER = [
    "system", "space", "quantum_numbers", "params_digest", "ir_closed", "ir_numeric", "rel_diff", "status",
]

_T = TypeVar("_T")


def _json_encoder() -> Callable[[object], str]:
    """json.dumps(obj, ensure_ascii=False, allow_nan=False) as one encoder
    built once, where dumps builds one per call; a non-finite float raises
    ValueError."""
    # Imported here, as only JSON output needs it: it costs every other run start-up time.
    from json import JSONEncoder

    return JSONEncoder(ensure_ascii=False, allow_nan=False).encode


def _csv_field(text: str) -> str:
    """text as csv.writer(stream, lineterminator="\\n") writes it as one field of a row.

    A field with a comma and none of '"', CR and LF is only quoted. csv.writer
    renders the rest itself, as its rule for CR has changed between Python
    versions: 3.13 quotes a field with CR, 3.10 to 3.12 do not.
    """
    if '"' in text or "\r" in text or "\n" in text:
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow([text])
        return line.getvalue()[:-1]
    return f'"{text}"' if "," in text else text


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
        encode = _json_encoder()
        for row in rows:
            stream.write(encode(dict(zip(header, row))) + "\n")
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


def _emit(out_path: str | None, write: Callable[[TextIO], _T]) -> _T:
    """write(stream) to stdout, or to out_path through a temp file in its
    directory, and return what it returns.

    The temp file is renamed over out_path once write returns and is removed
    on any exception, so the file is all-or-nothing; stdout keeps the rows
    written before an error. It takes the mode open(out_path, "w") would
    leave: an existing target's own, else 0o666 less the umask.
    """
    if not out_path:
        return write(sys.stdout)
    mode = _out_mode(out_path)
    fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as stream:
            # mkstemp creates the file 0o600, and the rename would keep that.
            os.fchmod(fd, mode)
            result = write(stream)
        os.replace(temp_path, out_path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    return result


def _out_mode(path: str) -> int:
    """The permission bits open(path, "w") leaves on path. A path that cannot
    be looked up gets the new file's mode; mkstemp or the rename then reports
    what is wrong with it."""
    try:
        return os.stat(path).st_mode & 0o777
    except OSError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


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


def _grids(
    args: argparse.Namespace,
    families: Sequence[type],
    ranges: Callable[[type], dict[str, range]],
    spaces: Sequence[str],
    empty: str,
) -> list[tuple[SystemParams, str, Iterator[tuple[int, ...]]]]:
    """(system, params digest, quantum numbers) for every system the flags
    select in families, over its family's ranges: the grid's number tuples,
    in number_fields order, each valid in every one of spaces.

    Every grid is checked (grid_numbers) before the first cell. A grid with
    no cells is left out; ValueError(empty) if every grid is.
    """
    grids = []
    for family in families:
        for params, digest in _systems(args, family):
            combinations = iter(params.grid_numbers(spaces, **ranges(family)))
            first = next(combinations, None)
            if first is not None:
                grids.append((params, digest, itertools.chain((first,), combinations)))
    if not grids:
        raise ValueError(empty)
    return grids


def _closed_form(system: SystemParams, space: str, numbers: tuple[int, ...], digest: str) -> float:
    """system.closed_form(space, numbers), closed_form_ir of that state;
    ValueError if it is not evaluated or not finite."""
    try:
        closed = system.closed_form(space, numbers)
    except OverflowError:
        # The form converts an int past the largest double to a float; its value may still fit one.
        trouble = "is not evaluated: a quantum number or an integer formed from them does not convert to a float"
    else:
        if math.isfinite(closed):
            return closed
        trouble = f"is {closed!r}, outside double range"
    raise ValueError(
        f"the closed form of {system.name} {space} {system.label(numbers)} at {digest} {trouble}"
    )


def _run_cells(
    args: argparse.Namespace,
    families: Sequence[type],
    ranges: Callable[[type], dict[str, range]],
    empty: str,
    validate: bool,
    threshold: float,
) -> tuple[int, int, int, int, float]:
    """Write a row for every cell of the grids (_grids) and return what the
    exit code and the validate summary read: the count of cells, of
    quadrature failures, of refused cells and of cells whose rel_diff exceeds
    threshold, and the largest rel_diff.

    Each cell's reference state is the node-less state of the same system,
    space and l. validate runs the quadrature oracle on every cell, on the
    QuantumState built for it there.
    """
    spaces = [POSITION, MOMENTUM] if args.space == "both" else [args.space]
    grids = _grids(args, families, ranges, spaces, empty)
    spec = f".{args.digits}g"
    as_csv = args.format == "csv"
    encode = None if as_csv else _json_encoder()

    def write_rows(stream: TextIO) -> tuple[int, int, int, int, float]:
        write = stream.write
        cells = failures = refused = over_threshold = 0
        max_rel = 0.0
        if as_csv:
            write(",".join(_ROW_HEADER) + "\n")
        for system, digest, combinations in grids:
            heads = [(space, f"{_csv_field(system.name)},{_csv_field(space)},") for space in spaces]
            digest_field = _csv_field(digest)
            for numbers in combinations:
                label = system.label(numbers)
                label_field = _csv_field(label)
                nodeless_status = STATUS_REFERENCE if system.radial_nodes(numbers) == 0 else STATUS_OK
                for space, head in heads:
                    closed = _closed_form(system, space, numbers, digest)
                    numeric = rel_diff = None
                    status = nodeless_status
                    if validate:
                        state = system.state(space, numbers)
                        try:
                            result = numeric_ir(state, args.rel_tol)
                        except RefusedStateError:
                            # The evaluator's cutoff would truncate the state: no value, and the sweep goes on.
                            status = STATUS_REFUSED
                            refused += 1
                        else:
                            numeric = result.numeric
                            rel_diff = result.rel_diff
                            if not result.quadrature.converged:
                                status = STATUS_QUADRATURE_FAILED
                                failures += 1
                            over_threshold += rel_diff > threshold
                            if rel_diff > max_rel:
                                max_rel = rel_diff
                    if as_csv:
                        numeric_field = "" if numeric is None else format(numeric, spec)
                        rel_diff_field = "" if rel_diff is None else format(rel_diff, ".3e")
                        write(
                            f"{head}{label_field},{digest_field},{closed:{spec}},"
                            f"{numeric_field},{rel_diff_field},{status}\n"
                        )
                    else:
                        row = (system.name, space, label, digest, closed, numeric, rel_diff, status)
                        write(encode(dict(zip(_ROW_HEADER, row))) + "\n")
                    cells += 1
        return cells, failures, refused, over_threshold, max_rel

    return _emit(args.out, write_rows)


def _compute_ranges(args: argparse.Namespace, family: type) -> dict[str, range]:
    """Quantum-number ranges of compute's grid: the family's fields of --n, --nr and --l (default 0)."""
    given = {"n": args.n, "n_r": args.nr, "l": "0" if args.l is None else args.l}
    return {field: _parse_range(given[field], _FLAGS[field]) for field in family.number_fields}


def _cmd_compute(args: argparse.Namespace) -> int:
    family = _FAMILIES[args.system]
    fields = family.number_fields
    given = {"n": args.n, "n_r": args.nr, "l": args.l}
    for field, text in given.items():
        if text is not None and field not in fields:
            raise ValueError(f"{family.name} takes no {_FLAGS[field]}: its quantum numbers are {', '.join(fields)}")
    for field in fields:
        if given[field] is None and field != "l":
            raise ValueError(f"{family.name} needs {_FLAGS[field]}")
    # A hydrogen grid skips the part of an --l range beyond n-1 at each n.
    _, failures, refused, _, _ = _run_cells(
        args, [family], lambda family: _compute_ranges(args, family),
        "no valid (n, l) combinations: every l exceeds n-1", args.validate, math.inf,
    )
    return EXIT_VALIDATION if failures or refused else EXIT_OK


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
    cells, failures, refused, over_threshold, max_rel = _run_cells(
        args, families, lambda family: _sweep_ranges(args, family),
        "no cells to validate: every sweep range is empty", True, args.threshold,
    )
    # Named only when there are any, so a sweep without them prints what it always did.
    refusals = f" refused={refused}" if refused else ""
    print(
        f"validate: cells={cells} max_rel_diff={max_rel:.3e} "
        f"quadrature_failures={failures} over_threshold={over_threshold}{refusals} "
        f"(threshold={args.threshold:g})",
        file=sys.stderr,
    )
    return EXIT_VALIDATION if failures or over_threshold or refused else EXIT_OK


def _reproduce_table1(args: argparse.Namespace) -> list[str]:
    # Imported here, as no other command needs it: fractions loads decimal too.
    from fractions import Fraction

    digits = args.digits if args.digits is not None else 12
    header = ["orbital", "n", "l", "ir_exact", "ir_value", "printed_value", "status"]
    rows = []
    for orbital, n, l, (numerator, denominator) in _TABLE1_ORBITALS:
        printed = Fraction(numerator, denominator)
        computed = hydrogen_position_rational(n, l)
        status = STATUS_OK if computed == printed else "mismatch"
        rows.append((orbital, n, l, str(computed), float(computed), str(printed), status))
    path = os.path.join(args.out, f"table1.{args.format}")
    _emit(path, lambda stream: _write_rows(stream, header, rows, {"ir_value": f".{digits}g"}, args.format))
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
    _emit(path, lambda stream: _write_rows(stream, header, rows, formats, args.format))
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
        _emit(path, lambda stream: _write_rows(stream, header, rows, {"value": f".{digits}g"}, args.format))
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
    _emit(args.out, lambda stream: _write_rows(stream, header, rows, formats, args.format))
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
