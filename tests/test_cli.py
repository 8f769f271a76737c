"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import types
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import relfisher.cli
import relfisher.relative_fisher
import relfisher.specfun
import relfisher.systems
from relfisher._record import replace
from relfisher.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from relfisher.data_units import (
    MoleculeRecord,
    find_molecule,
    parse_molecule_file,
    registry,
    to_atomic_units,
)
from relfisher.relative_fisher import closed_form_ir
from relfisher.systems import (
    MOMENTUM,
    POSITION,
    Hydrogenic,
    Oscillator1D,
    Oscillator3D,
    Pseudoharmonic,
    QuantumState,
    RefusedStateError,
    reference_state,
)

HEADER = "system,space,quantum_numbers,params_digest,ir_closed,ir_numeric,rel_diff,status"


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows in output: {text!r}"
    return rows


def test_compute_hydrogen_cell(capsys):
    code = run_cli(
        ["compute", "--system", "hydrogen", "--Z", "1", "--n", "3", "--l", "0",
         "--space", "position"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[0] == HEADER
    rows = parse_csv(out)
    assert rows[0]["ir_closed"] == "0.592592592593"
    assert rows[0]["status"] == "ok"
    assert rows[0]["ir_numeric"] == ""


def test_compute_qho1d_special_frequency(capsys):
    code = run_cli(
        ["compute", "--system", "qho1d", "--omega", repr(math.sqrt(2.0)), "--n", "5",
         "--space", "momentum"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert parse_csv(out)[0]["ir_closed"] == "40"

    code = run_cli(
        ["compute", "--system", "qho1d", "--omega", "1.4142135624", "--n", "5",
         "--space", "momentum"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert float(parse_csv(out)[0]["ir_closed"]) == pytest.approx(40.0, rel=1e-9)


def test_compute_php_molecule(capsys):
    code = run_cli(
        ["compute", "--system", "php", "--molecule", "Na2", "--nr", "10",
         "--space", "momentum"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert float(parse_csv(out)[0]["ir_closed"]) == pytest.approx(27.677466, abs=5e-6)


def test_compute_with_oracle_validation(capsys):
    code = run_cli(
        ["compute", "--system", "qho3d", "--omega", "0.9", "--nr", "1..2", "--l", "0",
         "--space", "both", "--validate"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert len(rows) == 4
    for row in rows:
        assert row["status"] == "ok"
        assert float(row["rel_diff"]) <= 1e-8
        assert float(row["ir_numeric"]) == pytest.approx(float(row["ir_closed"]), rel=1e-7)


def test_compute_range_expansion(capsys):
    code = run_cli(
        ["compute", "--system", "hydrogen", "--n", "2..4", "--l", "0..1", "--space", "both"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert len(parse_csv(out)) == 12


@pytest.mark.parametrize("text", ["abc", "5..2"])
def test_a_malformed_range_is_a_usage_error_that_names_its_flag(text, capsys):
    code = run_cli(["compute", "--system", "qho1d", "--n", text])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"--n must be an integer or an A..B range, got {text!r}" in captured.err


def _unconverged_numeric_ir(monkeypatch):
    """Make every oracle cell report a quadrature that did not converge."""
    real = relfisher.cli.numeric_ir

    def unconverged(state, rel_tol=1e-10):
        result = real(state, rel_tol)
        return replace(result, quadrature=replace(result.quadrature, converged=False))

    monkeypatch.setattr(relfisher.cli, "numeric_ir", unconverged)


def test_compute_validate_exits_3_on_a_quadrature_failure(capsys, monkeypatch):
    _unconverged_numeric_ir(monkeypatch)
    code = run_cli(
        ["compute", "--system", "qho1d", "--n", "0..1", "--space", "position", "--validate"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_VALIDATION
    assert [row["status"] for row in rows] == ["quadrature_failed"] * 2


def test_validate_counts_quadrature_failures(capsys, monkeypatch):
    _unconverged_numeric_ir(monkeypatch)
    code = run_cli(["validate", "--system", "qho1d", "--n-max", "2", "--space", "position"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "cells=3 " in captured.err
    assert "quadrature_failures=3 over_threshold=0" in captured.err
    assert {row["status"] for row in parse_csv(captured.out)} == {"quadrature_failed"}


def test_compute_validate_writes_a_refused_state_as_a_row(capsys):
    # The 1D oscillator's last admitted state is n = 651; the sweep goes on
    # past it, and each state beyond is a row without a numeric value.
    code = run_cli(
        ["compute", "--system", "qho1d", "--n", "650..653", "--space", "position", "--validate"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_VALIDATION
    assert [row["status"] for row in rows] == ["ok", "ok", "refused", "refused"]
    assert all(float(row["rel_diff"]) <= 1e-10 for row in rows[:2])
    assert all(row["ir_closed"] and not row["ir_numeric"] and not row["rel_diff"] for row in rows[2:])


def test_compute_validate_refuses_hydrogen_position_past_the_guard(capsys):
    # Hydrogen position shares the radial oscillators' guard: at l = 0 the
    # last admitted state is n = 323. Without it, n = 324 and 325 converged
    # to rel_diff 6e-9 and 1.7e-8, and the command exited 0.
    code = run_cli(
        ["compute", "--system", "hydrogen", "--n", "322..325", "--l", "0", "--space", "position", "--validate"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_VALIDATION
    assert [row["status"] for row in rows] == ["ok", "ok", "refused", "refused"]
    assert all(float(row["rel_diff"]) <= 1e-10 for row in rows[:2])
    assert all(row["ir_closed"] and not row["ir_numeric"] and not row["rel_diff"] for row in rows[2:])


def test_compute_validate_refuses_hydrogen_momentum_where_it_overflows(capsys):
    # The Gegenbauer factor of n = 1000, l = 190 overflows inside the
    # envelope; the command used to stop with a usage error (exit 2).
    code = run_cli(
        ["compute", "--system", "hydrogen", "--n", "1000", "--l", "190", "--space", "momentum", "--validate"]
    )
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == EXIT_VALIDATION
    assert [row["status"] for row in rows] == ["refused"]
    assert rows[0]["ir_closed"] and not rows[0]["ir_numeric"] and not rows[0]["rel_diff"]
    assert captured.err == ""


def _no_kernel(n, alpha):
    raise AssertionError(f"a degree-{n} kernel was bound")


@pytest.mark.parametrize(
    "argv",
    [
        ["--system", "qho3d", "--omega", "1e-300", "--nr", str(2**1023)],
        ["--system", "hydrogen", "--n", str(2**1023), "--l", "0"],
    ],
    ids=["qho3d", "hydrogen"],
)
def test_compute_validate_refuses_a_state_whose_log_gamma_overflows(argv, capsys, monkeypatch):
    # ln_gamma(2**1023) overflows; the closed form is finite. The command
    # used to exit 1 with a traceback from math.lgamma. The refusal comes
    # before a kernel would bind its 2**1022 recurrence steps.
    monkeypatch.setattr(relfisher.systems, "laguerre_kernel", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "laguerre_column", _no_kernel)
    code = run_cli(["compute", *argv, "--space", "position", "--validate"])
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == EXIT_VALIDATION
    assert [row["status"] for row in rows] == ["refused"]
    assert rows[0]["ir_closed"] and not rows[0]["ir_numeric"] and not rows[0]["rel_diff"]
    assert captured.err == ""


def test_compute_validate_refuses_a_hydrogen_momentum_state_of_huge_n(capsys, monkeypatch):
    # The closed form 1.6e81 is finite. The Gegenbauer kernel of n = 1e20
    # used to bind until memory ran out; the state is refused before that.
    monkeypatch.setattr(relfisher.systems, "gegenbauer_kernel", _no_kernel)
    monkeypatch.setattr(relfisher.systems, "gegenbauer_column", _no_kernel)
    code = run_cli(
        ["compute", "--system", "hydrogen", "--n", str(10**20), "--l", "0", "--space", "momentum", "--validate"]
    )
    captured = capsys.readouterr()
    rows = parse_csv(captured.out)
    assert code == EXIT_VALIDATION
    assert [row["status"] for row in rows] == ["refused"]
    assert rows[0]["ir_closed"] == "1.6e+81" and not rows[0]["ir_numeric"] and not rows[0]["rel_diff"]
    assert captured.err == ""


def test_validate_counts_refused_rows(capsys, monkeypatch):
    real = relfisher.cli.numeric_ir

    def refuse_odd(state, rel_tol=1e-10):
        if state.n % 2:
            raise RefusedStateError(f"n={state.n} refused")
        return real(state, rel_tol)

    monkeypatch.setattr(relfisher.cli, "numeric_ir", refuse_odd)
    code = run_cli(["validate", "--system", "qho1d", "--n-max", "4", "--space", "position"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "cells=5 " in captured.err
    assert "quadrature_failures=0 over_threshold=0 refused=2 " in captured.err
    statuses = [row["status"] for row in parse_csv(captured.out)]
    assert statuses == ["reference_state", "refused", "ok", "refused", "ok"]


def test_the_default_validate_grid_integrates_each_unit_scale_integral_once(capsys, monkeypatch):
    # The momentum cells of qho1d, qho3d and php integrate the unit-scale
    # integral of their position cell, and are served it instead.
    integrals = []
    integrate = relfisher.relative_fisher.integrate

    def counted(f, spec=None):
        integrals.append(integrate(f, spec))
        return integrals[-1]

    monkeypatch.setattr(relfisher.relative_fisher, "integrate", counted)
    run_cli(["validate", "--omega", "1", "--Z", "1"])
    rows = parse_csv(capsys.readouterr().out)
    served = [row for row in rows if row["space"] == "momentum" and row["system"] != "hydrogen"]
    assert (len(rows), len(served)) == (270, 99)
    assert len(integrals) == 270 - 99
    assert sum(result.evaluations for result in integrals) == 37_231


def test_each_validated_cell_reads_its_layout_once(capsys, monkeypatch):
    # The layout names a cell's unit-scale integral in the store and, on a
    # miss, gives its quadrature's unit length and breaks: one read serves
    # both, also for a cell that the store serves.
    layouts = []
    for family in (Oscillator1D, Oscillator3D, Hydrogenic, Pseudoharmonic):
        def counted(self, state, layout=family.layout):
            layouts.append(state)
            return layout(self, state)

        monkeypatch.setattr(family, "layout", counted)
    integrals = []
    integrate = relfisher.relative_fisher.integrate

    def integrated(f, spec=None):
        integrals.append(integrate(f, spec))
        return integrals[-1]

    monkeypatch.setattr(relfisher.relative_fisher, "integrate", integrated)
    monkeypatch.setattr(relfisher.relative_fisher, "_UNIT_INTEGRALS", OrderedDict())
    cells = 0
    for grid in (
        ["--system", "qho1d", "--n", "0..2"],
        ["--system", "qho3d", "--nr", "0..1", "--l", "0..1"],
        ["--system", "hydrogen", "--n", "1..3", "--l", "0..1"],
        ["--system", "php", "--molecule", "CO", "--nr", "0..1", "--l", "0..1"],
    ):
        run_cli(["compute", *grid, "--space", "both", "--validate"])
        cells += len(parse_csv(capsys.readouterr().out))
    # The momentum cells of qho1d (3), qho3d (4) and php (4) are served.
    assert (cells, len(integrals), len(layouts)) == (32, 32 - 11, 32)


def test_validate_without_refusals_prints_no_refused_count(capsys):
    assert run_cli(["validate", "--system", "qho1d", "--n-max", "2", "--space", "position"]) == EXIT_OK
    assert "refused" not in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run_cli(["compute", "--system", "qho1d", "--space", "position"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err
    assert run_cli(["compute", "--system", "nonsense"]) == EXIT_USAGE
    capsys.readouterr()
    # hydrogen with no valid l in range
    assert (
        run_cli(["compute", "--system", "hydrogen", "--n", "2", "--l", "5"]) == EXIT_USAGE
    )
    assert run_cli(["compute", "--system", "php", "--nr", "1", "--mu-amu", "1.0"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "n_flag,message",
    [("--n=-2..2", "n must be >= 1, got -2"), ("--n=0", "n must be >= 1, got 0")],
)
def test_compute_refuses_hydrogen_n_below_one(n_flag, message, tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old table\n")
    for out in ([], ["--out", str(path)]):
        assert run_cli(["compute", "--system", "hydrogen", n_flag, *out]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    assert path.read_bytes() == b"old table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


# The system each compute --system name selects here, with the flags that select it.
_CLI_SYSTEMS = {
    "qho1d": (["--omega", "1.3"], Oscillator1D(omega=1.3)),
    "qho3d": (["--omega", "0.8"], Oscillator3D(omega=0.8)),
    "hydrogen": (["--Z", "2"], Hydrogenic(Z=2.0)),
    "php": (["--molecule", "H2"], to_atomic_units(find_molecule("H2"))),
}
_RANGE_FLAGS = {"n": "--n", "n_r": "--nr", "l": "--l"}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compute_writes_nothing_for_a_grid_its_system_refuses(data):
    name = data.draw(st.sampled_from(sorted(_CLI_SYSTEMS)), label="system")
    flags, system = _CLI_SYSTEMS[name]
    space = data.draw(st.sampled_from([POSITION, MOMENTUM, "both"]), label="space")
    ranges = {}
    for field in system.number_fields:
        start = data.draw(st.integers(-3, 5), label=field)
        ranges[field] = range(start, start + data.draw(st.integers(1, 5)))
    argv = ["compute", "--system", name, "--space", space, *flags]
    argv += [f"{_RANGE_FLAGS[field]}={r.start}..{r[-1]}" for field, r in ranges.items()]
    try:
        spaces = [POSITION, MOMENTUM] if space == "both" else [space]
        rows = sum(1 for _ in system.grid(spaces, **ranges))
        error = None if rows else "no valid (n, l) combinations: every l exceeds n-1"
    except ValueError as exc:
        error = str(exc)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        for out in ([], ["--out", str(path)]):
            path.write_bytes(b"old table\n")
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = run_cli(argv + out)
            if error is None:
                assert code == EXIT_OK
                text = path.read_text(encoding="utf-8") if out else stdout.getvalue()
                assert text.count("\n") == rows + 1
            else:
                assert code == EXIT_USAGE
                assert stdout.getvalue() == ""
                assert stderr.getvalue() == f"error: {error}\n"
                assert path.read_bytes() == b"old table\n"
            assert os.listdir(directory) == ["table.csv"]


# The params digest compute writes for each of _CLI_SYSTEMS.
_CLI_DIGESTS = {"qho1d": "omega=1.3", "qho3d": "omega=0.8", "hydrogen": "Z=2", "php": "molecule=H2,constants=paper"}
# A state's interior nodes, from its fields.
_NODES = {
    "qho1d": lambda state: state.n,
    "qho3d": lambda state: state.n_r,
    "hydrogen": lambda state: state.n - state.l - 1,
    "php": lambda state: state.n_r,
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compute_rows_are_the_rows_built_state_by_state(data):
    # The row loop runs over number tuples; here each row is built from its
    # QuantumState, its closed_form_ir and its fields, as the rows were
    # before, and every family method that takes numbers is checked against
    # the state.
    name = data.draw(st.sampled_from(sorted(_CLI_SYSTEMS)), label="system")
    flags, system = _CLI_SYSTEMS[name]
    space = data.draw(st.sampled_from([POSITION, MOMENTUM, "both"]), label="space")
    output_format = data.draw(st.sampled_from(["csv", "json"]), label="format")
    fields = system.number_fields
    ranges = {}
    for field in fields:
        low = 1 if (name, field) == ("hydrogen", "n") else 0
        start = data.draw(st.integers(low, 40) | st.integers(low, 2**80), label=field)
        ranges[field] = range(start, start + data.draw(st.integers(1, 6)))
    spaces = [POSITION, MOMENTUM] if space == "both" else [space]
    rows = []
    for combo in itertools.product(*(ranges[field] for field in fields)):
        if name == "hydrogen" and combo[1] > combo[0] - 1:
            continue
        for cell_space in spaces:
            state = QuantumState(system, cell_space, **dict(zip(fields, combo)))
            closed = closed_form_ir(state)
            label = ",".join(f"{field}={getattr(state, field)}" for field in fields)
            status = "reference_state" if state == reference_state(state) else "ok"
            assert state.numbers == combo
            assert system.closed_form(cell_space, combo).hex() == closed.hex()
            assert system.radial_nodes(combo) == state.radial_nodes == _NODES[name](state)
            assert system.label(combo) == label
            rows.append((name, cell_space, label, _CLI_DIGESTS[name], closed, None, None, status))
    assume(rows)
    argv = ["compute", "--system", name, "--space", space, "--format", output_format, *flags]
    argv += [f"{_RANGE_FLAGS[field]}={r.start}..{r[-1]}" for field, r in ranges.items()]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert run_cli(argv) == EXIT_OK
    if output_format == "json":
        expected = "".join(json.dumps(dict(zip(HEADER.split(","), row)), ensure_ascii=False) + "\n" for row in rows)
    else:
        stream = io.StringIO()
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(HEADER.split(","))
        writer.writerows([*text, format(closed, ".12g"), None, None, status] for *text, closed, _, _, status in rows)
        expected = stream.getvalue()
    assert stdout.getvalue() == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--system", "hydrogen", "--space", "momentum", "--n-max", "3",
         "--threshold", "nan"],
        ["validate", "--system", "qho1d", "--n-max", "2", "--threshold", "-1"],
        ["compute", "--system", "php", "--molecule", "CO", "--nr", "30", "--space", "position",
         "--validate", "--rel-tol", "inf"],
        ["compute", "--system", "qho1d", "--n", "1", "--validate", "--rel-tol", "-1"],
        ["compute", "--system", "qho1d", "--n", "1", "--digits", "-3"],
    ],
    ids=["threshold-nan", "threshold-negative", "rel-tol-inf", "rel-tol-negative",
         "digits-negative"],
)
def test_bad_run_parameters_write_nothing(argv, capsys):
    assert run_cli(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = next(arg for arg in argv if arg in ("--threshold", "--rel-tol", "--digits"))
    assert flag in captured.err


@pytest.mark.parametrize(
    "system,extra,flag",
    [
        ("qho1d", ["--n", "1"], "--l"),
        ("hydrogen", ["--n", "2"], "--nr"),
        ("qho3d", ["--nr", "1"], "--n"),
        ("php", ["--nr", "1", "--molecule", "H2"], "--n"),
    ],
)
def test_compute_rejects_quantum_numbers_the_system_does_not_take(system, extra, flag, capsys):
    assert run_cli(["compute", "--system", system, *extra, flag, "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{system} takes no {flag}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--system", "hydrogen", "--n-max", "0"],
    ],
)
def test_empty_validate_sweep_is_a_usage_error(argv, capsys):
    assert run_cli(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no cells to validate" in captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["validate", "--n-max", "-1"], "--n-max"),
        (["validate", "--l-max", "-1"], "--l-max"),
        (["validate", "--system", "php", "--molecule", "H2", "--nr-max", "-1"], "--nr-max"),
        (["validate", "--n-max", "-1", "--nr-max", "-1", "--l-max", "-1"], "--n-max"),
    ],
    ids=["n-max", "l-max", "nr-max", "all"],
)
def test_negative_sweep_maximum_is_a_usage_error(argv, flag, capsys):
    # A negative maximum empties its systems' grids, so the sweep would leave
    # them out without a word: `--n-max -1` drops the 1D oscillator and
    # hydrogen, `--l-max -1` the 3D oscillator.
    assert run_cli(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be >= 0" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--system", "qho1d", "--n-max", "1", "--nr-max", "-1", "--l-max", "-1"],
        ["validate", "--system", "hydrogen", "--n-max", "2", "--nr-max", "-1", "--l-max", "-1"],
        ["validate", "--system", "php", "--molecule", "H2", "--nr-max", "1", "--n-max", "-1",
         "--l-max", "-1"],
    ],
    ids=["qho1d", "hydrogen", "php"],
)
def test_a_maximum_the_system_does_not_read_is_not_checked(argv, capsys):
    assert run_cli([*argv, "--space", "position"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "must be >= 0" not in captured.err
    assert parse_csv(captured.out)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize(
    "argv,cell",
    [
        (["compute", "--system", "qho1d", "--omega", "1e308", "--n", "5"], "qho1d position n=5"),
        (["compute", "--system", "qho3d", "--omega", "1e308", "--nr", "0..1", "--l", "0"],
         "qho3d position n_r=1,l=0"),
        (["compute", "--system", "hydrogen", "--Z", "1e-160", "--n", "3", "--space", "momentum"],
         "hydrogen momentum n=3,l=0"),
        # Z * Z underflows to 0, so the momentum form divides by zero.
        (["compute", "--system", "hydrogen", "--Z", "1e-170", "--n", "3", "--space", "momentum"],
         "hydrogen momentum n=3,l=0"),
    ],
    ids=["qho1d", "qho3d", "hydrogen", "hydrogen-underflow"],
)
def test_a_closed_form_outside_double_range_is_an_error(argv, cell, output_format, tmp_path, capsys):
    # Infinity is not valid JSON, and inf is not a value.
    err = _usage_error_leaves_the_output_alone(argv, output_format, tmp_path, capsys)
    assert f"closed form of {cell} at " in err
    assert "is inf, outside double range" in err


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize(
    "argv,cell",
    [
        (["compute", "--system", "qho1d", "--n", str(2**1024)], f"qho1d position n={2**1024}"),
        # 8 (omega / sqrt 2) n is about 1e9, but n does not convert to a float.
        (["compute", "--system", "qho1d", "--omega", "1e-300", "--n", str(2**1024)],
         f"qho1d position n={2**1024}"),
        (["compute", "--system", "qho3d", "--nr", str(2**1024)], f"qho3d position n_r={2**1024},l=0"),
        (["compute", "--system", "php", "--molecule", "CO", "--nr", str(2**1024)],
         f"php position n_r={2**1024},l=0"),
        # n converts; the integer 16 n^2 (n^2 - (l+1)^2) does not.
        (["compute", "--system", "hydrogen", "--n", str(10**80), "--space", "momentum"],
         f"hydrogen momentum n={10**80},l=0"),
    ],
    ids=["qho1d", "qho1d-tiny-omega", "qho3d", "php", "hydrogen"],
)
def test_a_quantum_number_past_the_largest_double_is_an_error(argv, cell, output_format, tmp_path, capsys):
    err = _usage_error_leaves_the_output_alone(argv, output_format, tmp_path, capsys)
    assert f"closed form of {cell} at " in err
    assert "is not evaluated: a quantum number or an integer formed from them does not convert to a float" in err
    assert "inf" not in err


def _usage_error_leaves_the_output_alone(argv, output_format, tmp_path, capsys):
    """Run argv with --out into tmp_path: exit 2, nothing written, and the stderr."""
    target = tmp_path / "table.out"
    target.write_bytes(b"old table\n")
    code = run_cli([*argv, "--format", output_format, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert target.read_bytes() == b"old table\n"
    assert os.listdir(tmp_path) == ["table.out"]
    return captured.err


def test_a_hydrogen_grid_runs_past_the_largest_range_length(capsys):
    # len() of a range stops at sys.maxsize, 2**63 - 1 on 64-bit builds; the
    # grid takes no length, so every row is written.
    n = 2**63 - 1
    code = run_cli(["compute", "--system", "hydrogen", "--n", f"{n}..{n + 1}", "--l", "0..1", "--space", "both"])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    rows = parse_csv(captured.out)
    assert [(row["space"], row["quantum_numbers"]) for row in rows] == [
        (space, f"n={m},l={l}") for m in (n, n + 1) for l in (0, 1) for space in ("position", "momentum")
    ]


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_validate_stops_at_a_closed_form_outside_double_range(
    output_format, tmp_path, capsys, monkeypatch
):
    # The overflow is put in by hand, at a cell after the first, so that the
    # rows before it show that an --out file stays untouched. The row loop
    # takes each row's closed form from the family method.
    real = Oscillator1D.closed_form
    monkeypatch.setattr(
        Oscillator1D, "closed_form",
        lambda self, space, numbers: math.inf if numbers == (2,) else real(self, space, numbers),
    )
    target = tmp_path / "table.out"
    target.write_bytes(b"old table\n")
    code = run_cli(
        ["validate", "--system", "qho1d", "--n-max", "3", "--space", "position",
         "--format", output_format, "--out", str(target)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "closed form of qho1d position n=2 at omega=1 is inf" in captured.err
    assert target.read_bytes() == b"old table\n"
    assert os.listdir(tmp_path) == ["table.out"]


@pytest.mark.parametrize(
    "argv,cell",
    [
        (["--system", "hydrogen", "--Z", "1e-160", "--n-max", "2", "--space", "momentum"],
         "hydrogen momentum n=2,l=0 at Z=1e-160"),
        (["--system", "qho3d", "--omega", "1e308", "--nr-max", "1", "--l-max", "0",
          "--space", "position"],
         "qho3d position n_r=1,l=0 at omega=1e+308"),
    ],
    ids=["hydrogen", "qho3d"],
)
def test_validate_writes_the_reference_row_before_a_closed_form_outside_double_range(
    argv, cell, capsys
):
    # At these scales the evaluators overflowed on the reference cell, and
    # the sweep stopped with "integrand returned nan" before its first row.
    code = run_cli(["validate", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    rows = parse_csv(captured.out)
    assert [(row["ir_closed"], row["ir_numeric"], row["status"]) for row in rows] == [
        ("0", "0", "reference_state")
    ]
    assert f"closed form of {cell} is inf, outside double range" in captured.err


def test_json_rows_refuse_non_finite_values():
    with pytest.raises(ValueError):
        relfisher.cli._write_rows(io.StringIO(), ["value"], [(math.inf,)], {}, "json")


# Text with every character csv.writer treats specially, and plain ones.
_FIELD_TEXT = st.text(alphabet=st.sampled_from(list('ab= ,"\n\r')), min_size=1, max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    name=_FIELD_TEXT,
    digest=_FIELD_TEXT,
    labels=st.lists(_FIELD_TEXT, min_size=3, max_size=3),
    # per cell: the closed form, and the oracle's (numeric, rel_diff, converged) or None for a refusal
    cells=st.lists(
        st.tuples(_FINITE, st.none() | st.tuples(_FINITE, _FINITE, st.booleans())), min_size=6, max_size=6
    ),
    digits=st.integers(0, 17),
)
# csv.writer at lineterminator "\n" quotes a field with LF; whether it quotes
# one with CR depends on the Python version (3.13 does, 3.11 does not).
@example(
    name="a\rb", digest='a"b', labels=["a,b", "a\nb", "ab"], cells=[(1.5, (1.5, 0.0, True))] * 6, digits=12
)
def test_cell_rows_are_the_bytes_csv_writer_writes(name, digest, labels, cells, digits):
    # The row loop writes through compute --validate, with the closed forms,
    # the oracle's results and the text fields replaced by the drawn ones.
    def fake_numeric_ir(state, rel_tol):
        result = next(oracle)
        if result is None:
            raise RefusedStateError("refused")
        numeric, rel_diff, converged = result
        return types.SimpleNamespace(
            numeric=numeric, rel_diff=rel_diff, quadrature=types.SimpleNamespace(converged=converged)
        )

    argv = ["compute", "--system", "hydrogen", "--n", "1..3", "--space", "both", "--validate",
            "--digits", str(digits)]
    outputs = {}
    for output_format in ("csv", "json"):
        closed_forms = iter(closed for closed, _ in cells)
        oracle = iter(result for _, result in cells)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(relfisher.cli, "_systems", lambda args, family: [(Hydrogenic(Z=1.0), digest)])
            patch.setattr(Hydrogenic, "closed_form", lambda self, space, numbers: next(closed_forms))
            patch.setattr(relfisher.cli, "numeric_ir", fake_numeric_ir)
            patch.setattr(Hydrogenic, "name", name)
            patch.setattr(Hydrogenic, "label", lambda self, numbers: labels[numbers[0] - 1])
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main([*argv, "--format", output_format])
        outputs[output_format] = stdout.getvalue()

    spec = f".{digits}g"
    rows = []
    for i, (closed, result) in enumerate(cells):
        n, space = i // 2 + 1, (POSITION, MOMENTUM)[i % 2]
        numeric = rel_diff = None
        status = "reference_state" if n == 1 else "ok"
        if result is None:
            status = "refused"
        else:
            numeric, rel_diff, converged = result
            if not converged:
                status = "quadrature_failed"
        rows.append((name, space, labels[n - 1], digest, closed, numeric, rel_diff, status))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(HEADER.split(","))
    for *text, closed, numeric, rel_diff, status in rows:
        writer.writerow([
            *text,
            format(closed, spec),
            None if numeric is None else format(numeric, spec),
            None if rel_diff is None else format(rel_diff, ".3e"),
            status,
        ])
    assert outputs["csv"] == expected.getvalue()
    assert outputs["json"] == "".join(
        json.dumps(dict(zip(HEADER.split(","), row)), ensure_ascii=False) + "\n" for row in rows
    )
    failed = any(row[-1] in ("refused", "quadrature_failed") for row in rows)
    assert code == (EXIT_VALIDATION if failed else EXIT_OK)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--system", "php", "--nr", "0..1", "--space", "both"],
        ["validate", "--system", "php", "--nr-max", "1", "--space", "both"],
    ],
    ids=["compute", "validate"],
)
def test_a_molecule_name_with_a_quote_is_quoted_once_in_every_row(argv, tmp_path, capsys):
    path = tmp_path / "quoted.csv"
    path.write_text('X"Y, test state, 1.5, 0.2, 1.4, local\n', encoding="utf-8")
    argv = [*argv, "--molecule", 'X"Y', "--molecule-file", str(path)]
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 5
    assert all(',"molecule=X""Y,constants=paper",' in line for line in lines[1:])
    assert {row["params_digest"] for row in parse_csv(captured.out)} == {'molecule=X"Y,constants=paper'}
    out = tmp_path / "rows.csv"
    assert run_cli([*argv, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == captured.out


def test_validate_small_sweep(capsys):
    code = run_cli(
        ["validate", "--system", "qho3d", "--omega", "1", "--nr-max", "2", "--l-max", "1",
         "--space", "position"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "validate: cells=6" in captured.err
    assert "over_threshold=0" in captured.err
    rows = parse_csv(captured.out)
    max_rel = max(float(r["rel_diff"]) for r in rows if r["rel_diff"])
    assert max_rel <= 1e-8


def test_validate_hydrogen_position_passes(capsys):
    code = run_cli(
        ["validate", "--system", "hydrogen", "--n-max", "3", "--space", "position"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "over_threshold=0" in captured.err


def test_validate_hydrogen_momentum_reports_known_disagreement(capsys):
    # the bundled closed form does not satisfy the defining integral here,
    # and the sweep must say so rather than pass
    code = run_cli(
        ["validate", "--system", "hydrogen", "--n-max", "3", "--space", "momentum"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "over_threshold=3" in captured.err
    rows = parse_csv(captured.out)
    flagged = [r for r in rows if r["rel_diff"] and float(r["rel_diff"]) > 1e-8]
    assert {(r["quantum_numbers"]) for r in flagged} == {"n=2,l=0", "n=3,l=0", "n=3,l=1"}


def test_validate_detects_corrupted_closed_form(capsys, monkeypatch):
    real = relfisher.relative_fisher.closed_form_ir

    def corrupted(state):
        value = real(state)
        return value * 1.001 if value else value

    monkeypatch.setattr(relfisher.relative_fisher, "closed_form_ir", corrupted)
    code = run_cli(["validate", "--system", "qho1d", "--n-max", "2", "--space", "position"])
    capsys.readouterr()
    assert code == EXIT_VALIDATION


def test_validate_threshold_flag(capsys):
    code = run_cli(
        ["validate", "--system", "qho1d", "--n-max", "2", "--space", "position",
         "--threshold", "1e-16"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "threshold=1e-16" in captured.err


def test_php_validate_with_molecule_file(tmp_path, capsys):
    path = tmp_path / "custom.csv"
    path.write_text("XY, test state, 1.5, 0.2, 1.4, local\n", encoding="utf-8")
    code = run_cli(
        ["validate", "--system", "php", "--molecule", "XY", "--molecule-file", str(path),
         "--nr-max", "1"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "molecule=XY" in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["molecules"],
        ["molecules", "--format", "json"],
        ["compute", "--system", "php", "--molecule", "X", "--nr", "0"],
    ],
    ids=["molecules", "molecules-json", "compute"],
)
def test_a_molecule_file_with_an_infinite_value_is_refused_with_its_line(argv, tmp_path, capsys):
    path = tmp_path / "extra.csv"
    path.write_text("X,lab,inf,1.0,1.0,src\n", encoding="utf-8")
    code = run_cli([*argv, "--molecule-file", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert f"{path}:1: mu_amu must be positive and finite" in captured.err


def test_validate_takes_the_adhoc_php_triple(capsys):
    code = run_cli(
        ["validate", "--system", "php", "--mu-amu", "1", "--de-ev", "1", "--re-angstrom", "1",
         "--nr-max", "1"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert len(rows) == 4
    assert {row["params_digest"] for row in rows} == {"mu_amu=1,de_ev=1,re_angstrom=1,constants=paper"}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--system", "php", "--mu-amu", "1", "--nr-max", "1"],
        ["compute", "--system", "php", "--mu-amu", "1", "--nr", "1"],
    ],
    ids=["validate", "compute"],
)
def test_a_partial_php_triple_is_a_usage_error(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "--mu-amu, --de-ev and --re-angstrom must be given together" in captured.err
    assert captured.out == ""


def test_compute_php_without_a_molecule_covers_the_registry(capsys):
    code = run_cli(["compute", "--system", "php", "--nr", "1", "--space", "position"])
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [row["params_digest"] for row in rows] == [
        f"molecule={record.name},constants=paper" for record in registry()
    ]
    for row, record in zip(rows, registry()):
        state = QuantumState(system=to_atomic_units(record), space=POSITION, n_r=1, l=0)
        assert row["ir_closed"] == format(closed_form_ir(state), ".12g")


def test_a_molecule_file_record_replaces_its_registry_molecule_in_a_sweep(tmp_path, capsys):
    path = tmp_path / "custom.csv"
    path.write_text("CO, test state, 1.5, 0.2, 1.4, local\n", encoding="utf-8")
    code = run_cli(
        ["validate", "--system", "php", "--molecule-file", str(path), "--nr-max", "1",
         "--space", "position"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [row["params_digest"] for row in rows] == [
        f"molecule={record.name},constants=paper" for record in registry() for _ in range(2)
    ]
    co = [row for row in rows if row["params_digest"].startswith("molecule=CO,")]
    state = QuantumState(
        system=to_atomic_units(parse_molecule_file(str(path))[0]), space=POSITION, n_r=1, l=0
    )
    registry_state = QuantumState(
        system=to_atomic_units(find_molecule("CO")), space=POSITION, n_r=1, l=0
    )
    assert co[1]["ir_closed"] == format(closed_form_ir(state), ".12g")
    assert co[1]["ir_closed"] != format(closed_form_ir(registry_state), ".12g")


# A file saved with a UTF-8 byte-order mark, as some editors write CSV.
_BOM = "\ufeff"


def test_a_molecule_file_with_a_byte_order_mark_names_its_first_molecule(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_text(f"{_BOM}XY, test state, 1.5, 0.2, 1.4, local\n", encoding="utf-8")
    code = run_cli(
        ["compute", "--system", "php", "--molecule", "XY", "--molecule-file", str(path),
         "--nr", "1", "--space", "position"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    assert [row["params_digest"] for row in rows] == ["molecule=XY,constants=paper"]


def test_molecules_lists_a_byte_order_marked_record_by_its_name(tmp_path, capsysbinary):
    path = tmp_path / "bom.csv"
    path.write_text(f"{_BOM}XY, test state, 1.5, 0.2, 1.4, local\n", encoding="utf-8")
    code = run_cli(["molecules", "--molecule-file", str(path)])
    out = capsysbinary.readouterr().out
    assert code == EXIT_OK
    assert _BOM.encode("utf-8") not in out
    assert out.decode("utf-8").splitlines()[-1].split(",")[0] == "XY"


def test_a_byte_order_marked_record_replaces_its_registry_molecule(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_text(f"{_BOM}CO, test state, 1.5, 0.2, 1.4, local\n", encoding="utf-8")
    code = run_cli(
        ["compute", "--system", "php", "--molecule", "CO", "--molecule-file", str(path),
         "--nr", "1", "--space", "position"]
    )
    rows = parse_csv(capsys.readouterr().out)
    assert code == EXIT_OK
    record = MoleculeRecord("CO", "test state", 1.5, 0.2, 1.4, "local")
    state = QuantumState(system=to_atomic_units(record), space=POSITION, n_r=1, l=0)
    registry_state = QuantumState(
        system=to_atomic_units(find_molecule("CO")), space=POSITION, n_r=1, l=0
    )
    assert [row["ir_closed"] for row in rows] == [format(closed_form_ir(state), ".12g")]
    assert rows[0]["ir_closed"] != format(closed_form_ir(registry_state), ".12g")


def test_reproduce_table1(tmp_path, capsys):
    out_dir = tmp_path / "t1"
    code = run_cli(["reproduce", "table1", "--out", str(out_dir)])
    assert code == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    text = (out_dir / "table1.csv").read_text(encoding="utf-8")
    rows = parse_csv(text)
    assert len(rows) == 16
    by_orbital = {r["orbital"]: r for r in rows}
    assert by_orbital["3s"]["ir_exact"] == "16/27"
    assert by_orbital["3s"]["status"] == "ok"
    assert by_orbital["8f"]["ir_exact"] == "1/16"
    assert by_orbital["8f"]["printed_value"] == "1/6"
    assert by_orbital["8f"]["status"] == "mismatch"
    assert sum(1 for r in rows if r["status"] == "ok") == 15


def test_reproduce_table3_values_and_determinism(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_cli(["reproduce", "table3", "--out", str(first)]) == EXIT_OK
    assert run_cli(["reproduce", "table3", "--out", str(second)]) == EXIT_OK
    capsys.readouterr()
    blob_a = (first / "table3.csv").read_bytes()
    blob_b = (second / "table3.csv").read_bytes()
    assert blob_a == blob_b
    assert b"\r" not in blob_a

    rows = parse_csv(blob_a.decode("utf-8"))
    assert len(rows) == 42
    cells = {(r["molecule"], int(r["n_r"])): r for r in rows}
    assert float(cells[("H2", 1)]["ir_position"]) == pytest.approx(202.676044, abs=5e-6)
    assert float(cells[("H2", 1)]["ir_momentum"]) == pytest.approx(1.263099, abs=5e-6)
    assert float(cells[("Cl2", 25)]["ir_position"]) == pytest.approx(8164.621018, abs=5e-6)
    assert float(cells[("NO", 100)]["ir_momentum"]) == pytest.approx(39.102115, abs=5e-6)


def test_reproduce_figure1(tmp_path, capsys):
    out_dir = tmp_path / "fig"
    code = run_cli(["reproduce", "figure1", "--out", str(out_dir)])
    capsys.readouterr()
    assert code == EXIT_OK
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "figure1_momentum_even.csv",
        "figure1_momentum_odd.csv",
        "figure1_position_even.csv",
        "figure1_position_odd.csv",
    ]
    even = parse_csv((out_dir / "figure1_position_even.csv").read_text(encoding="utf-8"))
    assert len(even) == 49 + 47 + 45 + 43
    l0 = {int(r["n"]): float(r["value"]) for r in even if r["l"] == "0"}
    assert max(l0, key=l0.get) == 2
    assert l0[2] == 1.0
    momentum = parse_csv((out_dir / "figure1_momentum_even.csv").read_text(encoding="utf-8"))
    lm = {int(r["n"]): float(r["value"]) for r in momentum if r["l"] == "0"}
    assert lm[2] == pytest.approx(math.log(192.0), rel=1e-12)


def test_json_mirror(capsys):
    code = run_cli(
        ["compute", "--system", "hydrogen", "--n", "3", "--l", "0", "--space", "position",
         "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    objects = [json.loads(line) for line in out.splitlines() if line]
    assert len(objects) == 1
    row = objects[0]
    assert row["ir_closed"] == pytest.approx(16.0 / 27.0, rel=1e-15)
    assert row["ir_numeric"] is None
    assert row["status"] == "ok"
    assert row["system"] == "hydrogen"


def test_molecules_listing(capsys):
    code = run_cli(["molecules"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = parse_csv(out)
    assert [r["name"] for r in rows] == ["H2", "Na2", "Cl2", "O2+", "CO", "NO"]
    assert rows[1]["source"] == "yahya2015"


def test_molecules_digits_sets_the_printed_precision(capsys):
    assert run_cli(["molecules", "--digits", "3"]) == EXIT_OK
    rows = parse_csv(capsys.readouterr().out)
    for row, record in zip(rows, registry(), strict=True):
        assert row["name"] == record.name
        assert row["mu_amu"] == format(record.mu_amu, ".3g")
        assert row["de_ev"] == format(record.de_ev, ".3g")
        assert row["re_angstrom"] == format(record.re_angstrom, ".3g")
    assert rows[0]["mu_amu"] == "0.504"


def test_out_file_is_clean_csv(tmp_path, capsys):
    path = tmp_path / "row.csv"
    code = run_cli(
        ["compute", "--system", "qho1d", "--n", "1", "--space", "position", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == EXIT_OK
    blob = path.read_bytes()
    assert blob.endswith(b"\n")
    assert b"\r" not in blob


_OUT_COMMANDS = {
    "compute": (["compute", "--system", "qho1d", "--n", "0..2"], None),
    "validate": (["validate", "--system", "qho1d", "--n-max", "2"], None),
    "molecules": (["molecules"], None),
    "reproduce": (["reproduce", "table1"], "table1.csv"),
}


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_an_out_file_takes_the_mode_open_would_give(command, tmp_path, capsys):
    # A new file gets 0o666 less the umask, and an existing one keeps its own
    # mode, as with open(path, "w"); mkstemp alone would leave 0o600.
    argv, name = _OUT_COMMANDS[command]
    old_umask = os.umask(0o027)
    try:
        for existing_mode, expected in ((None, 0o640), (0o604, 0o604)):
            target = tmp_path / f"{command}-{existing_mode}"
            out = target / name if name else target
            if name:
                target.mkdir()
            if existing_mode is not None:
                out.write_bytes(b"old\n")
                os.chmod(out, existing_mode)
            assert run_cli([*argv, "--out", str(target)]) == EXIT_OK
            assert out.read_bytes() != b"old\n"
            assert os.stat(out).st_mode & 0o777 == expected, oct(os.stat(out).st_mode)
    finally:
        os.umask(old_umask)
    capsys.readouterr()


def test_console_script_smoke():
    proc = subprocess.run(
        ["relfisher", "compute", "--system", "hydrogen", "--n", "2", "--l", "0",
         "--space", "position"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0] == HEADER
    assert ",1," in proc.stdout.splitlines()[1] or ",1\n" in proc.stdout


def test_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "not_a_dir"
    target.write_text("occupied", encoding="utf-8")
    code = run_cli(
        ["compute", "--system", "qho1d", "--n", "1", "--space", "position",
         "--out", str(target / "row.csv")]
    )
    captured = capsys.readouterr()
    assert code == EXIT_IO
    assert "i/o error" in captured.err


def test_compute_streams_rows_in_memory_that_does_not_grow_with_the_table(tmp_path):
    path = tmp_path / "rows.csv"
    rows = 10_100  # 5050 (n, l) pairs in two spaces
    tracemalloc.start()
    try:
        code = run_cli(
            ["compute", "--system", "hydrogen", "--n", "1..100", "--l", "0..99", "--out", str(path)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert path.read_text(encoding="utf-8").count("\n") == rows + 1
    assert peak / rows < 300, f"{peak / rows:.0f} B per row"


def test_compute_peak_memory_does_not_grow_with_the_grid(tmp_path):
    # States stream from the grid to the file one by one; none are held.
    assert run_cli(["compute", "--system", "hydrogen", "--n", "1", "--out", str(tmp_path / "warm")]) == EXIT_OK
    peaks = {}
    for n_max, rows in ((100, 10_100), (200, 40_200)):
        path = tmp_path / f"rows{rows}.csv"
        tracemalloc.start()
        try:
            code = run_cli(
                ["compute", "--system", "hydrogen", "--n", f"1..{n_max}", "--l", f"0..{n_max - 1}",
                 "--out", str(path)]
            )
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert path.read_text(encoding="utf-8").count("\n") == rows + 1
    assert peaks[40_200] <= 1.25 * peaks[10_100], peaks


def _fail_on_row(monkeypatch, k, directory=None):
    """Make the hydrogen closed form, which the CLI's row loop takes once per
    row, raise on the k-th row; record the directory then."""
    real = Hydrogenic.closed_form
    seen = {"rows": 0}

    def failing(self, space, numbers):
        seen["rows"] += 1
        if seen["rows"] == k:
            if directory is not None:
                seen["files"] = sorted(os.listdir(directory))
            raise ValueError("injected failure")
        return real(self, space, numbers)

    monkeypatch.setattr(Hydrogenic, "closed_form", failing)
    return seen


def test_error_mid_stream_keeps_the_old_out_file_and_removes_the_temp_file(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "table.csv"
    path.write_bytes(b"old table\n")
    seen = _fail_on_row(monkeypatch, 40, directory=tmp_path)
    code = run_cli(
        ["compute", "--system", "hydrogen", "--n", "1..10", "--l", "0..9", "--out", str(path)]
    )
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert seen["rows"] == 40
    assert "injected failure" in captured.err
    assert captured.out == ""
    # Rows were going to a temp file beside the target when the error came.
    assert len(seen["files"]) == 2 and "table.csv" in seen["files"]
    assert path.read_bytes() == b"old table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_error_mid_stream_on_stdout_keeps_the_rows_before_it(monkeypatch, capsys):
    seen = _fail_on_row(monkeypatch, 4)
    code = run_cli(["compute", "--system", "hydrogen", "--n", "1..10", "--l", "0..9"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert seen["rows"] == 4
    assert captured.out.splitlines()[0] == HEADER
    assert len(parse_csv(captured.out)) == 3
    assert "error: injected failure" in captured.err


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_extremes_finds_every_cell_ok(capsys):
    extremes = _load_script("oracle_extremes")
    assert extremes.main() == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 510
    assert captured.err == "ok=510 silently-wrong=0 non-converged=0 raised=0\n"


def test_oracle_point_cost_runs_each_grid_from_empty_tables(monkeypatch, capsys):
    cost = _load_script("oracle_point_cost")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    # A column with a panel table left by another sweep: no run starts from it.
    stale = relfisher.specfun._Column(0)
    stale.states[(0.5, 0.1, 1.0, 1.0, 0.0, False)] = ()
    monkeypatch.setattr(relfisher.specfun, "_LIVE", {"laguerre": {1.5: stale}})
    numeric_ir, stale_at = relfisher.relative_fisher.numeric_ir, []

    def watched(state, rel_tol=1e-10):
        live = relfisher.specfun._LIVE.values()
        stale_at.append(any(column is stale for columns in live for column in columns.values()))
        return numeric_ir(state, rel_tol)

    monkeypatch.setattr(relfisher.relative_fisher, "numeric_ir", watched)
    assert cost.main(["--runs", "1"]) == 0
    assert stale_at and not any(stale_at)
    totals = [line.split() for line in capsys.readouterr().out.splitlines() if line.split()[1:2] == ["all"]]
    # grid, "all", integrals, evaluations, ns/eval (median), ns/eval (least)
    assert [total[:4] for total in totals] == [["default", "all", "171", "37231"], ["CO", "all", "61", "43152"]]
    assert all(int(total[4]) == int(total[5]) > 0 for total in totals)


def test_output_digests_hashes_what_each_command_writes(tmp_path, monkeypatch, capsys):
    digests = _load_script("output_digests")
    compute = ["compute", "--system", "qho1d", "--n", "0..3"]
    reproduce = ["reproduce", "table1", "--format", "json"]
    monkeypatch.setattr(digests, "COMMANDS", [compute, reproduce])
    assert digests.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2

    def sha(text):
        return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()

    assert run_cli(compute) == EXIT_OK
    captured = capsys.readouterr()
    assert lines[0] == f"exit=0 stdout={sha(captured.out)} stderr={sha(captured.err)} | {' '.join(compute)}"
    monkeypatch.chdir(tmp_path)
    assert run_cli(reproduce) == EXIT_OK
    captured = capsys.readouterr()
    table = sha((tmp_path / "table1.json").read_bytes())
    assert lines[1] == (
        f"exit=0 stdout={sha(captured.out)} stderr={sha(captured.err)} table1.json={table} "
        f"| {' '.join(reproduce)}"
    )


def test_output_moves_sees_no_move_between_a_tree_and_itself(monkeypatch, capsys):
    moves = _load_script("output_moves")
    validate = ["validate", "--system", "qho3d", "--nr-max", "2", "--l-max", "1"]
    monkeypatch.setattr(moves.output_digests, "COMMANDS", [validate])
    src = str(Path(__file__).resolve().parents[1] / "src")
    assert moves.main([src, src]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        f"exit=0/0 identical=yes rows=12 ir_closed=0 status=0 rel_diff_move=0.00e+00 | {' '.join(validate)}\n"
    )
    assert captured.err == "commands=1 changed=0 failed=0\n"


def test_output_moves_fails_on_a_moved_status(monkeypatch, capsys):
    moves = _load_script("output_moves")
    validate = ["validate", "--system", "qho3d", "--nr-max", "1", "--l-max", "0"]
    monkeypatch.setattr(moves.output_digests, "COMMANDS", [validate])
    run = moves.output_digests.run
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run_in(argv, tree):
        code, stdout, stderr, files = run(argv, src)
        if tree == "new":
            stdout = stdout.replace(b"ok", b"quadrature_failed")
        return code, stdout, stderr, files

    monkeypatch.setattr(moves.output_digests, "run", run_in)
    assert moves.main(["old", "new"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "exit=0/0 identical=no rows=4 ir_closed=0 status=2 rel_diff_move=0.00e+00 "
        f"FAIL: ir_closed or status differs | {' '.join(validate)}\n"
    )
    assert captured.err == "commands=1 changed=1 failed=1\n"
