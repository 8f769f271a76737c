"""Command-line interface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import tracemalloc

import pytest

import relfisher.cli
import relfisher.relative_fisher
from relfisher.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main

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


def _fail_on_row(monkeypatch, k, directory=None):
    """Make the CLI's closed form raise on the k-th row; record the directory then."""
    real = relfisher.cli.closed_form_ir
    seen = {"rows": 0}

    def failing(state):
        seen["rows"] += 1
        if seen["rows"] == k:
            if directory is not None:
                seen["files"] = sorted(os.listdir(directory))
            raise ValueError("injected failure")
        return real(state)

    monkeypatch.setattr(relfisher.cli, "closed_form_ir", failing)
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
    assert "injected failure" in captured.err
    assert captured.out == ""
    # Rows were going to a temp file beside the target when the error came.
    assert len(seen["files"]) == 2 and "table.csv" in seen["files"]
    assert path.read_bytes() == b"old table\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


def test_error_mid_stream_on_stdout_keeps_the_rows_before_it(monkeypatch, capsys):
    _fail_on_row(monkeypatch, 4)
    code = run_cli(["compute", "--system", "hydrogen", "--n", "1..10", "--l", "0..9"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out.splitlines()[0] == HEADER
    assert len(parse_csv(captured.out)) == 3
    assert "error: injected failure" in captured.err
