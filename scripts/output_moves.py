#!/usr/bin/env python3
"""Check that two source trees give the same outputs on output_digests.COMMANDS.

    python3 scripts/output_moves.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the src/ directories of two checkouts. Each command
runs against both, as output_digests.py runs it. "Same outputs" means:

- every command exits with the same code in both trees;
- a command that does not validate (neither `validate` nor `--validate`)
  writes byte-identical stdout, stderr and files;
- a command that validates writes the same rows in the same order, with
  byte-identical ir_closed and status, and rel_diff moves by at most 1e-13.
  Its rows are compared in a second run with `--format json` appended, as
  CSV prints rel_diff to three digits only.

One line per command on stdout: the exit codes, whether every output is
byte-identical, and for a validating command the number of rows, of
ir_closed and of status changes, and the largest |delta rel_diff|; a failed
condition adds FAIL and its reason. A summary goes to stderr. The exit
status is 1 if any condition fails.
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import output_digests  # noqa: E402

# The largest move of a rel_diff value that still counts as the same output.
REL_DIFF_MOVE = 1e-13

_KEYS = ("system", "space", "quantum_numbers", "params_digest")


def _validates(argv: list[str]) -> bool:
    return argv[0] == "validate" or "--validate" in argv


def _json_rows(argv: list[str], src: str) -> list[dict]:
    """The rows of the command with --format json, from stdout and then from
    the files it wrote."""
    _, stdout, _, files = output_digests.run([*argv, "--format", "json"], src)
    rows = []
    for data in (stdout, *files.values()):
        rows += [json.loads(line) for line in data.decode().splitlines() if line.startswith("{")]
    return rows


def compare(argv: list[str], old_src: str, new_src: str) -> tuple[str, bool, bool]:
    """The report line for one command, whether its outputs are byte-identical,
    and whether it keeps the same outputs."""
    old, new = output_digests.run(argv, old_src), output_digests.run(argv, new_src)
    failures = []
    if old[0] != new[0]:
        failures.append("exit codes differ")
    identical = old == new
    parts = [f"exit={old[0]}/{new[0]}", f"identical={'yes' if identical else 'no'}"]
    if not _validates(argv):
        if not identical:
            failures.append("output differs")
    else:
        old_rows, new_rows = _json_rows(argv, old_src), _json_rows(argv, new_src)
        closed = status = 0
        worst = 0.0
        if [[row[k] for k in _KEYS] for row in old_rows] != [[row[k] for k in _KEYS] for row in new_rows]:
            failures.append("rows differ")
        else:
            for before, after in zip(old_rows, new_rows):
                closed += before["ir_closed"] != after["ir_closed"]
                status += before["status"] != after["status"]
                if (before["rel_diff"] is None) != (after["rel_diff"] is None):
                    worst = float("inf")
                elif before["rel_diff"] is not None:
                    worst = max(worst, abs(after["rel_diff"] - before["rel_diff"]))
        parts += [f"rows={len(new_rows)}", f"ir_closed={closed}", f"status={status}", f"rel_diff_move={worst:.2e}"]
        if closed or status:
            failures.append("ir_closed or status differs")
        if worst > REL_DIFF_MOVE:
            failures.append(f"rel_diff moves by more than {REL_DIFF_MOVE:g}")
    if failures:
        parts.append("FAIL: " + "; ".join(failures))
    return " ".join(parts + ["|", *argv]), identical, not failures


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: output_moves.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = args
    failed = changed = 0
    for command in output_digests.COMMANDS:
        line, identical, ok = compare(command, old_src, new_src)
        print(line, flush=True)
        changed += not identical
        failed += not ok
    print(f"commands={len(output_digests.COMMANDS)} changed={changed} failed={failed}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
