"""Correctness gate: compares each CLI output with the output of the commit the
benchmark was defined on (golden.json) and counts failed cells.

validate rows: ir_closed and status must be byte-identical to the golden row,
and ir_numeric must be within 1e-8 (the CLI's default threshold) of the exact
value of the defining integral. That value is the closed form, except for
hydrogen momentum cells, where the tabulated closed form is known to disagree
with the integral; there it is the integral's own exact rational form, and a
cell that matches it while the CLI reports a disagreement is counted as a
known discrepancy, not as a failure.

compute and reproduce outputs must match the golden sha256 byte for byte.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

THRESHOLD = 1e-8
HEADER = ["system", "space", "quantum_numbers", "params_digest",
          "ir_closed", "ir_numeric", "rel_diff", "status"]
REPRODUCE_TARGETS = ("table1", "table3", "figure1")
# `relfisher validate` exits 3 when any cell disagrees with its closed form;
# the default grid always holds the 28 known hydrogen-momentum discrepancies.
VALIDATE_EXIT_CODES = (0, 3)


@dataclass
class Verdict:
    """Outcome of checking one output: cells attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    known_discrepancy: int = 0
    numeric_rows: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.known_discrepancy += other.known_discrepancy
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hydrogen_momentum_integral(n: int, l: int, z: float) -> float:
    """Exact value of the defining momentum-space integral for a hydrogen-like
    (n, l) state against the circular reference (72 at n=2, l=0, Z=1)."""
    k = n - l - 1
    if k == 0:
        return 0.0
    correction = Fraction(k * (n + l + 2), n + 1)
    if n - l - 2 > 0:
        correction += Fraction((n - l - 2) * (n + l + 1), n - 1)
    exact = 4 * n * n * k * (n + l + 1) * (1 + Fraction(3, 4 * n) * correction)
    return float(exact) / (z * z)


def _quantum_numbers(text: str) -> dict[str, int]:
    return {key: int(value) for key, value in (part.split("=") for part in text.split(","))}


def rel_diff(value: float, exact: float) -> float:
    return abs(value - exact) / max(abs(exact), 1e-12)


def validate_groups(variant: dict) -> list[str]:
    """Golden row groups whose concatenation is the expected validate output."""
    if "molecule" in variant:
        return [f"php@{variant['molecule']}"]
    omega, z = format(variant["omega"], "g"), format(variant["Z"], "g")
    return [f"qho1d@omega={omega}", f"qho3d@omega={omega}", f"hydrogen@Z={z}", "php@registry"]


def expected_validate_rows(golden: dict, variant: dict) -> list[list[str]]:
    rows = []
    for group in validate_groups(variant):
        system = group.split("@", 1)[0]
        rows.extend([system] + row for row in golden["validate"][group])
    return rows


def check_validate(text: str, returncode: int, expected: list[list[str]], z: float | None) -> Verdict:
    """Check one `relfisher validate` CSV output against the golden rows.

    expected rows are [system, space, quantum_numbers, params_digest,
    ir_closed, status]; z is the nuclear charge of the hydrogen cells, if any.
    """
    verdict = Verdict(attempted=len(expected))
    if returncode not in VALIDATE_EXIT_CODES:
        verdict.failed = len(expected)
        verdict.problems.append(f"exit status {returncode}")
        return verdict
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != HEADER:
        verdict.failed = len(expected)
        verdict.problems.append(f"header {header!r}")
        return verdict
    wanted = {tuple(row[:4]): row[4:] for row in expected}
    seen = set()
    for row in reader:
        key = tuple(row[:4])
        if len(row) != len(HEADER) or key not in wanted or key in seen:
            verdict.attempted += 1
            verdict.failed += 1
            verdict.problems.append(f"unexpected row {row!r}")
            continue
        seen.add(key)
        verdict.numeric_rows += row[5] != ""
        problem, known = _check_validate_row(row, wanted[key], z)
        if problem:
            verdict.failed += 1
            verdict.problems.append(f"{row[0]} {row[1]} {row[2]}: {problem}")
        verdict.known_discrepancy += known
    missing = len(wanted) - len(seen)
    if missing:
        verdict.failed += missing
        verdict.problems.append(f"{missing} expected rows missing")
    return verdict


def _check_validate_row(row: list[str], golden: list[str], z: float | None) -> tuple[str, int]:
    system, space, numbers, _, ir_closed, ir_numeric, _, status = row
    if [ir_closed, status] != golden:
        return f"ir_closed,status {ir_closed},{status} != golden {golden[0]},{golden[1]}", 0
    try:
        numeric = float(ir_numeric)
        closed = float(ir_closed)
    except ValueError:
        return f"unparsable ir_numeric {ir_numeric!r}", 0
    hydrogen_momentum = system == "hydrogen" and space == "momentum"
    if hydrogen_momentum:
        qn = _quantum_numbers(numbers)
        exact = hydrogen_momentum_integral(qn["n"], qn["l"], z)
    else:
        exact = closed
    if not rel_diff(numeric, exact) <= THRESHOLD:
        return f"ir_numeric {ir_numeric} is {rel_diff(numeric, exact):.3e} from exact {exact!r}", 0
    known = hydrogen_momentum and not rel_diff(numeric, closed) <= THRESHOLD
    return "", int(known)


def check_digest(data: bytes, returncode: int, digest: str, rows: int, what: str) -> Verdict:
    """Byte-for-byte check of a whole output; a mismatch fails every row."""
    verdict = Verdict(attempted=rows)
    if returncode != 0:
        verdict.failed = rows
        verdict.problems.append(f"{what}: exit status {returncode}")
    elif sha256(data) != digest:
        verdict.failed = rows
        verdict.problems.append(f"{what}: sha256 {sha256(data)} != golden {digest}")
    return verdict
