#!/usr/bin/env python3
"""Digests of what a fixed list of relfisher commands writes.

    python3 scripts/output_digests.py

Each command in COMMANDS runs as `python -m relfisher.cli ...` in its own
empty temporary directory, against the src/ tree next to this script. For
each one the script prints one line: the exit code, the sha256 of stdout and
of stderr, the name and sha256 of every file the command wrote there, and
the command itself. Run it in two checkouts and diff the output to check
that a change keeps every output byte-identical.
"""
from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

COMMANDS: list[list[str]] = [
    *(
        ["validate", "--omega", omega, "--Z", z]
        for omega in ("0.5", "1", "2")
        for z in ("1", "2", "3")
    ),
    ["validate", "--system", "qho1d", "--n-max", "188", "--omega", "0.7"],
    ["validate", "--system", "php", "--molecule", "CO", "--nr-max", "60", "--space", "both"],
    ["validate", "--system", "hydrogen", "--n-max", "20"],
    # Tolerances other than the default: the oracle keeps unit-scale integrals by rel_tol.
    ["validate", "--omega", "1", "--Z", "1", "--rel-tol", "1e-6"],
    ["compute", "--system", "php", "--molecule", "CO", "--nr", "0..20", "--l", "0", "--space", "both", "--validate",
     "--rel-tol", "1e-12"],
    *(
        ["compute", "--system", "hydrogen", "--Z", "2", "--n", "1..200", "--l", "0..199",
         "--space", "both", "--format", fmt, "--out", f"table.{fmt}"]
        for fmt in ("csv", "json")
    ),
    # Closed-form rows of the other three families; php without --molecule runs one grid per registry molecule.
    ["compute", "--system", "qho1d", "--omega", "0.7", "--n", "0..400", "--space", "both"],
    ["compute", "--system", "qho3d", "--omega", "1.3", "--nr", "0..60", "--l", "0..12", "--space", "both",
     "--format", "json"],
    ["compute", "--system", "php", "--nr", "0..60", "--l", "0..4", "--space", "both"],
    ["compute", "--system", "hydrogen", "--n", "320..326", "--l", "0", "--space", "position", "--validate"],
    # Both sides of the upper edge of the band where hydrogen momentum overflows: 11 refused rows, then 10 values.
    ["compute", "--system", "hydrogen", "--n", "1000", "--l", "660..680", "--space", "momentum", "--validate"],
    # n ascends at a fixed l, so each Gegenbauer column is continued, not restarted.
    ["compute", "--system", "hydrogen", "--n", "11..60", "--l", "3", "--space", "both", "--validate"],
    # A fixed-l sweep from degree 0: each momentum column is continued from its second degree.
    ["compute", "--system", "hydrogen", "--n", "1..40", "--l", "0", "--space", "momentum", "--validate"],
    ["compute", "--system", "qho3d", "--nr", "0..40", "--l", "2", "--validate"],
    ["compute", "--system", "php", "--molecule", "CO", "--nr", "0..8", "--l", "0..2", "--validate"],
    ["compute", "--system", "php", "--mu-amu", "1.5", "--de-ev", "0.2", "--re-angstrom", "1.4",
     "--nr", "0..8", "--space", "both"],
    # n from 2**63 - 1, past the largest range length: 8 rows, exit 0.
    ["compute", "--system", "hydrogen", "--n", f"{2**63 - 1}..{2**63}", "--l", "0..1", "--space", "both"],
    # n = 2**1024 does not convert to a float, so the closed form is not evaluated: exit 2.
    ["compute", "--system", "qho1d", "--n", str(2**1024)],
    # ln_gamma(2**1023) overflows: one refused row each, exit 3.
    ["compute", "--system", "qho3d", "--omega", "1e-300", "--nr", str(2**1023), "--space", "position", "--validate"],
    ["compute", "--system", "hydrogen", "--n", str(2**1023), "--l", "0", "--space", "position", "--validate"],
    # Its log-gamma terms round past the budget: one refused row, exit 3, before the Gegenbauer kernel binds.
    ["compute", "--system", "hydrogen", "--n", str(10**20), "--l", "0", "--space", "momentum", "--validate"],
    *(
        ["reproduce", target, "--format", fmt]
        for target in ("table1", "table3", "figure1")
        for fmt in ("csv", "json")
    ),
    ["molecules"],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Each command's address space, far above what any of them needs: an older
# tree that does not refuse a huge state (hydrogen momentum at n = 1e20
# before its rounding budget) then fails with MemoryError instead of filling
# the machine's memory.
_ADDRESS_SPACE = 4 << 30


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def run(argv: list[str], src: str = SRC) -> tuple[int, bytes, bytes, dict[str, bytes]]:
    """Run one command against the src tree in an empty temporary directory,
    its address space capped at _ADDRESS_SPACE: its exit code, stdout,
    stderr, and the files it wrote there by name."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-m", "relfisher.cli", *argv], cwd=cwd, env=env, capture_output=True,
            preexec_fn=_cap_memory,
        )
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as handle:
                files[name] = handle.read()
    return done.returncode, done.stdout, done.stderr, files


def digest(argv: list[str]) -> str:
    """One output line for one command: exit code, hashes, files, command."""
    code, stdout, stderr, files = run(argv)
    parts = [f"exit={code}", f"stdout={_sha(stdout)}", f"stderr={_sha(stderr)}"]
    parts += [f"{name}={_sha(data)}" for name, data in files.items()]
    return " ".join(parts + ["|", *argv])


def main() -> int:
    for command in COMMANDS:
        print(digest(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
