#!/usr/bin/env python3
"""Start-up cost of the relfisher CLI: what `import relfisher.cli` takes in a
fresh interpreter.

    python3 scripts/startup_probe.py [--runs N] [--src SRC]

The package in SRC (default: the src/ tree next to this script) is copied to
a temporary directory, and each of N fresh interpreters (default 15) imports
relfisher.cli from the copy, in two modes:

    no bytecode cache   PYTHONDONTWRITEBYTECODE=1: the package is compiled
                        from source on every run, as in a fresh checkout;
                        the standard library keeps its installed caches
    bytecode cache      PYTHONPYCACHEPREFIX under the temporary directory,
                        filled by one run before the timed ones

so nothing is written in the tree. For each mode it prints the median wall
time of the import and the median peak resident memory (VmHWM) after it,
with that of a bare interpreter for scale, and then the modules the import
adds to a bare interpreter. Run it against two checkouts' src/ to compare
their start-up.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

# Run in the fresh interpreter: the sys.modules it starts with is taken
# before anything else is imported.
_CHILD = """
import sys
before = set(sys.modules)
import time
start = time.perf_counter()
if {do_import}:
    import relfisher.cli
elapsed = time.perf_counter() - start
added = sorted(set(sys.modules) - before - {{"time"}})
with open("/proc/self/status", encoding="ascii") as handle:
    hwm = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
print(repr((elapsed, hwm, added)))
"""


def _run(env: dict[str, str], do_import: bool) -> tuple[float, int, list[str]]:
    """(import seconds, VmHWM in kB, modules added) of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(do_import=do_import)],
        env=env, capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(done.stdout)


def _line(label: str, runs: list[tuple[float, int, list[str]]], bare_kb: float) -> str:
    wall_ms = statistics.median(run[0] for run in runs) * 1e3
    hwm_mb = statistics.median(run[1] for run in runs) / 1024.0
    return (
        f"{label:18s} import {wall_ms:6.1f} ms   VmHWM {hwm_mb:6.2f} MB "
        f"(bare interpreter {bare_kb / 1024.0:.2f} MB)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per mode (default 15)")
    parser.add_argument("--src", default=SRC, help="the src/ directory to import from")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    with tempfile.TemporaryDirectory() as workdir:
        package = os.path.join(workdir, "src")
        shutil.copytree(
            os.path.join(args.src, "relfisher"), os.path.join(package, "relfisher"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        base = {key: value for key, value in os.environ.items()
                if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = package
        cold = dict(base, PYTHONDONTWRITEBYTECODE="1")
        warm = dict(base, PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
        _run(warm, True)  # fills the cache
        bare, cold_runs, warm_runs = [], [], []
        for _ in range(args.runs):
            bare.append(_run(cold, False))
            cold_runs.append(_run(cold, True))
            warm_runs.append(_run(warm, True))
    bare_kb = statistics.median(run[1] for run in bare)
    added = cold_runs[0][2]
    print(f"startup_probe: {args.runs} fresh interpreters per mode, Python {sys.version.split()[0]}, {os.path.abspath(args.src)}")
    print(_line("no bytecode cache", cold_runs, bare_kb))
    print(_line("bytecode cache", warm_runs, bare_kb))
    print(f"modules added ({len(added)}): {' '.join(added)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
