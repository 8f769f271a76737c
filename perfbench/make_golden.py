"""Regenerate golden.json, the reference outputs the correctness gate checks.

Run it from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_golden.py

It runs every seed variant of every workload through the CLI in this
interpreter (about two minutes) and checks that rows shared between variants
agree before it writes anything.
"""
from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from relfisher.cli import main  # noqa: E402

import gate  # noqa: E402
from workloads import HIGH_DEGREE_NR_MAX, MOLECULES, OMEGAS, ZS  # noqa: E402


def _run(argv: list[str], out: str) -> tuple[int, bytes]:
    code = main(argv + ["--out", out])
    with open(out, "rb") as handle:
        return code, handle.read()


def _groups(data: bytes) -> dict[str, list[list[str]]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    assert rows[0] == gate.HEADER, rows[0]
    groups: dict[str, list[list[str]]] = {}
    for system, space, numbers, digest, ir_closed, _, _, status in rows[1:]:
        groups.setdefault(system, []).append([space, numbers, digest, ir_closed, status])
    return groups


def _put(store: dict, key: str, rows: list[list[str]]) -> None:
    if key in store and store[key] != rows:
        raise SystemExit(f"golden rows for {key} differ between seed variants")
    store[key] = rows


def build(work: str) -> dict:
    out = os.path.join(work, "out.csv")
    validate: dict[str, list[list[str]]] = {}
    for omega in OMEGAS:
        for z in ZS:
            code, data = _run(["validate", "--omega", format(omega, "g"), "--Z", format(z, "g")], out)
            if code not in gate.VALIDATE_EXIT_CODES:
                raise SystemExit(f"validate exited {code}")
            groups = _groups(data)
            _put(validate, f"qho1d@omega={omega:g}", groups["qho1d"])
            _put(validate, f"qho3d@omega={omega:g}", groups["qho3d"])
            _put(validate, f"hydrogen@Z={z:g}", groups["hydrogen"])
            _put(validate, "php@registry", groups["php"])
    for molecule in MOLECULES:
        code, data = _run(["validate", "--system", "php", "--molecule", molecule,
                           "--nr-max", str(HIGH_DEGREE_NR_MAX), "--space", "position"], out)
        if code != 0:
            raise SystemExit(f"validate --molecule {molecule} exited {code}")
        _put(validate, f"php@{molecule}", _groups(data)["php"])

    digests = {}
    for z in ZS:
        code, data = _run(["compute", "--system", "hydrogen", "--Z", format(z, "g"), "--n", "1..200",
                           "--l", "0..199", "--space", "both"], out)
        if code != 0:
            raise SystemExit(f"compute exited {code}")
        digests[f"compute@Z={z:g}"] = {"sha256": gate.sha256(data), "rows": data.count(b"\n") - 1}
    for target in gate.REPRODUCE_TARGETS:
        target_dir = os.path.join(work, target)
        if main(["reproduce", target, "--out", target_dir]) != 0:
            raise SystemExit(f"reproduce {target} exited nonzero")
        for name in sorted(os.listdir(target_dir)):
            with open(os.path.join(target_dir, name), "rb") as handle:
                data = handle.read()
            digests[f"reproduce/{target}/{name}"] = {"sha256": gate.sha256(data),
                                                     "rows": data.count(b"\n") - 1}
    return {"validate": validate, "digests": digests}


def dump(golden: dict) -> str:
    """JSON with one digest or one row per line, so changes read as small diffs."""
    digests = golden["digests"]
    lines = ['{"digests": {']
    lines += [f"{json.dumps(key)}: {json.dumps(digests[key], sort_keys=True)}," for key in sorted(digests)]
    lines[-1] = lines[-1].rstrip(",")
    lines.append('}, "validate": {')
    for group in sorted(golden["validate"]):
        lines.append(f"{json.dumps(group)}: [")
        lines += [json.dumps(row) + "," for row in golden["validate"][group]]
        lines[-1] = lines[-1].rstrip(",")
        lines.append("],")
    lines[-1] = "]"
    lines.append("}}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        golden = build(work)
    with open(gate.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write(dump(golden))
    print(f"wrote {gate.GOLDEN_PATH}")
