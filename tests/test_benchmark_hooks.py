"""The benchmark under perfbench/ reads names from the package: its tracer
hooks them and its kernel baseline times them. A src/ edit that drops one
leaves that layer unmeasured, so these tests fail on it instead.

Nothing under perfbench/ is written: no bytecode is cached there.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_self_test_passes():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(PERFBENCH)],
        cwd=PERFBENCH.parent,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracer"), importlib.import_module("layers")
    for name in ("tracer", "layers"):
        sys.modules.pop(name, None)


def test_every_name_the_benchmark_reads_resolves(perfbench):
    tracer, layers = perfbench
    targets = [target for _, target in tracer.SPAN_HOOKS + tracer.POINT_HOOKS]
    targets += [target for target, _ in layers.KERNELS.values()]
    for target in targets:
        tracer.resolve(target)  # raises LookupError naming the target
