import pytest

from relfisher import relative_fisher


@pytest.fixture(autouse=True)
def _fresh_unit_integrals():
    """Each test integrates its own unit-scale integrals: one that patches an
    evaluator or a kernel is never served an integral of another test."""
    relative_fisher._UNIT_INTEGRALS.clear()
