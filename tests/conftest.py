import math
from types import SimpleNamespace

import pytest
from hypothesis import settings

from hssatlas import oracle
from hssatlas.oracle import RectShape, count_syt_bruteforce

# ``--hypothesis-profile=ci`` reruns a module's property tests with ten
# times the default examples; a test that sets its own ``max_examples``
# keeps it.  No deadline: the rerun is for breadth, and a shared runner's
# timing varies.
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def bruteforce_count():
    """``count_syt_bruteforce`` with each shape enumerated at most once
    per test session.

    The tests that sweep the enumeration envelope share it, so a
    rectangle they all cover (4x5 is in every sweep) is enumerated once,
    not once per test.  Shapes are keyed as given, so each orientation
    is still enumerated through its own call.
    """
    counts: dict[RectShape, int] = {}

    def count(shape: RectShape) -> int:
        if shape not in counts:
            counts[shape] = count_syt_bruteforce(shape)
        return counts[shape]

    return count


def _factorial_off_by(monkeypatch, defect: int) -> None:
    """Give the oracle a ``math.factorial`` that is ``defect`` too large,
    as a mistyped hook count would be; the arithmetic evaluators keep
    the real one."""
    factorial = math.factorial
    monkeypatch.setattr(oracle, "math", SimpleNamespace(prod=math.prod, factorial=lambda m: factorial(m) + defect))


@pytest.fixture
def off_by_one_factorial(monkeypatch):
    """n! + 1: odd, so a low bit that the hook count shifts out is set."""
    _factorial_off_by(monkeypatch, 1)


@pytest.fixture
def off_by_an_even_factorial(monkeypatch):
    """n! + 2**64: its low 64 bits are those of n!, so for a hook product
    with fewer than 64 factors of 2 (2x3 has 2**4) the bits the hook
    count shifts out are zero, and only the division's remainder can
    show the defect."""
    _factorial_off_by(monkeypatch, 2**64)
