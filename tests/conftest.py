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


@pytest.fixture
def off_by_one_factorial(monkeypatch):
    """The oracle's ``math.factorial`` one too large, as a mistyped hook
    count would be, so the hook product leaves a remainder; the
    arithmetic evaluators keep the real one."""
    factorial = math.factorial
    monkeypatch.setattr(oracle, "math", SimpleNamespace(prod=math.prod, factorial=lambda m: factorial(m) + 1))
