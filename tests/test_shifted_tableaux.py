"""Types II and III against an independent formula: Thrall's count of
standard shifted tableaux.

The degree of II(s) is the number of standard shifted tableaux of the
staircase (s-1, ..., 1), and that of III(s), in the closed form the
paper quotes, the number of the staircase (s, ..., 1).  For a strict
partition l, Thrall's hook formula counts them in closed form,

    g(l) = |l|! / prod(l_i!) * prod_{i<j} (l_i - l_j) / (l_i + l_j)

(R. M. Thrall, "A combinatorial problem", Michigan Math. J. 1 (1952);
Macdonald, *Symmetric Functions and Hall Polynomials*, ch. III).  It
shares no formula with Hua's ratios in ``spaces.FAMILIES`` and no code
with either evaluator in ``arith``: it is one integer numerator over one
integer denominator, each multiplied pairwise so that the operands of
every product stay of similar size.  The sizes reach past II(149), the
largest II or III in the benchmark's report pool.
"""

import math
from itertools import combinations

import pytest

from hssatlas.invariants import degree
from hssatlas.spaces import IrreducibleSpace, SpaceExpr


def balanced_product(values):
    """The product of ``values``, multiplied pairwise round by round."""
    values = list(values)
    while len(values) > 1:
        paired = [a * b for a, b in zip(values[::2], values[1::2])]
        values = paired + values[2 * len(paired) :]
    return values[0] if values else 1


def count_shifted_syt(parts):
    """Thrall's count for a strict partition given in decreasing order."""
    pairs = list(combinations(parts, 2))
    numerator = math.factorial(sum(parts)) * balanced_product(a - b for a, b in pairs)
    denominator = balanced_product(map(math.factorial, parts)) * balanced_product(a + b for a, b in pairs)
    count, remainder = divmod(numerator, denominator)
    assert remainder == 0, parts
    return count


def test_known_shifted_tableau_counts():
    # small shapes counted by hand; (2, 1) and (3, 1) have one and two fillings
    assert [count_shifted_syt(parts) for parts in [(1,), (2, 1), (3, 1), (3, 2, 1), (4, 3, 2, 1)]] == [
        1, 1, 2, 2, 12,
    ]


# the longest part of the staircase that counts each family's degree
LONGEST_PART = {"II": lambda s: s - 1, "III": lambda s: s}


@pytest.mark.parametrize(
    "kind,sizes",
    [("II", [*range(2, 61), 100, 149, 150]), ("III", [*range(1, 61), 100, 140])],
)
def test_degree_counts_the_staircase_shifted_tableaux(kind, sizes):
    for s in sizes:
        staircase = tuple(range(LONGEST_PART[kind](s), 0, -1))
        assert degree(SpaceExpr((IrreducibleSpace(kind, (s,)),))) == count_shifted_syt(staircase), f"{kind}({s})"
