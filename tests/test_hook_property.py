"""Property: the hook count equals (r*c)! over the cell-by-cell hook product.

``count_syt_hook`` groups the hooks of an r x c rectangle into the body
r..c (each r times) and the corner pairs j, r+c-j (each j times), and
shifts the power of 2 out before it divides.  The reference here
multiplies the hook of every cell one at a time and divides once, so a
slip in either class, in the squaring over the bits of j, or in the
shed 2s shows as a different count.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from hssatlas.oracle import RectShape, count_syt_hook

sides = st.integers(1, 60)


@given(sides, sides)
def test_hook_count_equals_the_cell_by_cell_quotient(rows, cols):
    hooks = math.prod((rows - i) + (cols - j) - 1 for i in range(rows) for j in range(cols))
    count, remainder = divmod(math.factorial(rows * cols), hooks)
    assert remainder == 0
    assert count_syt_hook(RectShape(rows, cols)) == count
