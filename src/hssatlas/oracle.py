"""Independent cross-checks: tableau counts and isomorphism probes.

Two counters that share no arithmetic with the factorial-ratio
evaluators recompute the type I degree, the number of standard Young
tableaux of the k x (s-k) rectangle: a literal enumeration
(``count_syt_bruteforce``) and the hook-length formula
(``count_syt_hook``).  ``isomorphism_diagnostics`` probes the rows of
``spaces.COINCIDENCES`` that carry a verdict; one pair is expected to
disagree (the type III closed form yields 1 against the quadric's 2),
and nothing here patches around it.  ``run_checks`` runs the whole suite.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, NamedTuple

from . import invariants  # eval_ratio is read there at each call, so check certifies what degree runs
from .arith import NonIntegralRatio, eval_ratio_direct, eval_ratio_legendre
from .invariants import degree_ratio, multinomial_ratio
from .spaces import COINCIDENCES, type_i, type_ii, type_iii

BRUTE_FORCE_CELL_LIMIT = 20


class ShapeTooLarge(ValueError):
    """Exhaustive enumeration is only allowed up to 20 cells."""


class _RectShapeFields(NamedTuple):
    rows: int
    cols: int


class RectShape(_RectShapeFields):
    """A rows x cols rectangle of plain int sides (each passes through
    ``operator.index``); a side that is not an integer, or is below 1,
    raises ``ValueError`` when it is built."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int) -> RectShape:
        try:
            rows, cols = operator.index(rows), operator.index(cols)
        except TypeError:
            raise ValueError(f"shape sides must be integers, got rows={rows!r}, cols={cols!r}") from None
        if rows < 1 or cols < 1:
            raise ValueError(f"shape sides must be positive, got {rows}x{cols}")
        return super().__new__(cls, rows, cols)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> RectShape:
        return cls(*iterable)  # so that _replace() validates too

    @property
    def cells(self) -> int:
        return self.rows * self.cols


def count_syt_bruteforce(shape: RectShape) -> int:
    """Count standard Young tableaux by exhaustive enumeration.

    Values 1..rows*cols are placed one at a time.  The cells filled so
    far always form a partial shape, the tuple of its row lengths, and
    a value may extend any row that is still shorter than the row above
    it, which keeps rows and columns strictly increasing.  A standard
    filling is therefore one path of placements from the empty shape to
    the full rectangle, and the count is the number of such paths,
    independent of any formula.

    The call first builds a move table.  Each partial shape (at most
    C(rows+cols, rows) of them) gets an integer id when it is first
    reached, and the table lists, under each id, the ids of the shapes
    one placement away, in row order.  Only these edges of the lattice
    are cached.  The walk then follows every path along them, one step
    per value, and no count is ever stored, within a call or across
    calls: every tableau is still reached as its own distinct path.

    Two shortcuts make it faster and leave it literal.  Reflecting a
    filling in the diagonal maps the tableaux of a shape one to one onto
    those of its transpose, so the orientation with fewer rows is
    enumerated; no filling is skipped or merged.  And once only one
    cell is empty, it is the corner (rows-1, cols-1), which the last
    value fills in exactly one way: the path counts as one tableau
    without a call for that last placement.
    """
    if shape.cells > BRUTE_FORCE_CELL_LIMIT:
        raise ShapeTooLarge(
            f"{shape.rows}x{shape.cols} has {shape.cells} cells; "
            f"the enumeration limit is {BRUTE_FORCE_CELL_LIMIT}"
        )
    rows, cols = sorted((shape.rows, shape.cols))
    shapes = [(0,) * rows]
    ids = {shapes[0]: 0}
    moves: list[tuple[int, ...]] = []
    for partial in shapes:  # grows as new shapes get their ids
        above = cols  # the first row may grow to the full width
        nexts = []
        for i, here in enumerate(partial):
            if here < above:
                following = partial[:i] + (here + 1,) + partial[i + 1 :]
                if following not in ids:
                    ids[following] = len(shapes)
                    shapes.append(following)
                nexts.append(ids[following])
            above = here
        moves.append(tuple(nexts))

    def walk(partial: int, empty: int) -> int:
        if empty == 1:
            return 1  # the last value goes to the corner
        total = 0
        for following in moves[partial]:
            total += walk(following, empty - 1)
        return total

    return walk(0, shape.cells)


def count_syt_hook(shape: RectShape) -> int:
    """Hook-length count: (rows*cols)! / product of hook lengths.

    The hook of the cell in row i, column j (0-based) of an r x c
    rectangle is (r-i) + (c-j) - 1, so the hooks run over 1..r+c-1 and
    the length h occurs on min(h, r, c, r+c-h) cells (one antidiagonal
    of the rectangle).  The product is formed by those multiplicities
    instead of cell by cell.  The division is always exact; a remainder
    would be a transcription fault and raises ``NonIntegralRatio``.
    """
    r, c = shape.rows, shape.cols
    hooks = math.prod(h ** min(h, r, c, r + c - h) for h in range(1, r + c))
    count, remainder = divmod(math.factorial(shape.cells), hooks)
    if remainder:
        raise NonIntegralRatio(f"{shape.cells}! is not a multiple of the hook product of {r}x{c}")
    return count


def check_type_i_degree(k: int, s: int, brute_force: bool = True) -> str:
    """Compare degree(I(k,s)) against the tableau counters.

    The hook count always runs; the brute-force count joins in when
    ``brute_force`` is true and the k x (s-k) rectangle has at most 20
    cells.  Returns "Pass" or "Mismatch".
    """
    d = invariants.eval_ratio(degree_ratio(type_i(k, s)))
    shape = RectShape(k, s - k)  # both counts are symmetric in the sides
    if count_syt_hook(shape) != d:
        return "Mismatch"
    if brute_force and shape.cells <= BRUTE_FORCE_CELL_LIMIT and count_syt_bruteforce(shape) != d:
        return "Mismatch"
    return "Pass"


class Diagnostic(NamedTuple):
    left: str
    right: str
    dims_match: bool
    degree_left: int
    degree_right: int
    verdict: str  # "Pass" | "Mismatch"
    expected: str  # the verdict of the COINCIDENCES row it probes


def isomorphism_diagnostics() -> list[Diagnostic]:
    """Evaluate dimension and each written spelling's own degree ratio on
    both sides of each probed row of ``COINCIDENCES`` (one with a verdict,
    carried as ``expected``, and one right-hand factor); deterministic,
    always in table order.
    """
    out = []
    for row in COINCIDENCES:
        if row.verdict is None:
            continue
        left, (right,) = row.spelling, row.factors
        degree_left, degree_right = (invariants.eval_ratio(degree_ratio(f)) for f in (left, right))
        dims_match = left.dimension == right.dimension
        verdict = "Pass" if dims_match and degree_left == degree_right else "Mismatch"
        out.append(Diagnostic(*row.pair, dims_match, degree_left, degree_right, verdict, row.verdict))
    return out


class CheckResult(NamedTuple):
    """Outcome of the whole cross-check suite (see ``run_checks``)."""

    ratios_checked: int
    ratios_failed: int
    syt_checked: int
    syt_failed: int
    diagnostics: tuple[Diagnostic, ...]

    @property
    def unexpected(self) -> int:
        """How many diagnostics differ from their row's verdict."""
        return sum(d.verdict != d.expected for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        return not (self.ratios_failed or self.syt_failed or self.unexpected)


# The multinomial ratios that ``check`` evaluates along both arithmetic
# paths, after the family ratios of its sweep.
CHECK_MULTINOMIALS = ((1, 1), (2, 2), (1, 2, 3), (4, 6), (5, 5, 5))


def _arith_cross_check() -> tuple[int, int]:
    """Evaluate every standard-sweep ratio along both arithmetic paths.

    Returns (checked, failed)."""
    ratios = []
    for s in range(2, 10):
        for k in range(1, s):
            ratios.append(degree_ratio(type_i(k, s)))
    for s in range(2, 9):
        ratios.append(degree_ratio(type_ii(s)))
    for s in range(1, 9):
        ratios.append(degree_ratio(type_iii(s)))
    for dims in CHECK_MULTINOMIALS:
        ratios.append(multinomial_ratio(dims))
    failed = sum(1 for r in ratios if eval_ratio_direct(r) != eval_ratio_legendre(r))
    return len(ratios), failed


def _syt_cross_check() -> tuple[int, int]:
    """Compare type I degrees with tableau counts over 2 <= s <= 14.

    Brute-force enumeration joins the hook count up to s = 8 (at most
    16 cells) to keep the check fast; the test suite exercises the
    full 20-cell brute-force envelope.  Returns (checked, failed).
    """
    checked = failed = 0
    for s in range(2, 15):
        for k in range(1, s // 2 + 1):
            checked += 1
            failed += check_type_i_degree(k, s, brute_force=s <= 8) != "Pass"
    return checked, failed


def run_checks() -> CheckResult:
    """Run the arithmetic, tableau and isomorphism cross-checks."""
    ratios, syt = _arith_cross_check(), _syt_cross_check()  # each (checked, failed)
    return CheckResult(*ratios, *syt, tuple(isomorphism_diagnostics()))
