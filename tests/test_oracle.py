import collections
import copy
import inspect
import itertools
import math
import sys

import pytest

from hssatlas import arith, atlas, invariants, oracle
from hssatlas.arith import NonIntegralRatio
from hssatlas.oracle import (
    BRUTE_FORCE_CELL_LIMIT,
    Diagnostic,
    RectShape,
    ShapeTooLarge,
    check_type_i_degree,
    count_syt_bruteforce,
    count_syt_hook,
    isomorphism_diagnostics,
    run_checks,
)
from hssatlas.spaces import COINCIDENCES, parse


# Counts frozen from the exhaustive enumeration itself.
SYT_CASES = [
    ((1, 1), 1),
    ((1, 5), 1),
    ((2, 2), 2),
    ((2, 3), 5),
    ((2, 5), 42),
    ((3, 3), 42),
    ((3, 4), 462),
    ((4, 4), 24024),
    # two and three cells: the walk's shortest paths
    ((1, 2), 1),
    ((2, 1), 1),
    ((1, 3), 1),
    ((3, 1), 1),
]


@pytest.mark.parametrize("shape,expected", SYT_CASES)
def test_count_syt_bruteforce_known_values(shape, expected):
    assert count_syt_bruteforce(RectShape(*shape)) == expected


@pytest.mark.parametrize("shape,expected", SYT_CASES)
def test_count_syt_hook_known_values(shape, expected):
    assert count_syt_hook(RectShape(*shape)) == expected


def test_hook_formula_beyond_the_enumeration_limit():
    assert count_syt_hook(RectShape(4, 5)) == 1662804
    assert count_syt_hook(RectShape(5, 5)) == 701149020


def test_transposed_shapes_count_the_same():
    assert count_syt_bruteforce(RectShape(2, 4)) == count_syt_bruteforce(RectShape(4, 2))
    assert count_syt_hook(RectShape(3, 7)) == count_syt_hook(RectShape(7, 3))


def test_bruteforce_refuses_large_shapes():
    with pytest.raises(ShapeTooLarge):
        count_syt_bruteforce(RectShape(3, 7))
    with pytest.raises(ShapeTooLarge):
        count_syt_bruteforce(RectShape(5, 5))


def test_shape_sides_must_be_positive():
    with pytest.raises(ValueError):
        RectShape(0, 3)
    with pytest.raises(ValueError):
        RectShape(2, -1)


@pytest.mark.parametrize("rows,cols", [(2.5, 3), (2, 3.0), ("2", 3), (None, 1)])
def test_shape_sides_must_be_integers(rows, cols):
    with pytest.raises(ValueError, match=f"^shape sides must be integers, got rows={rows!r}, cols={cols!r}$"):
        RectShape(rows, cols)


def test_shape_sides_are_plain_ints():
    shape = RectShape(True, 3)
    assert shape == RectShape(1, 3) and type(shape.rows) is int


@pytest.mark.usefixtures("off_by_one_factorial")
def test_a_hook_count_with_a_remainder_raises_even_under_python_o():
    with pytest.raises(NonIntegralRatio, match=r"^6! is not a multiple of the hook product of 2x3$"):
        count_syt_hook(RectShape(2, 3))


def test_bruteforce_equals_hook_on_the_whole_enumeration_envelope(bruteforce_count):
    # every shape of at most 20 cells in both orientations, including
    # 5x4, 10x2 and 20x1, whose transposes are the ones enumerated
    shapes = [
        RectShape(rows, cols)
        for rows in range(1, BRUTE_FORCE_CELL_LIMIT + 1)
        for cols in range(1, BRUTE_FORCE_CELL_LIMIT // rows + 1)
    ]
    assert len(shapes) == 66
    for shape in shapes:
        assert bruteforce_count(shape) == count_syt_hook(shape)


def _standard_fillings(rows, cols):
    """Every standard filling of a rows x cols rectangle, built row by
    row from sets of values rather than value by value: each row is an
    increasing choice of cols unused values, kept when every entry
    exceeds the one above it."""

    def extend(done, unused):
        if len(done) == rows:
            yield tuple(done)
            return
        for row in itertools.combinations(sorted(unused), cols):
            if not done or all(above < here for above, here in zip(done[-1], row)):
                yield from extend([*done, row], unused - set(row))

    return list(extend([], frozenset(range(1, rows * cols + 1))))


def test_an_independent_generator_lists_exactly_the_counted_fillings():
    shapes = [RectShape(rows, cols) for rows in range(1, 13) for cols in range(1, 12 // rows + 1)]
    assert len(shapes) == 35
    for shape in shapes:
        fillings = _standard_fillings(*shape)
        for filling in fillings:
            assert sorted(itertools.chain(*filling)) == list(range(1, shape.cells + 1))
            assert all(row[j] < row[j + 1] for row in filling for j in range(shape.cols - 1))
            assert all(filling[i][j] < filling[i + 1][j] for i in range(shape.rows - 1) for j in range(shape.cols))
        assert len(set(fillings)) == len(fillings)
        assert len(fillings) == count_syt_bruteforce(shape) == count_syt_hook(shape), shape


def _module_state():
    names = dict(vars(oracle))
    contents = {
        name: copy.deepcopy(value)
        for name, value in names.items()
        if not name.startswith("__") and isinstance(value, (dict, list, set, bytearray))
    }
    enumerate_ = oracle.count_syt_bruteforce
    return names, contents, dict(vars(enumerate_)), enumerate_.__defaults__, enumerate_.__kwdefaults__


def test_enumeration_keeps_no_count_between_calls():
    """Only the edges of one call's lattice are cached: after a call the
    module holds the same globals, with the same contents, and the
    enumerator is a plain function with no attributes or defaults."""
    names, *rest = _module_state()
    assert count_syt_bruteforce(RectShape(3, 4)) == 462
    after_names, *after_rest = _module_state()
    assert after_names.keys() == names.keys()
    assert all(after_names[name] is value for name, value in names.items())
    assert after_rest == rest
    assert inspect.isfunction(count_syt_bruteforce)
    assert rest[1:] == [{}, None, None]


def _tableaux_of(shape):
    """f^shape by the hook-length formula; ``shape`` is a tuple of
    weakly decreasing row lengths."""
    columns = [sum(1 for length in shape if length > j) for j in range(shape[0] if shape else 0)]
    hooks = math.prod(length - j + columns[j] - i - 1 for i, length in enumerate(shape) for j in range(length))
    return math.factorial(sum(shape)) // hooks


def _walk_calls(shape):
    """How many times ``count_syt_bruteforce`` enters its inner walk."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "walk" and frame.f_code.co_filename == oracle.__file__:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        count_syt_bruteforce(shape)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("rows,cols,expected", [(3, 4, 1_573), (4, 4, 81_696)])
def test_enumeration_walks_every_path_within_a_call(rows, cols, expected):
    """The walk is entered once for every path from the empty shape to
    each partial shape short of the full rectangle (the last value's
    placement is the one shortcut), so it is entered sum f^lambda times
    over every shape lambda strictly inside rows x cols.  A walk that
    stored a count for a shape it had already seen would be entered
    fewer times."""
    inside = [
        shape
        for lengths in itertools.combinations_with_replacement(range(cols, -1, -1), rows)
        if (shape := tuple(length for length in lengths if length)) != (cols,) * rows
    ]
    assert sum(map(_tableaux_of, inside)) == expected
    assert _walk_calls(RectShape(rows, cols)) == expected


def _hook_product_cell_by_cell(rows, cols):
    product = 1
    for i in range(rows):
        for j in range(cols):
            product *= (rows - i) + (cols - j) - 1
    return product


def test_hook_multiplicities_equal_the_cell_by_cell_product():
    for rows in range(1, 41):
        for cols in range(1, 41):
            hooks = _hook_product_cell_by_cell(rows, cols)
            count, remainder = divmod(math.factorial(rows * cols), hooks)
            assert remainder == 0
            assert count_syt_hook(RectShape(rows, cols)) == count


def test_check_type_i_degree_with_bruteforce_coverage(monkeypatch, bruteforce_count):
    # k and s-k give the same rectangle: the session's counter enumerates
    # it once, and every (k, s) still goes through the brute-force branch
    monkeypatch.setattr(oracle, "count_syt_bruteforce", bruteforce_count)
    for s in range(2, 10):
        for k in range(1, s):
            assert check_type_i_degree(k, s) == "Pass"


def test_check_type_i_degree_hook_only_range():
    from hssatlas.arith import eval_ratio_direct
    from hssatlas.invariants import degree_ratio
    from hssatlas.spaces import type_i

    for s in range(10, 15):
        for k in range(1, s):
            shape = RectShape(min(k, s - k), max(k, s - k))
            assert count_syt_hook(shape) == eval_ratio_direct(degree_ratio(type_i(k, s)))


def test_check_type_i_degree_can_skip_the_enumeration(monkeypatch):
    def refuse(shape):
        raise AssertionError(f"enumerated {shape}")

    monkeypatch.setattr(oracle, "count_syt_bruteforce", refuse)
    assert check_type_i_degree(3, 7, brute_force=False) == "Pass"
    with pytest.raises(AssertionError, match="enumerated"):
        check_type_i_degree(3, 7)


def test_the_tableau_sweep_is_one_check_per_case(monkeypatch):
    calls = []
    real = oracle.check_type_i_degree

    def record(k, s, brute_force=True):
        calls.append((k, s, brute_force))
        return real(k, s, brute_force=brute_force)

    monkeypatch.setattr(oracle, "check_type_i_degree", record)
    assert oracle._syt_cross_check() == (49, 0)
    assert calls == [(k, s, s <= 8) for s in range(2, 15) for k in range(1, s // 2 + 1)]


def test_isomorphism_diagnostics_expected_verdicts():
    expected = [
        Diagnostic("II(2)", "I(1,2)", True, 1, 1, "Pass", "Pass"),
        Diagnostic("II(3)", "I(1,4)", True, 1, 1, "Pass", "Pass"),
        Diagnostic("II(4)", "IV(6)", True, 2, 2, "Pass", "Pass"),
        Diagnostic("III(1)", "I(1,2)", True, 1, 1, "Pass", "Pass"),
        Diagnostic("III(2)", "IV(3)", True, 1, 2, "Mismatch", "Mismatch"),
        Diagnostic("IV(4)", "I(2,4)", True, 2, 2, "Pass", "Pass"),
    ]
    assert isomorphism_diagnostics() == expected


def test_each_diagnostic_carries_its_own_rows_verdict(monkeypatch):
    probed = [row for row in COINCIDENCES if row.verdict is not None]
    assert [d.expected for d in isomorphism_diagnostics()] == [row.verdict for row in probed]
    # a row without a verdict between two probes is skipped, and each
    # probe still carries the verdict of its own row
    unprobed = next(row for row in COINCIDENCES if row.verdict is None)
    (mismatch,) = [row for row in probed if row.verdict == "Mismatch"]
    rows = (mismatch, unprobed, probed[0])
    monkeypatch.setattr(oracle, "COINCIDENCES", rows)
    assert [(d.left, d.right, d.expected) for d in isomorphism_diagnostics()] == [
        (*row.pair, row.verdict) for row in (mismatch, probed[0])
    ]
    assert run_checks().ok


def test_diagnostics_are_deterministic_and_order_stable():
    first = isomorphism_diagnostics()
    second = isomorphism_diagnostics()
    assert first == second
    probed = [row for row in COINCIDENCES if row.verdict is not None]
    assert [(d.left, d.right) for d in first] == [row.pair for row in probed]


def test_exactly_one_mismatch_and_it_is_the_known_one():
    mismatches = [d for d in isomorphism_diagnostics() if d.verdict == "Mismatch"]
    assert len(mismatches) == 1
    only = mismatches[0]
    assert (only.left, only.right) == ("III(2)", "IV(3)")
    assert (only.degree_left, only.degree_right) == (1, 2)
    assert only.dims_match


def test_run_checks_counts_and_expected_verdicts():
    result = run_checks()
    assert (result.ratios_checked, result.ratios_failed) == (56, 0)
    assert (result.syt_checked, result.syt_failed) == (49, 0)
    assert result.diagnostics == tuple(isomorphism_diagnostics())
    assert len(result.diagnostics) == 6
    assert tuple(d.expected for d in result.diagnostics) == ("Pass",) * 4 + ("Mismatch", "Pass")
    assert result.unexpected == 0
    assert result.ok


def test_shape_is_immutable_and_replace_validates():
    shape = RectShape(2, 3)
    with pytest.raises(AttributeError):
        shape.rows = 4
    with pytest.raises(AttributeError):
        shape.extra = 1
    assert shape._replace(cols=5) == RectShape(2, 5)
    with pytest.raises(ValueError):
        shape._replace(cols=0)


def test_check_certifies_the_evaluator_that_degree_uses(monkeypatch):
    """degree, report, the type I check and the probes evaluate through
    one name, invariants.eval_ratio, so patching it there reaches all
    four; the arithmetic cross-check calls both arith paths by name."""
    calls: collections.Counter = collections.Counter()

    def counting(name, evaluate):
        def wrapper(ratio):
            calls[name] += 1
            return evaluate(ratio)

        return wrapper

    monkeypatch.setattr(invariants, "eval_ratio", counting("production", invariants.eval_ratio))
    monkeypatch.setattr(oracle, "eval_ratio_direct", counting("direct", arith.eval_ratio_direct))
    monkeypatch.setattr(oracle, "eval_ratio_legendre", counting("legendre", arith.eval_ratio_legendre))

    def through(run) -> dict:
        calls.clear()
        run()
        return dict(calls)

    # two distinct factors and the multinomial
    assert through(lambda: invariants.degree(parse("I(2,5) x I(2,5) x CP(3)"))) == {"production": 3}
    assert set(through(lambda: atlas.report(parse("II(6)")))) == {"production"}
    assert through(lambda: check_type_i_degree(2, 5)) == {"production": 1}
    assert through(isomorphism_diagnostics) == {"production": 12}
    assert through(oracle._arith_cross_check) == {"direct": 56, "legendre": 56}
