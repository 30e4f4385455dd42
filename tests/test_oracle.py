import math

import pytest

from hssatlas import oracle
from hssatlas.oracle import (
    BRUTE_FORCE_CELL_LIMIT,
    ISOMORPHISM_PAIRS,
    Diagnostic,
    RectShape,
    ShapeTooLarge,
    check_type_i_degree,
    count_syt_bruteforce,
    count_syt_hook,
    isomorphism_diagnostics,
    run_checks,
)


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


def test_bruteforce_equals_hook_on_the_whole_enumeration_envelope():
    # every shape of at most 20 cells in both orientations, including
    # 5x4, 10x2 and 20x1, whose transposes are the ones enumerated
    shapes = [
        RectShape(rows, cols)
        for rows in range(1, BRUTE_FORCE_CELL_LIMIT + 1)
        for cols in range(1, BRUTE_FORCE_CELL_LIMIT // rows + 1)
    ]
    assert len(shapes) == 66
    for shape in shapes:
        assert count_syt_bruteforce(shape) == count_syt_hook(shape)


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


def test_check_type_i_degree_with_bruteforce_coverage():
    for s in range(2, 10):
        for k in range(1, s):
            # k and s-k give the same rectangle: enumerate it once
            assert check_type_i_degree(k, s, brute_force=k <= s - k) == "Pass"


def test_check_type_i_degree_hook_only_range():
    from hssatlas.invariants import degree_irreducible
    from hssatlas.spaces import type_i

    for s in range(10, 15):
        for k in range(1, s):
            shape = RectShape(min(k, s - k), max(k, s - k))
            assert count_syt_hook(shape) == degree_irreducible(type_i(k, s))


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
        Diagnostic("II(2)", "I(1,2)", True, 1, 1, "Pass"),
        Diagnostic("II(3)", "I(1,4)", True, 1, 1, "Pass"),
        Diagnostic("II(4)", "IV(6)", True, 2, 2, "Pass"),
        Diagnostic("III(1)", "I(1,2)", True, 1, 1, "Pass"),
        Diagnostic("III(2)", "IV(3)", True, 1, 2, "Mismatch"),
        Diagnostic("IV(4)", "I(2,4)", True, 2, 2, "Pass"),
    ]
    assert isomorphism_diagnostics() == expected


def test_diagnostics_are_deterministic_and_order_stable():
    first = isomorphism_diagnostics()
    second = isomorphism_diagnostics()
    assert first == second
    assert [d.left for d in first] == [left.render() for left, _ in ISOMORPHISM_PAIRS]


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
