import pytest
from hypothesis import given
from hypothesis import strategies as st

from hssatlas.arith import (
    FactorialRatio,
    NonIntegralRatio,
    eval_ratio_direct,
    eval_ratio_legendre,
    factorial,
)
from hssatlas.invariants import degree_ratio
from hssatlas.spaces import type_i, type_ii, type_iii


def test_factorial_known_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800
    assert factorial(15) == 1307674368000


def test_factorial_agrees_with_prime_exponent_reconstruction():
    # 15! rebuilt purely from per-prime exponents, no multiplication chain
    assert eval_ratio_legendre(FactorialRatio((15,), ())) == 1307674368000


def test_factorial_rejects_negative_input():
    with pytest.raises(ValueError):
        factorial(-1)


def test_factorial_recurrence():
    for m in range(31):
        assert factorial(m + 1) == factorial(m) * (m + 1)


KNOWN_RATIOS = [
    (FactorialRatio((4,), (1, 2, 3)), 2),
    (FactorialRatio((6,), (6,)), 1),
    (FactorialRatio((10, 2, 4, 6), (4, 5, 6, 7)), 12),
    (FactorialRatio((15, 2, 4, 6, 8), (5, 6, 7, 8, 9)), 286),
    (FactorialRatio((), ()), 1),
    (FactorialRatio((0, 1), ()), 1),
]


@pytest.mark.parametrize("ratio,expected", KNOWN_RATIOS)
def test_eval_ratio_direct_known_values(ratio, expected):
    assert eval_ratio_direct(ratio) == expected


@pytest.mark.parametrize("ratio,expected", KNOWN_RATIOS)
def test_eval_ratio_legendre_known_values(ratio, expected):
    assert eval_ratio_legendre(ratio) == expected


@pytest.mark.parametrize("evaluate", [eval_ratio_direct, eval_ratio_legendre])
def test_non_integral_ratio_is_a_hard_error(evaluate):
    with pytest.raises(NonIntegralRatio):
        evaluate(FactorialRatio((2,), (3,)))
    with pytest.raises(NonIntegralRatio):
        evaluate(FactorialRatio((5, 5), (7,)))


factorial_args = st.lists(st.integers(min_value=0, max_value=40), max_size=6).map(tuple)


@given(num=factorial_args, den=factorial_args)
def test_both_evaluators_agree(num, den):
    """Same value when integral, and the same hard error when not."""
    ratio = FactorialRatio(num, den)
    try:
        direct = eval_ratio_direct(ratio)
    except NonIntegralRatio:
        with pytest.raises(NonIntegralRatio):
            eval_ratio_legendre(ratio)
        return
    assert eval_ratio_legendre(ratio) == direct


@given(args=factorial_args)
def test_identical_numerator_and_denominator_cancel(args):
    ratio = FactorialRatio(args, args)
    assert eval_ratio_direct(ratio) == 1
    assert eval_ratio_legendre(ratio) == 1


def test_evaluators_agree_on_every_family_ratio():
    ratios = [degree_ratio(type_i(k, s)) for s in range(2, 81) for k in range(1, s)]
    ratios += [degree_ratio(type_ii(s)) for s in range(2, 61)]
    ratios += [degree_ratio(type_iii(s)) for s in range(1, 61)]
    for ratio in ratios:
        assert eval_ratio_legendre(ratio) == eval_ratio_direct(ratio)


# Non-integral ratios whose arguments exceed 40; the failing prime is
# larger than some arguments, so the prime-exponent scan stops early.
LARGE_NON_INTEGRAL = [
    FactorialRatio((60, 60), (61, 59)),  # 60/61
    FactorialRatio((100,), (53, 53)),  # 53^1 over 53^2
    FactorialRatio((97, 3), (98,)),  # 6/98
    FactorialRatio((200, 41), (199, 43)),  # 200/(42*43)
    FactorialRatio((150, 150), (151, 149, 2)),  # 150/(151*2)
]


@pytest.mark.parametrize("evaluate", [eval_ratio_direct, eval_ratio_legendre])
@pytest.mark.parametrize("ratio", LARGE_NON_INTEGRAL, ids=str)
def test_non_integral_ratio_with_large_arguments(evaluate, ratio):
    with pytest.raises(NonIntegralRatio):
        evaluate(ratio)


large_factorial_args = st.lists(st.integers(min_value=41, max_value=300), max_size=5).map(tuple)


@given(num=large_factorial_args, den=large_factorial_args)
def test_both_evaluators_agree_on_large_arguments(num, den):
    ratio = FactorialRatio(num, den)
    try:
        direct = eval_ratio_direct(ratio)
    except NonIntegralRatio:
        with pytest.raises(NonIntegralRatio):
            eval_ratio_legendre(ratio)
        return
    assert eval_ratio_legendre(ratio) == direct
