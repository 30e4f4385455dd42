import bisect
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hssatlas import arith
from hssatlas.arith import (
    EXACT_DIVISION_MIN_BITS,
    PRODUCT_TREE_MIN_SUM,
    FactorialRatio,
    NonIntegralRatio,
    eval_ratio_direct,
    eval_ratio_legendre,
    exact_quotient,
)
from hssatlas.invariants import degree_ratio, multinomial_ratio
from hssatlas.oracle import CHECK_MULTINOMIALS
from hssatlas.spaces import IrreducibleSpace, parse, type_i, type_ii, type_iii


@pytest.fixture
def empty_prime_table(monkeypatch):
    """The process's prime table as a fresh process starts it, restored
    after the test."""
    monkeypatch.setattr(arith, "_prime_table", (1, []))


def test_the_sieve_starts_at_2(request, empty_prime_table):
    """First in this file: with 0 or 1 in the table, every prime-exponent
    evaluation below raises, so such a table fails here and stops the
    run."""
    primes = arith._primes_upto(30)
    if primes[:1] != [2]:
        request.session.shouldstop = f"the prime table begins {primes[:3]}; each evaluation would fail"
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_a_prime_table_holding_1_is_refused(monkeypatch):
    """A table that does not begin with 2 raises instead of raising 1 to
    ever higher powers."""
    monkeypatch.setattr(arith, "_prime_table", (10, [1, 2, 3, 5, 7]))
    with pytest.raises(RuntimeError, match=re.escape("the prime table begins [1, 2, 3], not with 2")):
        eval_ratio_legendre(FactorialRatio((7,), (3,)))


def test_factorial_agrees_with_prime_exponent_reconstruction():
    # 15! rebuilt purely from per-prime exponents, no multiplication chain
    assert eval_ratio_legendre(FactorialRatio((15,), ())) == 1307674368000


KNOWN_RATIOS = [
    (FactorialRatio((4,), (1, 2, 3)), 2),
    (FactorialRatio((6,), (6,)), 1),
    (FactorialRatio((10, 2, 4, 6), (4, 5, 6, 7)), 12),
    (FactorialRatio((15, 2, 4, 6, 8), (5, 6, 7, 8, 9)), 286),
    (FactorialRatio((), ()), 1),
    (FactorialRatio((0, 1), ()), 1),
    # equal arguments on both sides cancel, and 0! = 1! = 1 drop out
    (FactorialRatio((5, 5, 5), (5, 5)), 120),
    (FactorialRatio((0, 1, 7), (1, 0)), 5040),
    (FactorialRatio((), (0, 1)), 1),
    # arguments are left after cancelling, but every prime's net exponent is 0
    (FactorialRatio((6,), (5, 3)), 1),
    (FactorialRatio((10,), (7, 6)), 1),
]


@pytest.mark.parametrize("ratio,expected", KNOWN_RATIOS)
def test_eval_ratio_direct_known_values(ratio, expected):
    assert eval_ratio_direct(ratio) == expected


@pytest.mark.parametrize("ratio,expected", KNOWN_RATIOS)
def test_eval_ratio_legendre_known_values(ratio, expected):
    assert eval_ratio_legendre(ratio) == expected


def test_legendre_cancels_equal_arguments_before_sieving():
    # a sieve up to 10**12 would not fit in memory
    assert eval_ratio_legendre(FactorialRatio((10**12,), (10**12,))) == 1


@pytest.mark.parametrize(
    "ratio",
    [FactorialRatio((1,), (1,)), degree_ratio(type_i(1, 1000)), FactorialRatio((10**12,), (10**12,))],
    ids=["1!/1!", "CP(999)", "(10**12)!/(10**12)!"],
)
def test_direct_path_answers_equal_sides_without_a_product(monkeypatch, ratio):
    """The direct twin of the prime-exponent test above: no factorial,
    no product and no division is formed."""

    def refuse(*args):
        raise AssertionError("formed a factorial or divided")

    monkeypatch.setattr(math, "factorial", refuse)
    monkeypatch.setattr(arith, "_product_tree", refuse)
    monkeypatch.setattr(arith, "exact_quotient", refuse)
    assert eval_ratio_direct(ratio) == 1


def test_equal_sides_are_exactly_the_projective_spellings():
    """Up to s = 60, the family ratios whose two sides are equal tuples
    are those of CP^n: I(k,s) with min(k, s-k) = 1, II(2) and III(1).
    No quadric and no multinomial of ``check`` has equal sides, so the
    direct path multiplies out every other ratio."""
    spaces = [type_i(k, s) for s in range(2, 61) for k in range(1, s)]
    spaces += [type_ii(s) for s in range(2, 61)] + [type_iii(s) for s in range(1, 61)]
    spaces += [IrreducibleSpace("IV", (s,)) for s in range(3, 61)]
    equal = {str(f) for f in spaces if len(set(degree_ratio(f))) == 1}
    projective = {str(type_i(k, s)) for s in range(2, 61) for k in (1, s - 1)}
    assert equal == projective | {"II(2)", "III(1)"}
    assert not [dims for dims in CHECK_MULTINOMIALS if len(set(multinomial_ratio(dims))) == 1]


@pytest.mark.parametrize("evaluate", [eval_ratio_direct, eval_ratio_legendre])
@pytest.mark.parametrize(
    "ratio",
    [FactorialRatio((-1,), (1,)), FactorialRatio((5,), (-2,)), FactorialRatio((-3,), (-3,))],
    ids=str,
)
def test_negative_factorial_argument_is_an_error(evaluate, ratio):
    """As in ``math.factorial``, even where the argument would cancel."""
    with pytest.raises(ValueError, match="factorial\\(\\) not defined for negative values"):
        evaluate(ratio)


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


# Non-integral ratios whose arguments exceed 40, each with the smallest
# prime whose net exponent is negative; that prime is larger than some
# arguments, so the prime-exponent scan stops early.
LARGE_NON_INTEGRAL = [
    (FactorialRatio((60, 60), (61, 59)), 61),  # 60/61
    (FactorialRatio((100,), (53, 53)), 2),  # 53^1 over 53^2
    (FactorialRatio((97, 3), (98,)), 7),  # 6/98
    (FactorialRatio((200, 41), (199, 43)), 3),  # 200/(42*43)
    (FactorialRatio((150, 150), (151, 149, 2)), 151),  # 150/(151*2)
]


@pytest.mark.parametrize("evaluate", [eval_ratio_direct, eval_ratio_legendre])
@pytest.mark.parametrize("ratio,prime", [pytest.param(*case, id=str(case[0])) for case in LARGE_NON_INTEGRAL])
def test_non_integral_ratio_with_large_arguments(evaluate, ratio, prime):
    """The prime-exponent evaluator names the smallest prime whose net
    exponent is negative."""
    message = f"{ratio} is not an integer"
    if evaluate is eval_ratio_legendre:
        message += f" (prime {prime} left over)"
    with pytest.raises(NonIntegralRatio, match=f"^{re.escape(message)}$"):
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


# --- the prime-exponent evaluator -------------------------------------------

# primes by trial division, a reference that shares nothing with the sieve
TRIAL_PRIMES = [n for n in range(2, 5001) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def _legendre(m: int, p: int) -> int:
    exponent = 0
    while m:
        m //= p
        exponent += m
    return exponent


def _smallest_negative_prime(num: tuple[int, ...], den: tuple[int, ...]) -> int | None:
    """The smallest prime whose exponent in the numerator's factorials
    is below its exponent in the denominator's, each argument summed on
    its own with nothing cancelled; None for an integral ratio."""
    top = max(num + den, default=0)
    for p in TRIAL_PRIMES[: bisect.bisect_right(TRIAL_PRIMES, top)]:
        if sum(_legendre(m, p) for m in num) < sum(_legendre(m, p) for m in den):
            return p
    return None


@st.composite
def mixed_ratios(draw, largest=5000):
    """Dense arguments 0..60, a few sparse ones up to largest (some just
    below the largest drawn), and the largest on either side, so that the
    first negative prime falls among the suffix-count slices, the
    per-argument Legendre sums or the blocks of large primes."""
    top = draw(st.integers(min_value=2, max_value=largest), label="top")
    near_top = st.integers(min_value=1, max_value=30).map(lambda d: max(top - d, 0))
    sides = []
    for _ in range(2):
        dense = draw(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
        sparse = draw(st.lists(st.one_of(st.integers(min_value=61, max_value=largest), near_top), max_size=2))
        sides.append(dense + sparse)
    sides[draw(st.booleans(), label="top in denominator")].append(top)
    return FactorialRatio(*map(tuple, sides))


@given(ratio=mixed_ratios())
@example(ratio=FactorialRatio((997,), (60,) * 17))  # 59, among the slices
@example(ratio=FactorialRatio((5000,), (2503, 2503)))  # 3, from the per-argument sums
@example(ratio=FactorialRatio((2000, 2000), (2003,)))  # 2003, a large-prime block
@example(ratio=FactorialRatio((4000, 4000), (4001, 4001)))  # 4001, a block of exponent -2
def test_non_integral_ratio_names_the_smallest_negative_prime(ratio):
    prime = _smallest_negative_prime(*ratio)
    if prime is None:
        assert eval_ratio_legendre(ratio) == eval_ratio_direct(ratio)
        return
    message = f"{ratio} is not an integer (prime {prime} left over)"
    with pytest.raises(NonIntegralRatio, match=f"^{re.escape(message)}$"):
        eval_ratio_legendre(ratio)


def test_legendre_never_forms_a_factorial(monkeypatch):
    """Every family ratio with s <= 60 and the multinomials of ``check``,
    evaluated with ``math.factorial``, the product tree and the exact
    division all made to raise, against values the direct evaluator
    computed beforehand."""
    ratios = [degree_ratio(type_i(k, s)) for s in range(2, 61) for k in range(1, s)]
    ratios += [degree_ratio(type_ii(s)) for s in range(2, 61)]
    ratios += [degree_ratio(type_iii(s)) for s in range(1, 61)]
    ratios += [degree_ratio(IrreducibleSpace("IV", (s,))) for s in range(3, 61)]
    ratios += [multinomial_ratio(dims) for dims in CHECK_MULTINOMIALS]
    expected = [eval_ratio_direct(r) for r in ratios]

    def refuse(*args):
        raise AssertionError("formed a factorial or divided")

    monkeypatch.setattr(math, "factorial", refuse)
    monkeypatch.setattr(arith, "_product_tree", refuse)
    monkeypatch.setattr(arith, "exact_quotient", refuse)
    with pytest.raises(AssertionError, match="formed a factorial"):
        eval_ratio_direct(degree_ratio(type_i(2, 4)))  # the patches reach what the direct path calls
    assert [eval_ratio_legendre(r) for r in ratios] == expected


def test_sparse_ratio_needs_no_table_of_its_arguments(empty_prime_table):
    """Two arguments, 200,000 and 199,999, both above the number of
    primes sieved: no suffix count is built across them.  The prime
    table starts empty, so the peak covers the sieve to 200,000 and the
    17,984 primes it keeps."""
    ratio = FactorialRatio((200_000,), (199_999,))
    tracemalloc.start()
    try:
        value = eval_ratio_legendre(ratio)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 200_000
    assert peak < 1_500_000


def test_large_multinomial_matches_the_direct_value():
    ratio = multinomial_ratio((3000, 2000, 1000))
    assert eval_ratio_legendre(ratio) == eval_ratio_direct(ratio)


def _trial_primes_upto(n: int) -> list[int]:
    return TRIAL_PRIMES[: bisect.bisect_right(TRIAL_PRIMES, n)]


def test_sieve_matches_trial_division(empty_prime_table):
    """Ascending from an empty table, each limit from 2 on re-sieves;
    descending, each after the first is a bisection into the table."""
    for limits in (range(-2, 2000), range(2001, -3, -1)):
        for n in limits:
            assert arith._primes_upto(n) == _trial_primes_upto(n), n


@given(
    limits=st.lists(st.integers(min_value=-2, max_value=5000), max_size=20),
    first=st.sampled_from([1, 5000]),
)
@example(limits=[4999, 5000, 2, 4998], first=1)
def test_sieve_matches_trial_division_in_any_order(limits, first):
    """Limits in drawn order, from an empty table (first 1) or after a
    sieve to 5,000, so that a limit above every earlier one re-sieves and
    any other is a bisection; the table always holds the primes up to its
    limit."""
    saved = arith._prime_table
    try:
        arith._prime_table = (1, [])
        arith._primes_upto(first)
        largest = first
        for n in limits:
            assert arith._primes_upto(n) == _trial_primes_upto(n), n
            largest = max(largest, n)
            assert arith._prime_table == (largest, _trial_primes_upto(largest))
    finally:
        arith._prime_table = saved


def test_a_returned_list_is_the_callers_own(empty_prime_table):
    """Changing a list the sieve returned, whether it re-sieved or
    bisected, leaves every later result unchanged."""
    for limit in (100, 1000, 100, 1000, 500):  # re-sieves, then bisections
        primes = arith._primes_upto(limit)
        assert primes == _trial_primes_upto(limit), limit
        primes[0] = 4
        primes.append(limit + 1)
        del primes[1:3]
    assert arith._primes_upto(1000) == _trial_primes_upto(1000)


def _outcome(ratio: FactorialRatio) -> int | str:
    """The value of the ratio, or the message of its NonIntegralRatio."""
    try:
        return eval_ratio_legendre(ratio)
    except NonIntegralRatio as error:
        return str(error)


@settings(max_examples=20, deadline=None)
@given(ratios=st.lists(mixed_ratios(largest=20_000), min_size=4, max_size=12))
def test_threads_evaluating_at_once_share_the_prime_table(ratios):
    """4 threads evaluate the drawn ratios at once, 3 times over, each
    time from an empty table and with a short switch interval, so that
    re-sieves up to 20,000 interleave with bisections into the table;
    every outcome matches the one-thread outcome."""
    expected = [_outcome(r) for r in ratios]
    saved, interval = arith._prime_table, sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                arith._prime_table = (1, [])
                assert list(pool.map(_outcome, ratios, timeout=60)) == expected
    finally:
        sys.setswitchinterval(interval)
        arith._prime_table = saved


# --- product trees -----------------------------------------------------------

# 9 to 150 arguments under a per-example bound of 0..400, so that a
# side's sum falls below the tree cutoff for a small bound and far above
# it for a large one; the length is drawn first, or lists stay short.
many_factorial_args = st.tuples(
    st.integers(min_value=9, max_value=150),
    st.one_of(st.integers(min_value=0, max_value=30), st.integers(min_value=31, max_value=400)),
).flatmap(lambda size_top: st.lists(
    st.integers(min_value=0, max_value=size_top[1]), min_size=size_top[0], max_size=size_top[0]
)).map(tuple)


@settings(deadline=None, max_examples=50)
@given(num=many_factorial_args, data=st.data())
@example(num=(1,) * 9, data=None)  # sum 9, below the cutoff
@example(num=(400,) * 150, data=None)  # sum 60,000, a deep tree
def test_both_evaluators_agree_on_many_arguments(num, data):
    """Sides with many arguments take the product tree once they sum to
    the cutoff or more.  The denominator is either drawn on its own
    (mostly not a divisor) or the numerator with some arguments lowered
    (always a divisor, since m'! divides m! for m' <= m)."""
    if data is None:
        den = num[::-1]
    elif data.draw(st.booleans(), label="divisor"):
        den = tuple(data.draw(st.integers(min_value=0, max_value=m)) for m in num)
    else:
        den = data.draw(many_factorial_args, label="den")
    ratio = FactorialRatio(num, den)
    try:
        direct = eval_ratio_direct(ratio)
    except NonIntegralRatio:
        with pytest.raises(NonIntegralRatio):
            eval_ratio_legendre(ratio)
        return
    assert eval_ratio_legendre(ratio) == direct


def test_product_tree_cutoff_does_not_change_a_value(monkeypatch):
    """Every family ratio with s <= 80 and the multinomials of ``check``,
    evaluated with the tree on every side, at the module's cutoff, and
    on no side."""
    ratios = [degree_ratio(type_i(k, s)) for s in range(2, 81) for k in range(1, s)]
    ratios += [degree_ratio(type_ii(s)) for s in range(2, 81)]
    ratios += [degree_ratio(type_iii(s)) for s in range(1, 81)]
    ratios += [multinomial_ratio(dims) for dims in CHECK_MULTINOMIALS]
    # one-argument sides above the cutoff
    ratios += [multinomial_ratio([900] * 8), FactorialRatio((3000,), (2999,))]
    assert sum(sum(r.numerator_factorials) >= PRODUCT_TREE_MIN_SUM for r in ratios) >= 100
    values = {}
    for path, cutoff in {"tree": 0, "cutoff": PRODUCT_TREE_MIN_SUM, "flat": math.inf}.items():
        monkeypatch.setattr(arith, "PRODUCT_TREE_MIN_SUM", cutoff)
        values[path] = [eval_ratio_direct(r) for r in ratios]
    assert values["tree"] == values["cutoff"] == values["flat"]
    assert values["cutoff"][-1] == 3000
    monkeypatch.setattr(arith, "PRODUCT_TREE_MIN_SUM", 0)
    for ratio, _ in LARGE_NON_INTEGRAL:  # still an error through the tree
        with pytest.raises(NonIntegralRatio):
            eval_ratio_direct(ratio)


# --- exact division ----------------------------------------------------------

CUTOFF = EXACT_DIVISION_MIN_BITS


def _odd(bits: int) -> int:
    """An odd number of exactly ``bits`` bits with irregular digits."""
    return (3**bits >> (3**bits).bit_length() - bits) | 1 | 1 << (bits - 1)


@given(
    q=st.integers(min_value=0, max_value=2 ** (2 * CUTOFF)),
    d=st.integers(min_value=0, max_value=2 ** (2 * CUTOFF)).map(lambda n: 2 * n + 1),
    e=st.integers(min_value=0, max_value=300),
    data=st.data(),
)
def test_exact_quotient_returns_q_and_rejects_every_remainder(q, d, e, data):
    """num = q * d * 2^e gives q back; num + r with 0 < r < den gives None.
    Denominators are drawn on both sides of the divmod cutoff."""
    den = d << e
    num = q * den
    assert exact_quotient(num, den) == q
    if den > 1:
        r = data.draw(st.integers(min_value=1, max_value=den - 1), label="r")
        assert exact_quotient(num + r, den) is None


@pytest.mark.parametrize("den_bits", [CUTOFF - 1, CUTOFF, 3 * CUTOFF])
def test_exact_quotient_on_both_sides_of_the_cutoff(den_bits):
    den = _odd(den_bits - 40) << 40
    assert den.bit_length() == den_bits
    for q in (0, 1, 2, 3, _odd(1000), _odd(CUTOFF), 1 << CUTOFF):
        assert exact_quotient(q * den, den) == q
        assert exact_quotient(q * den + 1, den) is None
        assert exact_quotient(q * den + den - 1, den) is None
        assert exact_quotient(q * den + (den >> 1), den) is None


@pytest.mark.parametrize("den_bits", [64, 2 * CUTOFF])
def test_exact_quotient_of_a_quotient_with_at_most_one_bit(den_bits):
    """k = bitlen(num >> e) - bitlen(d) + 1 <= 1: the quotient is 0 or 1,
    or the numerator is smaller than the denominator."""
    d = _odd(den_bits)
    for e in (0, 7):
        den = d << e
        assert exact_quotient(den, den) == 1  # k = 1
        assert exact_quotient(0, den) == 0  # k <= 0
        assert exact_quotient(den + (2 << e), den) is None  # k = 1, same bit length
        assert exact_quotient(den - (2 << e), den) is None  # k = 1, num < den
        assert exact_quotient((d >> 1) << e, den) is None  # k = 0
        assert exact_quotient(1 << e, den) is None  # k <= 0


@pytest.mark.parametrize("den_bits", [64, 2 * CUTOFF])
def test_exact_quotient_when_the_denominator_has_more_factors_of_2(den_bits):
    d = _odd(den_bits)
    for q in (1, _odd(200), _odd(CUTOFF)):
        # num has 2^5, den has 2^6: never an integer, whatever the odd parts
        assert exact_quotient((q * d) << 5, d << 6) is None
        assert exact_quotient((q * d) << 6, d << 6) == q
        assert exact_quotient((q * d) << 9, d << 6) == q << 3


def _ratio_operands(space):
    ratio = degree_ratio(space)
    return (
        math.prod(map(math.factorial, ratio.numerator_factorials)),
        math.prod(map(math.factorial, ratio.denominator_factorials)),
    )


def test_exact_quotient_on_large_family_ratios_matches_divmod():
    """The large spaces of the benchmark's report pool, against a
    schoolbook divmod reference computed here, which the prime-exponent
    evaluator must match too."""
    for text in ("II(149)", "III(140)", "I(120,240)", "I(6,220)"):
        factor = parse(text).factors[0]
        num, den = _ratio_operands(factor)
        assert den.bit_length() >= CUTOFF, text  # the 2-adic path
        quotient, remainder = divmod(num, den)
        assert remainder == 0
        assert exact_quotient(num, den) == quotient
        assert eval_ratio_legendre(degree_ratio(factor)) == quotient, text
        assert exact_quotient(num + 1, den) is None
        v = (quotient & -quotient).bit_length() - 1  # 2^v exactly divides the quotient
        assert exact_quotient(num, den << (v + 1)) is None  # one factor of 2 short


def test_small_quotients_over_large_denominators_take_the_2_adic_path(monkeypatch):
    """I(2,s) and I(1,s) have quotients of a few hundred bits or fewer
    over a denominator of 16,384 bits or more: the denominator alone
    chooses the path, so each is divided 2-adically."""
    inverse, calls = arith._inverse_mod_power_of_2, []

    def counting(d, bits):
        calls.append(bits)
        return inverse(d, bits)

    monkeypatch.setattr(arith, "_inverse_mod_power_of_2", counting)
    for space in (type_i(2, 90), type_i(2, 120), type_i(1, 160)):
        num, den = _ratio_operands(space)
        assert den.bit_length() >= CUTOFF, space
        quotient, remainder = divmod(num, den)
        assert remainder == 0
        calls.clear()
        assert exact_quotient(num, den) == quotient, space
        assert calls, f"{space} took divmod"
        assert exact_quotient(num + 1, den) is None, space


def test_both_division_paths_agree_on_family_ratios(monkeypatch):
    """Each family ratio divided once by divmod alone and once by the
    2-adic path alone, whatever the cutoff would choose."""
    spaces = [type_i(k, s) for s in range(4, 121, 9) for k in (1, 2, 3, s // 3, s // 2)]
    spaces += [type_ii(s) for s in range(2, 81, 6)] + [type_iii(s) for s in range(1, 81, 6)]
    operands = [_ratio_operands(space) for space in spaces]
    assert sum(den.bit_length() >= CUTOFF for _, den in operands) >= 10
    for path, min_bits in {"divmod": math.inf, "2-adic": 0}.items():
        monkeypatch.setattr(arith, "EXACT_DIVISION_MIN_BITS", min_bits)
        for (num, den), space in zip(operands, spaces):
            quotient, remainder = divmod(num, den)
            assert remainder == 0
            assert exact_quotient(num, den) == quotient, (path, space)
            assert den == 1 or exact_quotient(num + 1, den) is None, (path, space)
            v = (quotient & -quotient).bit_length() - 1  # 2^v exactly divides the quotient
            assert exact_quotient(num, den << (v + 1)) is None, (path, space)
