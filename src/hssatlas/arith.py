"""Exact arithmetic on products and ratios of factorials.

Everything downstream of this module is an exact integer.  Ratios of
factorials are kept symbolic (``FactorialRatio``) until evaluated, and
two evaluators with no shared arithmetic are provided: direct
multiplication followed by one exact division, and reconstruction from
per-prime exponents.  Each serves as an independent cross-check of the
other.

``eval_ratio_direct`` multiplies each side with ``_product_tree`` and
divides with ``exact_quotient``; each of the two documents its own step.
``eval_ratio_legendre`` documents the prime-exponent method, and
``_primes_upto`` the process's prime table that it reads.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple


class NonIntegralRatio(ArithmeticError):
    """A factorial ratio failed to be an integer.

    Every degree handled by this package is an integer, so a
    non-integral ratio always means a formula was transcribed wrongly;
    it is never a legitimate value to round.
    """


class FactorialRatio(NamedTuple):
    """A product of factorials divided by a product of factorials.

    Fields hold the factorial arguments: numerator ``(10, 2, 4, 6)``
    stands for ``10! * 2! * 4! * 6!``.  Empty tuples are the empty
    product, i.e. 1.
    """

    numerator_factorials: tuple[int, ...]
    denominator_factorials: tuple[int, ...]

    def __str__(self) -> str:
        num = "*".join(f"{m}!" for m in self.numerator_factorials) or "1"
        den = "*".join(f"{m}!" for m in self.denominator_factorials) or "1"
        return f"({num})/({den})"


# The one gate of ``exact_quotient``: below this many denominator bits
# ``divmod`` is the faster division, since the 2-adic path's shifts,
# masks and inverse outweigh what Karatsuba saves; at or above it the
# 2-adic path is taken whatever the quotient's size (crossover measured
# on the family degree ratios, CPython 3.11).
EXACT_DIVISION_MIN_BITS = 16384


def _inverse_mod_power_of_2(d: int, bits: int) -> int:
    """d^-1 modulo 2^bits for odd d.  Each Newton-Hensel step
    x -> x * (2 - d * x) doubles the number of correct low bits, and
    d * d = 1 modulo 8 starts the lift."""
    if bits <= 3:
        return d & ((1 << bits) - 1)
    x = _inverse_mod_power_of_2(d, (bits + 1) // 2)
    mask = (1 << bits) - 1
    return x * (2 - (d & mask) * x) & mask


def exact_quotient(num: int, den: int) -> int | None:
    """num / den for num >= 0 and den > 0, or None when den does not
    divide num.

    A denominator below ``EXACT_DIVISION_MIN_BITS`` bits is a ``divmod``
    and its remainder test.  Any other division is 2-adic (Jebelean, "An
    algorithm for exact division", J. Symbolic Computation 15, 1993):
    with den = 2^e * d and d odd, a numerator that 2^e does not divide is
    not a multiple of den; otherwise the quotient is (num / 2^e) * d^-1
    modulo a power of 2 just large enough to hold an exact quotient.
    That is multiplications only, which CPython does by Karatsuba, in
    place of schoolbook long division.  The candidate is returned only
    if candidate * d equals num / 2^e in full: that product is the
    exactness check, as strong as a zero remainder."""
    if den.bit_length() < EXACT_DIVISION_MIN_BITS:
        quotient, remainder = divmod(num, den)
        return None if remainder else quotient
    e = (den & -den).bit_length() - 1  # den = 2^e * d, d odd
    if num & ((1 << e) - 1):
        return None
    a, d = num >> e, den >> e
    k = a.bit_length() - d.bit_length() + 1  # an exact quotient has at most k bits
    q = 0
    if k > 0:
        # the low h bits from d^-1 modulo 2^h, then the other k - h
        # from the residual (a - d * q) / 2^h: the last Newton step,
        # folded into the quotient (Karp-Markstein)
        h = (k + 1) // 2
        inverse = _inverse_mod_power_of_2(d, h)
        low, top = (1 << h) - 1, (1 << k) - 1
        q = (a & low) * inverse & low
        residual = ((a & top) - (d & top) * q) >> h
        q |= (residual * inverse & (top >> h)) << h
    return q if q * d == a else None


# A growing product times one factorial at a time multiplies operands
# of very different sizes; pairing halves of similar size is faster from
# about this argument sum on (crossover between sums of 2,300 and 3,200
# on the family degree ratios, CPython 3.11).
PRODUCT_TREE_MIN_SUM = 2048


def _product_tree(args: tuple[int, ...]) -> int:
    """The product of m! over args by binary splitting (after Luschny's
    notes on factorial algorithms): args is halved until each half sums
    below ``PRODUCT_TREE_MIN_SUM`` or holds one argument, each such leaf
    is one left-to-right ``math.prod``, and the leaves are multiplied
    pairwise, so that the large multiplications have operands of
    similar size, where Karatsuba pays."""
    if len(args) <= 1 or sum(args) < PRODUCT_TREE_MIN_SUM:
        return math.prod(map(math.factorial, args))
    half = len(args) // 2
    return _product_tree(args[:half]) * _product_tree(args[half:])


def eval_ratio_direct(ratio: FactorialRatio) -> int:
    """Evaluate by big-integer multiplication and one exact division.

    A ratio whose two sides list the same arguments in the same order,
    as the Hua ratio of every CP^n does, is 1 before any factorial is
    formed.  Only tuple equality is tested, so a reordered side, such
    as II(3)'s, is still multiplied out.  A negative argument skips
    that answer and reaches ``math.factorial``: a factorial that does
    not exist is never cancelled away, so (-3)!/(-3)! raises
    ``ValueError`` here as in ``eval_ratio_legendre``."""
    num, den = ratio
    if num == den and min(num, default=0) >= 0:
        return 1
    quotient = exact_quotient(_product_tree(num), _product_tree(den))
    if quotient is None:
        raise NonIntegralRatio(f"{ratio} is not an integer")
    return quotient


# The primes up to the largest limit sieved in this process, as one
# binding (limit, primes), so that a process sieves once for all of its
# ratios.  It is replaced whole and never changed in place, so a reader
# never sees a limit with a shorter list; two threads that both re-sieve
# can leave the smaller of their tables, which costs a later re-sieve
# and no wrong value.
_prime_table: tuple[int, list[int]] = (1, [])


def _primes_upto(limit: int) -> list[int]:
    """The primes up to limit, as a new list.

    A limit above the table's re-sieves and replaces the table: a sieve
    of Eratosthenes where byte i stands for i.  Any other limit is
    answered by bisection into the table."""
    global _prime_table
    sieved, primes = _prime_table
    if limit > sieved:
        sieve = bytearray((1,)) * (limit + 1)
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
        primes = list(itertools.compress(range(limit + 1), sieve))
        _prime_table = limit, primes
    return primes[: bisect.bisect_right(primes, limit)]


def eval_ratio_legendre(ratio: FactorialRatio) -> int:
    """Evaluate through per-prime exponents, never forming a factorial.

    The net exponent of each prime is the signed sum of its exponents
    in the individual factorials; a negative net exponent is exactly
    the condition for the ratio not to be an integer, and the error
    names the smallest such prime.

    The ratio is first reduced to net multiplicities: each distinct
    argument counts once per numerator occurrence and minus once per
    denominator occurrence, and the arguments whose count is 0, as well
    as 0 and 1 (0! = 1! = 1), are dropped (a Hua ratio of ``I(k,s)``
    lists about 2s arguments, and about 2k+1 are left).  A negative
    argument raises ``ValueError``, as ``math.factorial`` does, even
    where it would cancel.  The primes up to the largest argument left,
    top, come from ``_primes_upto``; a ratio that cancels entirely
    returns 1 without them.

    The exponent of p in m! is Legendre's sum of floor(m / q) over the
    prime powers q = p^i.  The arguments other than top that are no
    larger than the number of primes up to it are dense: over them the
    suffix count S(x), the sum of the counts of the dense arguments
    m >= x, gives sum_m count_m * floor(m / q) as S(q) + S(2q) + ...,
    one slice sum per prime power, and S is never longer than the list
    of primes.  top and the other arguments above that bound each keep
    one Legendre sum per prime, up to the first argument below p, whose
    factorial p does not divide.  A prime above both the second-largest
    argument and the square root of top divides only top!, exactly
    floor(top / p) times; such primes with equal quotients are
    consecutive, so each run of them is found by bisection and takes its
    exponent at once.  Primes sharing a net exponent are multiplied
    together once, and the value is built by square-and-multiply over
    the bits of the net exponents, from the highest bit down: at each
    bit it is squared and multiplied by the product of the groups whose
    exponent has that bit set (Borwein, "On the complexity of
    calculating factorials", J. Algorithms 6, 1985).  A ratio whose
    arguments do not all cancel but whose net exponents all do, such as
    6!/(5! * 3!), has no bit to walk and is 1.
    """
    counts: dict[int, int] = {}
    for m in ratio.numerator_factorials:
        counts[m] = counts.get(m, 0) + 1
    for m in ratio.denominator_factorials:
        counts[m] = counts.get(m, 0) - 1
    if counts and min(counts) < 0:
        raise ValueError("factorial() not defined for negative values")
    terms = sorted(((m, count) for m, count in counts.items() if count and m > 1), reverse=True)
    if not terms:
        return 1
    top, top_count = terms[0]
    primes = _primes_upto(top)
    if primes[0] < 2:  # p = 1 would make each power loop below run without end
        raise RuntimeError(f"the prime table begins {primes[:3]}, not with 2")
    # the largest argument is always above len(primes), so the arguments
    # walked one Legendre sum each are a prefix of terms, the dense the rest
    split = sum(m > len(primes) for m, _ in terms)
    walked, dense = terms[:split], terms[split:]
    suffix = [0] * (dense[0][0] + 1 if dense else 1)
    for m, count in dense:
        suffix[m] = count
    suffix = list(itertools.accumulate(reversed(suffix)))[::-1]
    last = len(suffix) - 1
    # primes[:i] are at most the second-largest argument or sqrt(top)
    i = bisect.bisect_right(primes, max(terms[1][0] if len(terms) > 1 else 0, math.isqrt(top)))
    by_exponent: dict[int, list[int]] = {}
    for p in primes[:i]:
        net, q = 0, p
        while q <= last:
            net += sum(suffix[q::q])
            q *= p
        for m, count in walked:
            if m < p:
                break
            exponent, q = 0, m // p
            while q:
                exponent += q
                q //= p
            net += count * exponent
        if net < 0:
            raise NonIntegralRatio(f"{ratio} is not an integer (prime {p} left over)")
        if net:
            by_exponent.setdefault(net, []).append(p)
    while i < len(primes):
        p = primes[i]
        quotient = top // p
        end = bisect.bisect_right(primes, top // quotient, i)
        net = top_count * quotient
        if net < 0:
            raise NonIntegralRatio(f"{ratio} is not an integer (prime {p} left over)")
        by_exponent.setdefault(net, []).extend(primes[i:end])
        i = end
    groups = [(net, math.prod(group)) for net, group in by_exponent.items()]
    value = 1
    for bit in reversed(range(max(by_exponent, default=0).bit_length())):
        value = value * value * math.prod([product for net, product in groups if net >> bit & 1])
    return value
