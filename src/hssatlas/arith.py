"""Exact arithmetic on products and ratios of factorials.

Everything downstream of this module is an exact integer.  Ratios of
factorials are kept symbolic (``FactorialRatio``) until evaluated, and
two evaluators with no shared arithmetic are provided: direct
multiplication followed by one exact division, and reconstruction from
per-prime exponents.  Each serves as an independent cross-check of the
other.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class NonIntegralRatio(ArithmeticError):
    """A factorial ratio failed to be an integer.

    Every degree handled by this package is an integer, so a
    non-integral ratio always means a formula was transcribed wrongly;
    it is never a legitimate value to round.
    """


def factorial(m: int) -> int:
    if m < 0:
        raise ValueError(f"factorial is undefined for negative {m}")
    return math.factorial(m)


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


def eval_ratio_direct(ratio: FactorialRatio) -> int:
    """Evaluate by big-integer multiplication and one exact division."""
    num = math.prod(factorial(m) for m in ratio.numerator_factorials)
    den = math.prod(factorial(m) for m in ratio.denominator_factorials)
    quotient, remainder = divmod(num, den)
    if remainder:
        raise NonIntegralRatio(f"{ratio} is not an integer")
    return quotient


def _primes_upto(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray((1,)) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p, flag in enumerate(sieve) if flag]


def _prime_exponent_in_factorial(m: int, p: int) -> int:
    """Exponent of the prime p in m!: sum of floor(m / p^i)."""
    exponent = 0
    power = p
    while power <= m:
        exponent += m // power
        power *= p
    return exponent


def eval_ratio_legendre(ratio: FactorialRatio) -> int:
    """Evaluate through per-prime exponents, never forming a factorial.

    The net exponent of each prime is the signed sum of its exponents
    in the individual factorials; a negative net exponent is exactly
    the condition for the ratio not to be an integer.

    The arguments are scanned in descending order, and the scan for a
    prime p stops at the first argument m < p, whose factorial p does
    not divide.  Primes sharing a net exponent e are multiplied
    together first and raised to e once, so the result takes one big
    multiplication per distinct exponent instead of one per prime.
    """
    signed = sorted(
        [(m, 1) for m in ratio.numerator_factorials]
        + [(m, -1) for m in ratio.denominator_factorials],
        reverse=True,
    )
    by_exponent: dict[int, list[int]] = {}
    for p in _primes_upto(signed[0][0] if signed else 0):
        net = 0
        for m, sign in signed:
            if m < p:
                break
            net += sign * _prime_exponent_in_factorial(m, p)
        if net < 0:
            raise NonIntegralRatio(f"{ratio} is not an integer (prime {p} left over)")
        if net:
            by_exponent.setdefault(net, []).append(p)
    value = 1
    for net, primes in by_exponent.items():
        value *= math.prod(primes) ** net
    return value
