"""Embedding degree, Gromov width and Gamma.

Each irreducible factor has a canonical full projective embedding whose
degree admits a closed form as a ratio of factorials, read off from
Hua's volume computation for the corresponding classical domain.  In
the normalization where the positive generator of H_2 pairs with the
Kaehler form to pi:

    Vol(M) = degree * pi^n / n!        (degree-volume identity)
    Gromov width = pi                  (one symbolic unit)

so in units of pi^n/n! the volume is the degree itself, and Gamma =
floor(Vol * n! / width^n) + 1 is floor(degree / w^n) + 1 for a width of
w units of pi.  ``gamma_from_degree`` computes it from a given degree
and width; with w = 1 it is the exact integer degree + 1 -- no floating
point is involved anywhere.  It is the only place a degree becomes
Gamma, and no volume is stored: a report prints it from its degree and n.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .arith import FactorialRatio, eval_ratio_direct
from .spaces import FAMILIES, InvalidParams, IrreducibleSpace, SpaceExpr

# The production evaluator: ``degree`` and the checks that certify it read this one name.
eval_ratio = eval_ratio_direct


def degree_ratio(space: IrreducibleSpace) -> FactorialRatio:
    """Factorial-ratio form of the irreducible embedding degree.  A
    spelling that ``SpaceExpr`` rewrites (``spaces.COINCIDENCES``) may
    raise ``InvalidParams``, and so does a factor whose ratio has more
    factorial arguments than a tuple can hold."""
    try:
        return FAMILIES[space.kind].degree(*space.params)
    except OverflowError:
        raise InvalidParams(f"degree of {space}: too many factorial arguments") from None


def multinomial_ratio(dims: Sequence[int]) -> FactorialRatio:
    """(n_1 + ... + n_m)! / (n_1! ... n_m!), the product mixing factor."""
    return FactorialRatio((sum(dims),), tuple(dims))


def degree(space: SpaceExpr) -> int:
    """Degree of the canonical projective embedding of the product: each
    distinct factor's ratio raised to its count, times, for a product,
    multinomial(n_1, ..., n_m), the Segre-composition of the factor
    embeddings.  Every ratio is built before any is evaluated, and a
    product whose dimension exceeds ``sys.maxsize``, the largest
    argument of ``math.factorial``, raises ``InvalidParams``.
    """
    factors = space.factors
    ratios = [(degree_ratio(f), factors.count(f)) for f in dict.fromkeys(factors)]
    if len(factors) > 1:
        dims = [f.dimension for f in factors]
        if sum(dims) > sys.maxsize:
            raise InvalidParams(f"degree of {space}: dimension {sum(dims)} exceeds {sys.maxsize}, the factorial limit")
        ratios.append((multinomial_ratio(dims), 1))
    value = 1
    for ratio, m in ratios:
        value *= eval_ratio(ratio) ** m
    return value


def gromov_width_units(space: SpaceExpr) -> int:
    """Gromov width in units of pi: exactly one unit for every space.

    Constant by the width computation for compact Hermitian symmetric
    spaces (products included); it exists as a function so the Gamma
    derivation below reads the way it is proved.
    """
    return 1


def gamma_from_degree(d: int, n: int, width_units: int) -> int:
    """floor(Vol * n! / width^n) + 1 from the degree d = Vol * n! / pi^n
    of a space of complex dimension n and its Gromov width in units of
    pi: floor(d / width_units^n) + 1, in exact integers."""
    return d // width_units**n + 1


def gamma(space: SpaceExpr) -> int:
    """floor(Vol * n! / width^n) + 1, evaluated exactly: degree + 1."""
    return gamma_from_degree(degree(space), space.dimension, gromov_width_units(space))
