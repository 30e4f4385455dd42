"""Embedding degree, normalized volume, Gromov width and Gamma.

Each irreducible factor has a canonical full projective embedding whose
degree admits a closed form as a ratio of factorials, read off from
Hua's volume computation for the corresponding classical domain.  In
the normalization where the positive generator of H_2 pairs with the
Kaehler form to pi:

    Vol(M) = degree * pi^n / n!        (degree-volume identity)
    Gromov width = pi                  (one symbolic unit)

so Gamma = floor(Vol * n! / width^n) + 1 collapses to the exact integer
degree + 1 -- no floating point is involved anywhere.

The type III closed form is implemented verbatim.  At small parameters
(s <= 4) it disagrees with the low-dimensional isomorphism III(2) ~
IV(3); the oracle module keeps that visible instead of patching it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .arith import FactorialRatio, eval_ratio_direct
from .spaces import InvalidParams, IrreducibleSpace, SpaceExpr

QUADRIC_DEGREE = 2


def degree_ratio(space: IrreducibleSpace) -> FactorialRatio | None:
    """Factorial-ratio form of the irreducible embedding degree.

    Type IV has constant degree 2 and no ratio form (None is returned);
    IV(1) and IV(2) are refused, since ``SpaceExpr`` construction
    rewrites them into type I factors.  The type
    I form is symmetric under k <-> s-k, so non-canonical labellings
    are accepted.
    """
    if space.kind == "I":
        k, s = space.params
        return FactorialRatio(
            tuple(range(1, s - k)) + tuple(range(1, k)) + ((s - k) * k,),
            tuple(range(1, s)),
        )
    (s,) = space.params
    if space.kind == "II":
        return FactorialRatio(
            (s * (s - 1) // 2,) + tuple(2 * j for j in range(1, s - 1)),
            tuple(range(s - 1, 2 * s - 2)),
        )
    if space.kind == "III":
        return FactorialRatio(
            (s * (s + 1) // 2,) + tuple(2 * j for j in range(1, s)),
            tuple(range(s, 2 * s)),
        )
    if s <= 2:
        raise InvalidParams(
            f"degree of {space.render()} requires canonical form "
            "(SpaceExpr construction rewrites IV(1) and IV(2) into type I)"
        )
    return None


def degree_irreducible(space: IrreducibleSpace) -> int:
    ratio = degree_ratio(space)
    if ratio is None:
        return QUADRIC_DEGREE
    return eval_ratio_direct(ratio)


def multinomial_ratio(dims: Sequence[int]) -> FactorialRatio:
    """(n_1 + ... + n_m)! / (n_1! ... n_m!), the product mixing factor."""
    return FactorialRatio((sum(dims),), tuple(dims))


def degree(space: SpaceExpr) -> int:
    """Degree of the canonical projective embedding of the product.

    For a single factor this is the irreducible degree; for a product
    it is multinomial(n_1, ..., n_m) times the factor degrees, which is
    the Segre-composition of the factor embeddings.
    """
    result = math.prod(degree_irreducible(f) for f in space.factors)
    if len(space.factors) > 1:
        result *= eval_ratio_direct(multinomial_ratio([f.dimension for f in space.factors]))
    return result


class NormalizedVolume(NamedTuple):
    """Symplectic volume in units of pi^n/n!: Vol = units * pi^n / n!.

    ``units`` always equals the embedding degree; CP^n itself has one
    unit.
    """

    units: int
    dim: int

    def render(self) -> str:
        return f"{self.units}·π^{self.dim}/{self.dim}!"


def volume_units(space: SpaceExpr) -> NormalizedVolume:
    return NormalizedVolume(units=degree(space), dim=space.dimension)


def gromov_width_units(space: SpaceExpr) -> int:
    """Gromov width in units of pi: exactly one unit for every space.

    Constant by the width computation for compact Hermitian symmetric
    spaces (products included); it exists as a function so the Gamma
    derivation below reads the way it is proved.
    """
    return 1


def gamma(space: SpaceExpr) -> int:
    """floor(Vol * n! / width^n) + 1, evaluated exactly.

    Vol * n! / pi^n is the integer ``degree`` and the width is one unit
    of pi, so the floor argument is already an integer and Gamma is
    degree + 1.
    """
    return degree(space) + 1
