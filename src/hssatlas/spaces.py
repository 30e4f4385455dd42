"""Data model and parser for products of the classical families.

``FAMILIES`` is the one place that knows which families exist, and
``COINCIDENCES`` the one list of spellings that name the same manifold:
canonical form takes its rewrites from it, and ``check`` its probes.
An expression denotes a finite product of irreducible compact Hermitian
symmetric spaces:

    expr := term (("x" | "*") term)*
    term := atom ("^" exponent)?
    atom := kind "(" integer ("," integer)* ")" | "CP(" n ")" | "(" expr ")"

A kind, a key of ``FAMILIES``, takes as many integers as its arity:
``I(k, s)``, ``II(s)``, ``III(s)``, ``IV(s)``.  Whitespace is
insignificant and integers are ASCII digits.  ``CP(n)`` is sugar for
``I(1, n+1)`` and an exponent repeats a factor.  A whole expression may
expand to at most 64 factors as written (before the rewrites:
``IV(2)^64`` has 128 canonical factors) and nest parentheses at most 64
deep, so a typo can neither allocate an absurd product nor exhaust the
stack; both limits are checked before anything is expanded.  Every
``SpaceExpr`` is in canonical form, because construction rewrites it;
its rendering is the key format used by every report, table and
refinement file.

``parse`` is a recursive descent (``_Parser``) over compiled patterns
matched at the current position, so parsing is linear in the length of
the text (a run of 200,000 blanks is one match).
"""

from __future__ import annotations

import operator
import re
from itertools import takewhile
from typing import Callable, Iterable, NamedTuple

from .arith import FactorialRatio

_MAX_EXPONENT = 64  # also the bound on the expanded factor count
_MAX_NESTING = 64


class SpaceSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidParams(ValueError):
    """Structurally valid expression with out-of-range parameters."""


class EmptyProduct(ValueError):
    """A space expression needs at least one factor."""


class Family(NamedTuple):
    """One classical family; the callables take its parameters."""

    arity: int
    signature: str  # how the parameters are written, e.g. "(k, s)"
    least: int  # the least s; a family without parameters has no s
    dimension: Callable[..., int]
    rank: Callable[..., int]
    degree: Callable[..., FactorialRatio]  # Hua's factorial ratio, 2! for the quadric
    citation: str  # the result a report cites for the degree
    small_upto: int | None = None  # a report warns of its degree formula up to this s
    scan_note: str | None = None  # a footnote of every scan of the family


def _degree_i(k: int, s: int) -> FactorialRatio:
    # symmetric under k <-> s-k, so a non-canonical labelling is accepted
    numerator = tuple(range(1, s - k)) + tuple(range(1, k)) + ((s - k) * k,)
    return FactorialRatio(numerator, tuple(range(1, s)))


def _degree_ii(s: int) -> FactorialRatio:
    evens = tuple(range(2, 2 * (s - 1), 2))
    return FactorialRatio((s * (s - 1) // 2,) + evens, tuple(range(s - 1, 2 * s - 2)))


def _degree_iii(s: int) -> FactorialRatio:
    # The published closed form, verbatim; see COINCIDENCES for III(2).
    evens = tuple(range(2, 2 * s, 2))
    return FactorialRatio((s * (s + 1) // 2,) + evens, tuple(range(s, 2 * s)))


_QUADRIC = FactorialRatio((2,), ())  # 2! = 2 for every IV(s), s >= 3


def _degree_iv(s: int) -> FactorialRatio:
    if s <= 2:
        raise InvalidParams(
            f"degree of IV({s}) requires canonical form "
            "(SpaceExpr construction rewrites IV(1) and IV(2) into type I)"
        )
    return _QUADRIC


# The families in canonical factor order; IV(1) and IV(2) have ranks 1 and 2.
# The type II form below s=6 and the type III form below s=5 are outside
# the range the classification uses them in, so a report warns of them.
FAMILIES = {
    "I": Family(2, "(k, s)", 2, lambda k, s: (s - k) * k, lambda k, s: min(k, s - k), _degree_i,
                "degree(I(k,s)): volume of the type I classical domain (Hua); "
                "equals the standard-Young-tableaux count of the k x (s-k) rectangle"),
    "II": Family(1, "(s,)", 2, lambda s: s * (s - 1) // 2, lambda s: s // 2, _degree_ii,
                 "degree(II(s)): volume of the type II classical domain (Hua)", 5),
    "III": Family(1, "(s,)", 1, lambda s: s * (s + 1) // 2, lambda s: s, _degree_iii,
                  "degree(III(s)): volume of the type III classical domain (Hua)", 4,
                  "type III threshold: published statements disagree (s >= 5 vs s >= 6); "
                  "the exact degrees give the first clause-(i) case at s = 5, since "
                  "degree(III(4)) = 12 < 2n = 20 while degree(III(5)) = 286 >= 2n = 30"),
    "IV": Family(1, "(s,)", 1, lambda s: s, lambda s: min(s, 2), _degree_iv,
                 "degree(IV(s)) = 2: quadric embedding (Wirtinger degree-volume identity)"),
}


class _IrreducibleFields(NamedTuple):
    kind: str
    params: tuple[int, ...]


class IrreducibleSpace(_IrreducibleFields):
    """One irreducible factor: a kind of ``FAMILIES`` plus as many
    integer parameters as its arity.

    An immutable named tuple whose params are a tuple of plain ints:
    each parameter passes through ``operator.index`` (so ``True`` is 1),
    and one that is not an integer, or is out of range, raises
    ``InvalidParams`` when it is built, as does a kind that is not a
    key of ``FAMILIES`` (a non-string too)."""

    __slots__ = ()

    def __new__(cls, kind: str, params: tuple[int, ...]) -> IrreducibleSpace:
        family = FAMILIES.get(kind) if isinstance(kind, str) else None
        if family is None:
            raise InvalidParams(f"unknown space kind {kind!r}")
        try:
            params = tuple(map(operator.index, params))
        except TypeError:
            raise InvalidParams(f"type {kind} takes integers {family.signature}, got {params!r}") from None
        if len(params) != family.arity:
            raise InvalidParams(f"type {kind} takes {family.signature}, got {params}")
        if params:  # a family without parameters has no s to bound
            s = params[-1]
            if kind == "I" and not 1 <= params[0] <= s - 1:  # which implies s >= 2
                raise InvalidParams(
                    f"type I requires 1 <= k <= s-1 and s >= {family.least}, got k={params[0]}, s={s}"
                )
            if s < family.least:
                raise InvalidParams(f"type {kind} requires s >= {family.least}, got s={s}")
        return super().__new__(cls, kind, params)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> IrreducibleSpace:
        return cls(*iterable)  # so that _replace() validates too

    @property
    def dimension(self) -> int:
        """Complex dimension."""
        return FAMILIES[self.kind].dimension(*self.params)

    @property
    def rank(self) -> int:
        """Symmetric-space rank."""
        return FAMILIES[self.kind].rank(*self.params)

    def render(self) -> str:
        return f"{self.kind}({','.join(map(str, self.params))})"

    def __str__(self) -> str:
        return self.render()


def type_i(k: int, s: int) -> IrreducibleSpace:
    return IrreducibleSpace("I", (k, s))


def type_ii(s: int) -> IrreducibleSpace:
    return IrreducibleSpace("II", (s,))


def type_iii(s: int) -> IrreducibleSpace:
    return IrreducibleSpace("III", (s,))


def type_iv(s: int) -> IrreducibleSpace:
    return IrreducibleSpace("IV", (s,))


def projective_space(n: int) -> IrreducibleSpace:
    """CP(n) in its type I incarnation I(1, n+1); n passes through
    ``operator.index`` as a factor's parameters do."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidParams(f"CP(n) takes an integer n, got {n!r}") from None
    if n < 1:
        raise InvalidParams(f"CP(n) requires n >= 1, got n={n}")
    return type_i(1, n + 1)


def is_single_projective(space: SpaceExpr) -> bool:
    """Whether ``space`` is one factor I(1, n+1), that is CP(n)."""
    return len(space.factors) == 1 and space.factors[0].kind == "I" and space.factors[0].params[0] == 1


class Coincidence(NamedTuple):
    """One spelling of a manifold that another spelling also names; a
    probed row, one with a verdict, has exactly one factor."""

    spelling: IrreducibleSpace
    factors: tuple[IrreducibleSpace, ...]  # the same manifold, in canonical factors
    rewrite: bool  # whether SpaceExpr construction replaces the spelling by the factors
    verdict: str | None  # what `check` expects of the two degree formulas; None: not probed

    @property
    def pair(self) -> tuple[str, str]:
        return self.spelling.render(), " x ".join(f.render() for f in self.factors)


# In canonical order of the spelling; the degree formulas disagree on III(2).
COINCIDENCES = (
    Coincidence(type_ii(2), (type_i(1, 2),), False, "Pass"),
    Coincidence(type_ii(3), (type_i(1, 4),), False, "Pass"),
    Coincidence(type_ii(4), (type_iv(6),), False, "Pass"),
    Coincidence(type_iii(1), (type_i(1, 2),), False, "Pass"),
    Coincidence(type_iii(2), (type_iv(3),), False, "Mismatch"),
    Coincidence(type_iv(1), (type_i(1, 2),), True, None),
    Coincidence(type_iv(2), (type_i(1, 2), type_i(1, 2)), True, None),
    Coincidence(type_iv(4), (type_i(2, 4),), False, "Pass"),
)
_REWRITES = {row.spelling: row.factors for row in COINCIDENCES if row.rewrite}


def pair_label(left: str, right: str) -> str:
    """'III(2)', 'IV(3)' -> 'III_2 vs IV_3', as warnings and `check` name a pair."""
    return " vs ".join(name.replace("(", "_").replace(")", "") for name in (left, right))


class _SpaceExprFields(NamedTuple):
    factors: tuple[IrreducibleSpace, ...]


class SpaceExpr(_SpaceExprFields):
    """A finite product of irreducible factors (possibly just one),
    always in canonical form.

    Construction rewrites the factors: type I factors take k <= s-k
    (both labellings name the same Grassmannian and the degree formula
    is symmetric in them), each spelling that ``COINCIDENCES`` marks as
    rewritten becomes its factors, and factors are sorted by kind (in
    ``FAMILIES`` order), then by params.  Two spellings of one product
    therefore compare equal, hash equal and render to the same key.
    A factor that is not an ``IrreducibleSpace``, a plain tuple with the
    same fields included, raises ``InvalidParams``.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[IrreducibleSpace, ...]) -> SpaceExpr:
        if not factors:
            raise EmptyProduct("a space expression needs at least one factor")
        rewritten: list[IrreducibleSpace] = []
        for f in factors:
            if not isinstance(f, IrreducibleSpace):
                raise InvalidParams(f"a space expression takes IrreducibleSpace factors, got {f!r}")
            if f.kind == "I":
                k, s = f.params
                rewritten.append(f if k <= s - k else type_i(s - k, s))
            else:
                rewritten.extend(_REWRITES.get(f, (f,)))
        if len(rewritten) > 1:
            kinds = list(FAMILIES)  # read on every build: a family may be added at run time
            rewritten.sort(key=lambda f: (kinds.index(f.kind), f.params))
        return super().__new__(cls, tuple(rewritten))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> SpaceExpr:
        return cls(*iterable)  # so that _replace() canonicalizes too

    @property
    def dimension(self) -> int:
        return sum([f.dimension for f in self.factors])

    @property
    def rank(self) -> int:
        return sum([f.rank for f in self.factors])

    def render(self) -> str:
        """Canonical key format, e.g. ``I(1,2) x I(2,4)``."""
        return " x ".join([f.render() for f in self.factors])

    def __str__(self) -> str:
        return self.render()


def _check_factor_count(count: int) -> None:
    if count > _MAX_EXPONENT:
        raise InvalidParams(
            f"expression expands to {count} factors; at most {_MAX_EXPONENT} are allowed"
        )


def read_int(text: str) -> int:
    """An optional '-' and ASCII digits, blanks around them allowed: the
    parser's integer rule for the integers a user writes outside an
    expression (a scan range, k, refinement values).  Unlike ``int()``,
    it refuses other scripts' digits, '+' and '_'; raises ValueError."""
    digits = text.strip()
    unsigned = digits[1:] if digits.startswith("-") else digits
    if not (unsigned.isascii() and unsigned.isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"integer too long ({len(unsigned)} digits)") from None


# Each takes the blanks after what it reads.  \s is exactly str.isspace;
# the word class holds every letter and also the other scripts' numerals,
# which isalpha refuses, so a kind word is the run of letters it starts with.
_BLANKS = re.compile(r"\s*").match
_INTEGER = re.compile(r"(-?[0-9]*)\s*").match
_WORD = re.compile(r"([^\W\d_]*)\s*").match


class _Parser:
    """Recursive descent in which every step leaves ``pos`` past the
    blanks that follow what it consumed."""

    def __init__(self, text: str):
        self.text = text
        self.pos = _BLANKS(text).end()
        self.depth = 0

    def error(self, message: str, position: int | None = None) -> SpaceSyntaxError:
        return SpaceSyntaxError(message, self.pos if position is None else position)

    def peek(self) -> str:
        return self.text[self.pos : self.pos + 1]

    def eat(self, ch: str) -> None:
        if not self.text.startswith(ch, self.pos):
            got = self.peek()
            raise self.error(f"expected {ch!r}, got {repr(got) if got else 'end of input'}")
        self.pos = _BLANKS(self.text, self.pos + 1).end()

    def integer(self) -> int:
        match = _INTEGER(self.text, self.pos)
        text = match[1]
        if not text or text == "-":
            raise self.error("expected an integer")
        start, self.pos = self.pos, match.end()
        try:
            return read_int(text)
        except ValueError as exc:  # more digits than the interpreter converts
            raise self.error(str(exc), start) from None

    def expr(self) -> list[IrreducibleSpace]:
        factors = self.term()
        while self.text.startswith(("x", "*"), self.pos):
            self.eat(self.text[self.pos])
            factors.extend(self.term())
            _check_factor_count(len(factors))
        return factors

    def term(self) -> list[IrreducibleSpace]:
        factors = self.atom()
        if self.text.startswith("^", self.pos):
            self.eat("^")
            count = self.integer()
            if not 1 <= count <= _MAX_EXPONENT:
                raise InvalidParams(
                    f"exponent must be between 1 and {_MAX_EXPONENT}, got {count}"
                )
            _check_factor_count(len(factors) * count)
            factors = factors * count
        return factors

    def atom(self) -> list[IrreducibleSpace]:
        if self.text.startswith("(", self.pos):
            if self.depth == _MAX_NESTING:
                raise self.error(f"parentheses nest deeper than {_MAX_NESTING}")
            self.eat("(")
            self.depth += 1
            inner = self.expr()
            self.eat(")")
            self.depth -= 1
            return inner
        start = self.pos
        match = _WORD(self.text, start)
        word = match[1]
        if word.isalpha():
            self.pos = match.end()
        else:  # empty, or cut short by a numeral
            word = "".join(takewhile(str.isalpha, word))
            self.pos += len(word)
        family = FAMILIES.get(word)
        if family is None and word != "CP":
            got = repr(word) if word else (repr(self.peek()) if self.peek() else "end of input")
            atoms = "/".join([*FAMILIES, "CP"])
            raise self.error(f"expected a space atom ({atoms} or parenthesis), got {got}", start)
        self.eat("(")
        if family is None:
            factor = projective_space(self.integer())
        else:
            params = [self.integer()]
            while len(params) < family.arity:
                self.eat(",")
                params.append(self.integer())
            factor = IrreducibleSpace(word, params)
        self.eat(")")
        return [factor]


def parse(text: str) -> SpaceExpr:
    """Parse an expression into a (canonical) ``SpaceExpr``.

    Raises SpaceSyntaxError (with position) on malformed text,
    InvalidParams on out-of-range parameters, EmptyProduct on blank
    input.
    """
    parser = _Parser(text)
    if parser.pos == len(text):
        raise EmptyProduct("empty expression")
    factors = parser.expr()
    if parser.pos != len(text):
        raise parser.error(f"unexpected {text[parser.pos]!r}")
    return SpaceExpr(tuple(factors))
