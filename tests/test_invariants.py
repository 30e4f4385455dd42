import itertools
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hssatlas import arith, invariants
from hssatlas.arith import FactorialRatio, eval_ratio_direct, eval_ratio_legendre
from hssatlas.invariants import (
    degree,
    degree_ratio,
    gamma,
    gromov_width_units,
    multinomial_ratio,
)
from hssatlas.atlas import report
from hssatlas.render import render_report_human
from hssatlas.spaces import InvalidParams, SpaceExpr, parse, type_i, type_ii, type_iii, type_iv

from test_spaces import irreducible_spaces, space_exprs

# Degrees frozen from independent derivations: tableau enumeration for
# type I, direct factorial-ratio evaluation for types II/III, and the
# multinomial identity for products.
DEGREE_CASES = [
    ("I(2,4)", 2),
    ("I(2,5)", 5),
    ("I(3,6)", 42),
    ("I(1,2)", 1),
    ("I(1,9)", 1),
    ("II(2)", 1),
    ("II(3)", 1),
    ("II(4)", 2),
    ("II(5)", 12),
    ("II(6)", 286),
    ("III(1)", 1),
    ("III(2)", 1),
    ("III(3)", 2),
    ("III(4)", 12),
    ("III(5)", 286),
    ("IV(3)", 2),
    ("IV(6)", 2),
    ("IV(19)", 2),
    ("CP(2) x CP(2)", 6),
    ("CP(1) x CP(1)", 2),
    ("I(2,4) x CP(1)", 10),
    ("CP(1) x CP(2) x CP(3)", 60),
]


@pytest.mark.parametrize("text,expected", DEGREE_CASES)
def test_degree_known_values(text, expected):
    assert degree(parse(text)) == expected


def test_degree_ratio_published_shapes():
    # the ratio objects themselves, not just their values
    assert degree_ratio(type_ii(5)) == FactorialRatio((10, 2, 4, 6), (4, 5, 6, 7))
    assert degree_ratio(type_iii(5)) == FactorialRatio((15, 2, 4, 6, 8), (5, 6, 7, 8, 9))
    assert degree_ratio(type_i(2, 4)) == FactorialRatio((1, 1, 4), (1, 2, 3))
    for s in range(3, 21):  # every canonical quadric: 2! = 2
        assert degree_ratio(type_iv(s)) == FactorialRatio((2,), ())


def test_degree_ratio_rejects_non_canonical_quadrics():
    with pytest.raises(InvalidParams):
        degree_ratio(type_iv(1))
    with pytest.raises(InvalidParams):
        degree_ratio(type_iv(2))


@pytest.mark.parametrize(
    "text", ["IV(7)^10 x I(5,11)", "I(3,5) x I(3,4)^2 x CP(5) x IV(30)", "IV(5) x IV(3)^2", "IV(9)"]
)
def test_degree_is_the_product_of_its_ratios_by_prime_exponents(text):
    # the factor ratios and, for a product, the multinomial, each through
    # the evaluator that degree() does not use
    space = parse(text)
    ratios = [degree_ratio(f) for f in space.factors]
    if len(ratios) > 1:
        ratios.append(multinomial_ratio([f.dimension for f in space.factors]))
    assert degree(space) == math.prod(eval_ratio_legendre(r) for r in ratios)


@given(st.lists(st.tuples(irreducible_spaces(), st.integers(1, 4)), min_size=1, max_size=4))
def test_degree_of_a_product_with_repeated_factors_by_prime_exponents(powers):
    # degree() evaluates each distinct factor once and raises it to its
    # multiplicity; here every factor is evaluated, by the other evaluator
    space = SpaceExpr(tuple(f for atom, m in powers for f in [atom] * m))
    expected = math.prod(eval_ratio_legendre(degree_ratio(f)) for f in space.factors)
    if len(space.factors) > 1:
        expected *= eval_ratio_legendre(multinomial_ratio([f.dimension for f in space.factors]))
    assert degree(space) == expected


def test_multinomial_ratio_shape():
    assert multinomial_ratio((4, 1)) == FactorialRatio((5,), (4, 1))
    assert eval_ratio_direct(multinomial_ratio((2, 2))) == 6


def test_projective_spaces_have_degree_one():
    for s in range(2, 15):
        assert eval_ratio_direct(degree_ratio(type_i(1, s))) == 1


def test_a_projective_degree_multiplies_no_factorials(monkeypatch):
    def refuse(args):
        raise AssertionError(f"multiplied out {len(args)} factorials")

    monkeypatch.setattr(arith, "_product_tree", refuse)
    assert degree(parse("CP(1000)")) == 1


def test_two_row_grassmannian_degrees_are_catalan_numbers():
    for s in range(4, 15):
        m = s - 2
        catalan = math.factorial(2 * m) // (math.factorial(m) * math.factorial(m + 1))
        assert eval_ratio_direct(degree_ratio(type_i(2, s))) == catalan


def test_type_i_degree_duality():
    for s in range(2, 15):
        for k in range(1, s):
            mirrored = eval_ratio_direct(degree_ratio(type_i(s - k, s)))
            assert eval_ratio_direct(degree_ratio(type_i(k, s))) == mirrored


def test_product_degree_is_reorder_invariant():
    # the product formula over raw factor orders (SpaceExpr sorts them)
    a, b, c = type_i(2, 4), type_ii(5), type_iv(3)
    for order in itertools.permutations((a, b, c)):
        mixing = eval_ratio_direct(multinomial_ratio([f.dimension for f in order]))
        factors = math.prod(eval_ratio_direct(degree_ratio(f)) for f in order)
        assert factors * mixing == degree(SpaceExpr(order))


def test_product_degree_composes_associatively():
    # composing two binary products must equal the direct multinomial
    triples = [
        (type_i(1, 2), type_i(1, 3), type_i(2, 4)),
        (type_ii(4), type_iv(3), type_i(1, 2)),
        (type_iii(2), type_iii(2), type_i(2, 5)),
    ]
    for x, y, z in triples:
        direct = degree(SpaceExpr((x, y, z)))
        inner = degree(SpaceExpr((y, z)))
        nx, nyz = x.dimension, y.dimension + z.dimension
        composed = math.comb(nx + nyz, nx) * eval_ratio_direct(degree_ratio(x)) * inner
        assert composed == direct


def test_degree_evaluates_each_distinct_factor_and_the_multinomial_once(monkeypatch):
    evaluated = []

    def recording(ratio):
        evaluated.append(ratio)
        return eval_ratio_direct(ratio)

    monkeypatch.setattr(invariants, "eval_ratio", recording)
    assert degree(parse("CP(2)")) == 1 and evaluated == [degree_ratio(type_i(1, 3))]
    evaluated.clear()
    assert degree(parse("CP(1)^2 x IV(3)")) == 2 * 20  # the quadric times 5!/(1!·1!·3!)
    assert evaluated == [degree_ratio(type_i(1, 2)), degree_ratio(type_iv(3)), multinomial_ratio((1, 1, 3))]


@pytest.mark.parametrize("text", ["CP(1) x IV(99999999999999999999)", "IV(10000000000000000000)^2"])
def test_a_product_of_dimension_above_maxsize_is_refused_before_any_evaluation(monkeypatch, text):
    def unreachable(ratio):
        raise AssertionError(f"{ratio} evaluated")

    monkeypatch.setattr(invariants, "eval_ratio", unreachable)
    with pytest.raises(InvalidParams, match=rf"^degree of .*: dimension \d+ exceeds {sys.maxsize}, the factorial limit$"):
        degree(parse(text))


def test_a_single_factor_of_dimension_above_maxsize_has_its_degree():
    assert degree(parse("IV(99999999999999999999)")) == 2


@given(expr=space_exprs)
def test_gamma_is_degree_plus_one(expr):
    assert gamma(expr) == degree(expr) + 1


@given(expr=space_exprs)
def test_gromov_width_is_one_unit_of_pi(expr):
    assert gromov_width_units(expr) == 1


def test_volume_render():
    # in units of pi^n/n! the volume is the degree: I(2,4) has degree 2, n = 4
    lines = render_report_human(report(parse("I(2,4)"))).splitlines()
    assert f"{'volume:':<16}2·π^4/4!" in lines


def test_degree_integrality_and_cross_path_over_mini_sweep():
    spaces = [type_i(k, s) for s in range(2, 11) for k in range(1, s)]
    spaces += [type_ii(s) for s in range(2, 11)]
    spaces += [type_iii(s) for s in range(1, 11)]
    for space in spaces:
        ratio = degree_ratio(space)
        assert eval_ratio_direct(ratio) == eval_ratio_legendre(ratio)
    # quadrics and pairwise products terminate without NonIntegralRatio
    spaces += [type_iv(s) for s in range(3, 13)]
    for left in spaces[::7]:
        for right in spaces[::5]:
            assert degree(SpaceExpr((left, right))) >= 1
