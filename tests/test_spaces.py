import operator
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hssatlas.spaces import (
    FAMILIES,
    EmptyProduct,
    InvalidParams,
    IrreducibleSpace,
    SpaceExpr,
    SpaceSyntaxError,
    parse,
    projective_space,
    read_int,
    type_i,
    type_ii,
    type_iii,
    type_iv,
)


@st.composite
def irreducible_spaces(draw):
    kind = draw(st.sampled_from(["I", "II", "III", "IV"]))
    if kind == "I":
        s = draw(st.integers(2, 10))
        return type_i(draw(st.integers(1, s - 1)), s)
    if kind == "II":
        return type_ii(draw(st.integers(2, 10)))
    if kind == "III":
        return type_iii(draw(st.integers(1, 10)))
    return type_iv(draw(st.integers(1, 12)))


factor_lists = st.lists(irreducible_spaces(), min_size=1, max_size=4)
space_exprs = factor_lists.map(lambda factors: SpaceExpr(tuple(factors)))


# --- parsing ---------------------------------------------------------------


def test_parse_single_atoms():
    assert parse("I(2,5)").factors == (type_i(2, 5),)
    assert parse("II(4)").factors == (type_ii(4),)
    assert parse("III(3)").factors == (type_iii(3),)
    assert parse("IV(6)").factors == (type_iv(6),)


def test_projective_space_sugar():
    assert parse("CP(3)") == parse("I(1,4)")
    assert parse("CP(1)^2").factors == (type_i(1, 2), type_i(1, 2))
    assert projective_space(3) == type_i(1, 4)


def test_product_operators_and_whitespace_are_interchangeable():
    reference = parse("I(1,2) x I(2,4)")
    assert parse("I(1,2)*I(2,4)") == reference
    assert parse("  I(1,2)x I(2,4) ") == reference
    assert parse("I ( 1 , 2 ) x I(2,4)") == reference


def test_parenthesized_product_with_exponent():
    expr = parse("( CP(1) x I(2,4) )^2")
    assert expr.factors == (type_i(1, 2), type_i(1, 2), type_i(2, 4), type_i(2, 4))


def test_syntax_error_carries_position():
    with pytest.raises(SpaceSyntaxError) as err:
        parse("I(2 4)")
    assert err.value.position == 4
    assert "position 4" in str(err.value)


def test_unknown_atom_rejected():
    with pytest.raises(SpaceSyntaxError):
        parse("V(3)")
    with pytest.raises(SpaceSyntaxError):
        parse("Spin(10)")


def test_messages_generated_from_the_family_table():
    with pytest.raises(SpaceSyntaxError) as err:
        parse("V(3)")
    assert str(err.value) == (
        "expected a space atom (I/II/III/IV/CP or parenthesis), got 'V' (at position 0)"
    )
    with pytest.raises(InvalidParams) as err:
        IrreducibleSpace("II", (3, 4))
    assert str(err.value) == "type II takes (s,), got (3, 4)"
    with pytest.raises(InvalidParams) as err:
        IrreducibleSpace("W", (1,))
    assert str(err.value) == "unknown space kind 'W'"


def test_trailing_garbage_rejected():
    with pytest.raises(SpaceSyntaxError) as err:
        parse("I(1,2) @")
    assert err.value.position == 7


def test_unclosed_paren_rejected():
    with pytest.raises(SpaceSyntaxError):
        parse("(I(1,2) x II(3)")


def test_empty_input_is_empty_product():
    with pytest.raises(EmptyProduct):
        parse("")
    with pytest.raises(EmptyProduct):
        parse("   ")


def test_empty_factor_tuple_rejected():
    with pytest.raises(EmptyProduct):
        SpaceExpr(())


@pytest.mark.parametrize(
    "text",
    ["I(0,3)", "I(3,3)", "I(1,1)", "II(1)", "III(0)", "IV(0)", "CP(0)", "I(-1,4)"],
)
def test_out_of_range_parameters_rejected(text):
    with pytest.raises(InvalidParams):
        parse(text)


def test_exponent_bounds():
    assert len(parse("CP(1)^64").factors) == 64
    assert len(parse("(CP(1)^8)^8").factors) == 64
    assert len(parse("(CP(1) x CP(2))^32").factors) == 64
    with pytest.raises(InvalidParams):
        parse("CP(1)^0")
    with pytest.raises(InvalidParams):
        parse("CP(1)^65")


@pytest.mark.parametrize("text,position", [("CP(²)", 3), ("I(1,٣)", 4), ("CP(1)^²", 6)])
def test_integers_are_ascii_digits_only(text, position):
    # str.isdigit accepts all three; int() fails on the superscripts and reads ٣ as 3
    with pytest.raises(SpaceSyntaxError) as err:
        parse(text)
    assert err.value.position == position


@pytest.mark.parametrize("text,value", [("5", 5), (" 5 ", 5), ("-3", -3), ("007", 7)])
def test_read_int_takes_a_sign_and_ascii_digits(text, value):
    assert read_int(text) == value


@pytest.mark.parametrize("text", ["", " ", "-", "--5", "+5", "1_4", "٢", "5 5"])
def test_read_int_refuses_anything_else(text):
    with pytest.raises(ValueError, match="^expected an integer, got "):
        read_int(text)


@pytest.mark.parametrize(
    "text",
    ["CP(1)^64 x CP(1)", "(CP(1)^8)^9", "(CP(1) x CP(2))^33", "CP(1)" + " x CP(1)" * 64, "((CP(1)^64)^64)^64"],
)
def test_expanded_factor_count_is_bounded_globally(text):
    with pytest.raises(InvalidParams):
        parse(text)


def test_parenthesis_nesting_depth_is_bounded():
    assert parse("(" * 64 + "CP(1)" + ")" * 64) == parse("CP(1)")
    with pytest.raises(SpaceSyntaxError) as err:
        parse("(" * 65 + "CP(1)" + ")" * 65)
    assert err.value.position == 64
    with pytest.raises(SpaceSyntaxError):
        parse("(" * 3000 + "CP(1)" + ")" * 3000)


def test_integer_too_long_to_convert_has_a_position():
    with pytest.raises(SpaceSyntaxError) as err:
        parse("CP(" + "9" * 5000 + ")")
    assert err.value.position == 3


# --- canonical form --------------------------------------------------------


def test_canonicalize_type_i_duality():
    assert parse("I(3,5)") == parse("I(2,5)")
    assert parse("I(5,6)") == parse("I(1,6)")


def test_canonicalize_small_quadrics():
    assert parse("IV(1)") == parse("I(1,2)")
    assert parse("IV(2)") == parse("I(1,2) x I(1,2)")
    assert parse("IV(3)").factors == (type_iv(3),)


def test_canonical_factor_order():
    expr = parse("IV(5) x I(1,2) x II(3) x I(1,2)")
    assert expr.render() == str(expr) == "I(1,2) x I(1,2) x II(3) x IV(5)"
    assert [str(f) for f in expr.factors] == [f.render() for f in expr.factors]


@given(factors=factor_lists)
def test_canonicalize_is_idempotent_and_preserves_dimension(factors):
    expr = SpaceExpr(tuple(factors))
    assert SpaceExpr(expr.factors) == expr
    assert expr.dimension == sum(f.dimension for f in factors)


@given(expr=space_exprs)
def test_render_parse_round_trip_on_canonical_expressions(expr):
    assert parse(expr.render()) == expr


# --- dimension and rank ----------------------------------------------------


@pytest.mark.parametrize(
    "text,dim",
    [
        ("I(2,5)", 6),
        ("I(1,4)", 3),
        ("II(5)", 10),
        ("III(5)", 15),
        ("IV(7)", 7),
        ("CP(1) x CP(1)", 2),
        ("I(2,4) x CP(1)", 5),
    ],
)
def test_dimension_known_values(text, dim):
    assert parse(text).dimension == dim


@pytest.mark.parametrize(
    "text,rank",
    [
        ("I(2,5)", 2),
        ("I(1,9)", 1),
        ("II(6)", 3),
        ("III(4)", 4),
        ("IV(9)", 2),
        ("I(2,4) x CP(1)", 3),
    ],
)
def test_rank_known_values(text, rank):
    assert parse(text).rank == rank


def test_type_iv_rank_outside_canonical_form():
    # IV(1) ~ CP^1 and IV(2) ~ CP^1 x CP^1, built directly so that
    # SpaceExpr does not rewrite them
    assert type_iv(1).rank == 1
    assert type_iv(2).rank == 2


def test_type_i_dimension_duality():
    for s in range(2, 15):
        for k in range(1, s):
            assert type_i(k, s).dimension == type_i(s - k, s).dimension


@given(a=space_exprs, b=space_exprs)
def test_dimension_is_additive_over_products(a, b):
    assert SpaceExpr(a.factors + b.factors).dimension == a.dimension + b.dimension


# --- value semantics -------------------------------------------------------


def test_spellings_of_one_product_are_equal_and_hash_equal():
    a, b = parse("I(3,5) x CP(1)"), parse("I(1,2) x I(2,5)")
    assert a == b and hash(a) == hash(b)
    assert {a, b, SpaceExpr((type_i(3, 5), type_i(1, 2)))} == {a}


def test_spaces_compare_by_value_like_plain_tuples():
    assert type_i(2, 5) == ("I", (2, 5))
    assert parse("II(3)") == ((type_ii(3),),)


def test_repr_names_the_class_and_every_field():
    assert repr(type_iv(3)) == "IrreducibleSpace(kind='IV', params=(3,))"
    assert repr(parse("I(3,5) x CP(1)")) == (
        "SpaceExpr(factors=(IrreducibleSpace(kind='I', params=(1, 2)), "
        "IrreducibleSpace(kind='I', params=(2, 5))))"
    )


def test_spaces_are_immutable():
    expr = parse("I(2,5)")
    with pytest.raises(AttributeError):
        expr.factors = (type_ii(3),)
    with pytest.raises(AttributeError):
        expr.extra = 1
    with pytest.raises(AttributeError):
        expr.factors[0].params = (1, 5)


def test_replace_validates_and_canonicalizes():
    expr = parse("II(3)")
    assert expr._replace(factors=(type_i(3, 5), type_iv(1))) == parse("I(1,2) x I(2,5)")
    with pytest.raises(EmptyProduct):
        expr._replace(factors=())
    with pytest.raises(InvalidParams):
        type_i(2, 5)._replace(params=(0, 5))


@pytest.mark.parametrize("kind", [["I"], {"I": 1}])
def test_a_kind_that_is_not_a_string_is_unknown(kind):
    message = f"^unknown space kind {re.escape(repr(kind))}$"
    with pytest.raises(InvalidParams, match=message):
        IrreducibleSpace(kind, (1, 2))
    with pytest.raises(InvalidParams, match=message):
        type_i(1, 2)._replace(kind=kind)


@pytest.mark.parametrize("item", [("I", (1, 2)), "x", None, parse("I(1,2)")])
def test_a_product_of_anything_but_factors_is_refused(item):
    # a plain tuple compares equal to a factor but is not converted into one
    message = f"^a space expression takes IrreducibleSpace factors, got {re.escape(repr(item))}$"
    with pytest.raises(InvalidParams, match=message):
        SpaceExpr((item,))
    with pytest.raises(InvalidParams, match=message):
        SpaceExpr((type_ii(3), item, "y"))  # the first item that is not a factor
    with pytest.raises(InvalidParams, match=message):
        SpaceExpr._make([(item,)])
    with pytest.raises(InvalidParams, match=message):
        parse("II(3)")._replace(factors=(item,))


# --- parameters are integers -----------------------------------------------


class Index:
    """An integer in disguise: a type that only defines ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


# what a library caller might pass as one parameter
integer_like = st.one_of(st.integers(-3, 60), st.integers(), st.booleans(), st.integers(-3, 60).map(Index))
not_integers = st.one_of(st.floats(allow_nan=False), st.fractions(max_denominator=4), st.text(max_size=2), st.none())


@st.composite
def kinds_and_params(draw):
    """A kind (or an unknown one) and parameters that are mostly its
    arity of integer-likes, so that about one draw in five builds a factor."""
    kind = draw(st.sampled_from([*FAMILIES, "V"]))
    if draw(st.integers(0, 9)) == 0:
        return kind, draw(st.one_of(integer_like, not_integers))  # not a sequence at all
    arity = FAMILIES[kind].arity if kind in FAMILIES else 1
    length = draw(st.sampled_from([arity] * 4 + [0, arity + 1]))
    values = [draw(not_integers if draw(st.integers(0, 5)) == 0 else integer_like) for _ in range(length)]
    return kind, draw(st.sampled_from([tuple, list]))(values)


@given(drawn=kinds_and_params())
@example(drawn=("III", (True,)))
@example(drawn=("II", (6.0,)))
@example(drawn=("II", [6]))
@example(drawn=("I", (Index(2), 5)))
def test_a_factor_holds_plain_ints_or_is_refused(drawn):
    kind, params = drawn
    try:
        factor = IrreducibleSpace(kind, params)
    except InvalidParams:
        return
    assert type(factor.params) is tuple and all(type(p) is int for p in factor.params)
    assert factor.params == tuple(map(operator.index, params))
    assert hash(factor) == hash((kind, factor.params))
    assert parse(factor.render()) == SpaceExpr((factor,))


def test_non_integer_parameters_are_refused_by_name():
    assert IrreducibleSpace("III", (True,)).render() == "III(1)"
    assert IrreducibleSpace("II", [6]) == type_ii(6)
    with pytest.raises(InvalidParams, match=r"^type II takes integers \(s,\), got \(6\.0,\)$"):
        IrreducibleSpace("II", (6.0,))
    with pytest.raises(InvalidParams, match=r"^type I takes integers \(k, s\), got 5$"):
        IrreducibleSpace("I", 5)
    with pytest.raises(InvalidParams, match="^type I takes integers"):
        type_i(2, 5)._replace(params=(2, "5"))
    assert projective_space(True) == type_i(1, 2)
    for n in ("3", 2.5, None):
        with pytest.raises(InvalidParams, match=f"^CP\\(n\\) takes an integer n, got {re.escape(repr(n))}$"):
            projective_space(n)
