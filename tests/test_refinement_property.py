"""Property: a refinement record is checked the same way however it is built.

A record is drawn on a small type I, II, III or IV key (or the projective
rule's pattern, or a key that does not parse), with a value set or an
interval drawn around the theorem bracket of its space, so that records
inside, across and outside the bracket all occur.  Built directly as a
``Refinement`` and read as the same line of text by ``from_lines``, it
must either be refused by both, naming the same fault, or give equal
tables.  A table that is built gives a report whose refinement lies
inside the bracket it narrows.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from hssatlas.atlas import (
    PROJECTIVE_RULE_PATTERN, PROJECTIVE_RULE_TOKEN, Refinement, RefinementTable, classify, report,
)
from hssatlas.spaces import parse

keys = st.one_of(
    st.lists(st.integers(1, 7), min_size=2, max_size=2, unique=True).map(
        lambda ks: "I({},{})".format(*sorted(ks))
    ),
    st.builds("II({})".format, st.integers(2, 8)),
    st.builds("III({})".format, st.integers(1, 6)),
    st.builds("IV({})".format, st.integers(1, 10)),
    st.sampled_from([PROJECTIVE_RULE_PATTERN, "I(0,4)", "V(3)"]),
)


def _bounds(key: str) -> tuple[int, int]:
    try:
        sb = classify(parse(key))
    except ValueError:  # the rule's pattern or a bad key: any small numbers will do
        return 2, 9
    return (sb.value, sb.value) if sb.kind == "Exact" else (sb.lower, sb.upper)


@st.composite
def records(draw):
    """A record and the same record as one line of a table file."""
    key = draw(keys)
    lower, upper = _bounds(key)
    near = st.integers(lower - 2, upper + 2)
    citation = draw(st.sampled_from(["c; somewhere", ""]))
    shape = draw(st.sampled_from(["set", "interval", "rule"]))
    if shape == "set":
        values = tuple(draw(st.lists(near, max_size=4)))
        spec = "{" + ",".join(map(str, values)) + "}"
    elif shape == "interval":
        lo, hi = draw(near), draw(near)
        values, spec = range(lo, hi + 1), f"[{lo},{hi}]"
    else:
        values, spec = None, PROJECTIVE_RULE_TOKEN
    return Refinement(key, values, citation), f"{key} | {spec} | {citation}"


def _build(make):
    try:
        return make(), None
    except ValueError as exc:
        return None, str(exc)


@given(records())
# one record refused for its values, one built, one refused for its key
@example((Refinement("I(2,4)", (5, 4), "c"), "I(2,4) | {5,4} | c"))
@example((Refinement("I(3,5)", range(9, 12), "c"), "I(3,5) | [9,11] | c"))
@example((Refinement("IV(5)", None, "c"), "IV(5) | n_plus_1 | c"))
def test_a_record_built_directly_and_read_as_text_is_checked_alike(drawn):
    record, line = drawn
    direct, direct_error = _build(lambda: RefinementTable((record,)))
    read, read_error = _build(lambda: RefinementTable.from_lines([line]))
    assert (direct is None) == (read is None), (direct_error, read_error)
    if direct is None:
        # the same fault; a contradiction quotes the values as given, so
        # only its tail (the space and the bracket) is the same
        if "contradicts" in direct_error:
            assert read_error.partition(" for ")[2] == direct_error.partition(" for ")[2]
        else:
            assert read_error == f"<memory>:1: {direct_error}"
        return
    assert direct == read
    space = parse("CP(3)" if record.values is None else record.pattern)
    sb = report(space, direct).sb
    if sb.kind == "Exact":
        assert sb.refinement is None
    else:
        values = sb.refinement.values
        assert values and sb.lower <= min(values) and max(values) <= sb.upper
