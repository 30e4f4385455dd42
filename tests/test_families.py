"""Every row of ``spaces.FAMILIES`` against a hand-written table."""

import pytest

from hssatlas.atlas import report, threshold_scan
from hssatlas.spaces import FAMILIES, InvalidParams, IrreducibleSpace, SpaceExpr, parse

# kind: (least parameters, their canonical key, the scan's k and label,
#        two (parameters, dimension, rank) samples, head of the degree citation)
EXPECTED = {
    "I": ((1, 2), "I(1,2)", 1, "I(k=1)", [((2, 5), 6, 2), ((3, 7), 12, 3)], "degree(I(k,s)): "),
    "II": ((2,), "II(2)", None, "II", [((5,), 10, 2), ((6,), 15, 3)], "degree(II(s)): "),
    "III": ((1,), "III(1)", None, "III", [((3,), 6, 3), ((5,), 15, 5)], "degree(III(s)): "),
    "IV": ((1,), "I(1,2)", None, "IV", [((1,), 1, 1), ((5,), 5, 2)], "degree(IV(s)) = 2: "),
}


def _text(kind, params):
    return f"{kind}({','.join(map(str, params))})"


def test_families_are_the_expected_kinds_in_canonical_order():
    assert list(FAMILIES) == list(EXPECTED)


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_family_row(kind):
    least, key, k, label, samples, citation = EXPECTED[kind]
    *rest, s = least

    # the least parameter parses and renders back
    assert IrreducibleSpace(kind, least).render() == _text(kind, least)
    assert parse(_text(kind, least)).render() == key

    # one below it is refused by the parser and by a scan
    below = (*rest, s - 1)
    with pytest.raises(InvalidParams):
        parse(_text(kind, below))
    with pytest.raises(InvalidParams) as excinfo:
        threshold_scan(kind, s - 1, s + 2, k=k)
    assert str(excinfo.value) == (
        f"range {s - 1}..{s + 2} starts below {s}, the first valid parameter of {label}"
    )
    assert threshold_scan(kind, s, s + 2, k=k).rows[0].param == s

    for params, dimension, rank in samples:
        factor = IrreducibleSpace(kind, params)
        assert (factor.dimension, factor.rank) == (dimension, rank)

    # a factor that stays of this kind once canonical cites its degree formula
    params = samples[-1][0]
    rep = report(SpaceExpr((IrreducibleSpace(kind, params),)))
    assert rep.citations[0].startswith(citation)
