"""Every row of ``spaces.FAMILIES`` and of ``spaces.COINCIDENCES``
against a hand-written table, and each place that reads them."""

import re

import pytest

from hssatlas import cli, oracle
from hssatlas.arith import FactorialRatio, eval_ratio_direct, eval_ratio_legendre
from hssatlas.atlas import SBResult, report, threshold_scan
from hssatlas.invariants import degree_ratio
from hssatlas.spaces import (
    COINCIDENCES,
    FAMILIES,
    Family,
    InvalidParams,
    IrreducibleSpace,
    SpaceExpr,
    pair_label,
    parse,
)

# kind: (least parameters, their canonical key, the scan's k and label,
#        two (parameters, dimension, rank) samples, head of the degree citation,
#        (parameters, degree) and the parameters whose degree is refused)
EXPECTED = {
    "I": ((1, 2), "I(1,2)", 1, "I(k=1)", [((2, 5), 6, 2), ((3, 7), 12, 3)], "degree(I(k,s)): ",
          ((2, 5), 5), []),
    "II": ((2,), "II(2)", None, "II", [((5,), 10, 2), ((6,), 15, 3)], "degree(II(s)): ",
           ((5,), 12), []),
    "III": ((1,), "III(1)", None, "III", [((3,), 6, 3), ((5,), 15, 5)], "degree(III(s)): ",
            ((5,), 286), []),
    "IV": ((1,), "I(1,2)", None, "IV", [((1,), 1, 1), ((5,), 5, 2)], "degree(IV(s)) = 2: ",
           ((5,), 2), [(1,), (2,)]),
}


def _text(kind, params):
    return f"{kind}({','.join(map(str, params))})"


def test_families_are_the_expected_kinds_in_canonical_order():
    assert list(FAMILIES) == list(EXPECTED)


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_family_row(kind):
    least, key, k, label, samples, citation, (params, degree), refused = EXPECTED[kind]
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

    # the degree at one parameter; SpaceExpr rewrites the refused ones into type I
    assert eval_ratio_direct(degree_ratio(IrreducibleSpace(kind, params))) == degree
    for bad in refused:
        with pytest.raises(InvalidParams, match="requires canonical form"):
            eval_ratio_direct(degree_ratio(IrreducibleSpace(kind, bad)))

    for params, dimension, rank in samples:
        factor = IrreducibleSpace(kind, params)
        assert (factor.dimension, factor.rank) == (dimension, rank)

    # a factor that stays of this kind once canonical cites its degree formula
    params = samples[-1][0]
    rep = report(SpaceExpr((IrreducibleSpace(kind, params),)))
    assert rep.citations[0].startswith(citation)


# kind: the greatest s whose report warns of the degree formula, and the
#       head of the note every scan of the family ends with
EXPECTED_WARNINGS_AND_NOTES = {
    "I": (None, None),
    "II": (5, None),
    "III": (4, "type III threshold: published statements disagree (s >= 5 vs s >= 6)"),
    "IV": (None, None),
}


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_family_warning_limit_and_scan_note(kind):
    small_upto, note = EXPECTED_WARNINGS_AND_NOTES[kind]
    assert (FAMILIES[kind].small_upto, FAMILIES[kind].scan_note is None) == (small_upto, note is None)
    if small_upto is not None:
        factor = IrreducibleSpace(kind, (small_upto,))
        (warning,) = report(SpaceExpr((factor,))).warnings
        assert warning.startswith(f"{factor}: small-parameter degree formula; ")
        assert report(SpaceExpr((IrreducibleSpace(kind, (small_upto + 1,)),))).warnings == ()
    k, least = EXPECTED[kind][2], EXPECTED[kind][0][-1]
    footnotes = threshold_scan(kind, least, least + 1, k=k).footnotes
    assert len(footnotes) == (1 if note is None else 2)
    assert note is None or footnotes[-1].startswith(note)


# a few parameters of each family, all canonical
RATIO_SAMPLES = {
    "I": [(1, 2), (2, 5), (3, 7), (5, 11)],
    "II": [(2,), (5,), (9,)],
    "III": [(1,), (4,), (8,)],
    "IV": [(3,), (7,), (20,)],
}


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_every_family_degree_is_a_factorial_ratio(kind):
    for params in RATIO_SAMPLES[kind]:
        ratio = FAMILIES[kind].degree(*params)
        assert type(ratio) is FactorialRatio
        assert eval_ratio_direct(ratio) == eval_ratio_legendre(ratio) >= 1


def test_a_new_family_is_one_row(monkeypatch):
    citation = "degree(V(s)) = 4: a toy family"
    note = "type V threshold: a toy note"
    toy = Family(1, "(s,)", 1, lambda s: 2 * s, lambda s: 1, lambda s: FactorialRatio((4,), (3,)), citation,
                 2, note)
    monkeypatch.setitem(FAMILIES, "V", toy)

    space = parse("V(3) x CP(1)")
    assert space.render() == "I(1,2) x V(3)"
    rep = report(space)
    # multinomial(6, 1) = 7 times the factor degrees 4 and 1
    assert (rep.n, rep.rank, rep.degree, rep.sb) == (7, 2, 28, SBResult.exact(29))
    assert rep.citations[:2] == (FAMILIES["I"].citation, citation)
    assert rep.warnings == ()  # V(3) is above the row's small_upto

    # V(2) is at its small_upto, so a report warns of it, once
    assert report(parse("V(2) x V(2) x V(3)")).warnings == (
        "V(2): small-parameter degree formula; see the isomorphism diagnostics (run `check`)",
    )

    scan = threshold_scan("V", 1, 3)
    assert [(row.n, row.degree) for row in scan.rows] == [(2, 4), (4, 4), (6, 4)]
    assert [row.sb.clause for row in scan.rows] == ["Thm1(i)", "Thm1(ii)", "Thm1(ii)"]
    assert scan.footnotes == ("the exact clause Thm1(i) never fires in the scanned range", note)


def test_a_family_without_parameters_builds_its_factor(monkeypatch):
    """A row of arity 0 (as the exceptional spaces would need) builds a
    factor with no s to bound, and refuses one with a parameter."""
    toy = Family(0, "()", 1, lambda: 16, lambda: 2, lambda: FactorialRatio((78,), (77,)), "x")
    monkeypatch.setitem(FAMILIES, "E", toy)

    factor = IrreducibleSpace("E", ())
    assert (factor.render(), factor.dimension, factor.rank) == ("E()", 16, 2)
    assert report(SpaceExpr((factor,))).degree == 78
    for params in ((1,), (0, 1)):
        with pytest.raises(InvalidParams, match=f"^type E takes \\(\\), got {re.escape(str(params))}$"):
            IrreducibleSpace("E", params)


# --- coincidences ----------------------------------------------------------

# (spelling, the same manifold in canonical factors, rewritten?, check's verdict)
EXPECTED_COINCIDENCES = [
    ("II(2)", "I(1,2)", False, "Pass"),
    ("II(3)", "I(1,4)", False, "Pass"),
    ("II(4)", "IV(6)", False, "Pass"),
    ("III(1)", "I(1,2)", False, "Pass"),
    ("III(2)", "IV(3)", False, "Mismatch"),
    ("IV(1)", "I(1,2)", True, None),
    ("IV(2)", "I(1,2) x I(1,2)", True, None),
    ("IV(4)", "I(2,4)", False, "Pass"),
]


def test_coincidences_are_the_expected_rows_in_canonical_order():
    assert [(*row.pair, row.rewrite, row.verdict) for row in COINCIDENCES] == EXPECTED_COINCIDENCES
    spellings = [row.spelling for row in COINCIDENCES]
    assert sorted(spellings, key=lambda f: (list(FAMILIES).index(f.kind), f.params)) == spellings
    for row in COINCIDENCES:
        assert SpaceExpr(row.factors).factors == row.factors  # already canonical
        assert row.spelling.dimension == sum(f.dimension for f in row.factors)


@pytest.mark.parametrize("row", COINCIDENCES, ids=lambda row: row.pair[0])
def test_construction_rewrites_exactly_the_rewritten_rows(row):
    expected = row.factors if row.rewrite else (row.spelling,)
    assert SpaceExpr((row.spelling,)).factors == expected
    assert parse(row.pair[0]).factors == expected


def test_oracle_constants_are_the_probed_rows():
    # the oracle reads the table itself: its probes, in order, are the
    # rows with a verdict, and each verdict is the one check expects
    assert oracle.COINCIDENCES is COINCIDENCES
    probed = [row for row in COINCIDENCES if row.verdict is not None]
    diagnostics = oracle.isomorphism_diagnostics()
    assert [(d.left, d.right) for d in diagnostics] == [row.pair for row in probed] == [
        (spelling, factors) for spelling, factors, _, verdict in EXPECTED_COINCIDENCES if verdict
    ]
    assert {row.pair for row in probed if row.verdict == "Mismatch"} == {("III(2)", "IV(3)")}
    verdicts = [d.verdict for d in diagnostics]
    assert verdicts == [row.verdict for row in probed]
    assert tuple(d.expected for d in oracle.run_checks().diagnostics) == tuple(verdicts)


def test_every_probed_row_has_one_right_hand_factor():
    # isomorphism_diagnostics compares the spelling with a single factor
    probed = [row for row in COINCIDENCES if row.verdict is not None]
    assert probed and all(len(row.factors) == 1 for row in probed)


def test_the_warning_and_check_name_the_mismatch_row_by_one_label(capsys):
    (row,) = [row for row in COINCIDENCES if row.verdict == "Mismatch"]
    label = pair_label(*row.pair)
    assert label == "III_2 vs IV_3"
    assert report(SpaceExpr((row.spelling,))).warnings == (
        f"III(2): small-parameter degree formula; conflicts with the {label} "
        "isomorphism diagnostic (run `check`)",
    )
    assert cli.main(["check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith(f"1 expected mismatch ({label})")
