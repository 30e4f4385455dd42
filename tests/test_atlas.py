import re
import tracemalloc

import pytest

from hssatlas import atlas, invariants, render
from hssatlas.atlas import (
    CLAUSE_EXACT,
    CLAUSE_RANGE,
    MAX_SCAN_ROWS,
    Refinement,
    RefinementTable,
    SBResult,
    ScanResult,
    ScanRow,
    classify,
    report,
    threshold_scan,
)
from hssatlas.invariants import degree, gamma
from hssatlas.spaces import InvalidParams, IrreducibleSpace, SpaceExpr, parse, type_i


@pytest.fixture(scope="module")
def table():
    return RefinementTable.builtin()


# --- classification --------------------------------------------------------


def test_classify_exact_when_degree_dominates(table):
    sb = classify(parse("I(3,6)"), table)
    assert sb == SBResult.exact(43)


def test_classify_bracket_with_projective_rule(table):
    sb = classify(parse("CP(3)"), table)
    assert (sb.kind, sb.lower, sb.upper) == ("Range", 4, 7)
    assert sb.refinement.values == (4,)


def test_classify_bracket_with_cited_sets(table):
    sb = classify(parse("I(2,4)"), table)
    assert (sb.lower, sb.upper) == (5, 9)
    assert sb.refinement.values == (5, 6)

    sb = classify(parse("I(2,5)"), table)
    assert (sb.lower, sb.upper) == (7, 13)
    assert sb.refinement.values == (7, 8, 9, 10)

    sb = classify(parse("CP(1) x CP(1)"), table)
    assert (sb.lower, sb.upper) == (3, 5)
    assert sb.refinement.values == (3, 4)


@pytest.mark.parametrize("space", ["CP(1)", type_i(1, 2), None, (type_i(1, 2),)], ids=repr)
def test_classify_and_report_take_only_a_space_expression(table, space):
    """Text, a bare factor or a tuple of factors is refused with its
    type named, as ``SpaceExpr`` refuses a factor of the wrong type."""
    message = f"^expected a SpaceExpr, got {type(space).__name__} {re.escape(repr(space))}$"
    with pytest.raises(InvalidParams, match=message):
        classify(space, table)
    with pytest.raises(InvalidParams, match=message):
        classify(space, d=2)  # refused before the degree is used
    with pytest.raises(InvalidParams, match=message):
        report(space, table)


def test_classify_bracket_without_refinement(table):
    sb = classify(parse("IV(5)"), table)
    assert (sb.kind, sb.lower, sb.upper) == ("Range", 6, 11)
    assert sb.refinement is None

    sb = classify(parse("CP(2) x CP(2)"), table)
    assert (sb.lower, sb.upper) == (7, 9)
    assert sb.refinement is None


def test_classify_boundary_degree_equal_to_2n(table):
    # CP(2) x CP(3): degree 10 == 2n, the exact clause fires
    sb = classify(parse("CP(2) x CP(3)"), table)
    assert sb == SBResult.exact(11)


def test_classify_without_table_attaches_nothing():
    assert classify(parse("CP(3)")).refinement is None


def test_projective_rule_needs_a_single_factor(table):
    sb = classify(parse("CP(1) x CP(2)"), table)
    assert sb.kind == "Range"
    assert sb.refinement is None  # no explicit entry, rule does not apply


# --- reports ---------------------------------------------------------------


def test_report_exact_case(table):
    rep = report(parse("II(6)"), table)
    assert rep.space == "II(6)"
    assert (rep.n, rep.rank) == (15, 3)
    assert (rep.degree, rep.gamma) == (286, 287)
    assert "volume" not in rep._fields  # in units of pi^n/n!, the volume is the degree
    assert rep.gromov_width_units == 1
    assert rep.sb == SBResult.exact(287)
    assert rep.sb.clause == CLAUSE_EXACT
    assert rep.warnings == ()
    assert any("clause (i)" in c for c in rep.citations)


@pytest.mark.parametrize("expr", ["II(6)", "I(2,5)", "CP(3)", "IV(7)", "CP(1) x CP(2)"])
def test_report_evaluates_the_degree_at_most_twice(monkeypatch, table, expr):
    """S_B and the degree each evaluate it, one ratio per factor; Gamma
    is derived from the stored degree and the volume is printed from it,
    so neither costs an evaluation of its own."""
    space = parse(expr)
    expected = degree(space)
    calls = []
    ratio = invariants.degree_ratio

    def counting(factor):
        calls.append(factor)
        return ratio(factor)

    monkeypatch.setattr(invariants, "degree_ratio", counting)
    rep = report(space, table)
    assert rep.degree == expected
    assert calls == list(space.factors) * 2  # exactly two evaluations


@pytest.mark.parametrize("expr", ["II(6)", "I(5,10)", "CP(1) x CP(2)", "IV(7)"])
def test_report_takes_gamma_from_the_width_as_a_value(monkeypatch, table, expr):
    # Gamma = floor(degree / w^n) + 1 for a width of w units of pi; a
    # width of 2 shows that the value enters, not a constant 1
    space = parse(expr)
    d, n = degree(space), space.dimension
    monkeypatch.setattr(atlas, "gromov_width_units", lambda space: 2)
    rep = report(space, table)
    assert rep.gromov_width_units == 2
    assert rep.gamma == d // 2**n + 1
    assert rep.degree == d
    # S_B follows from the same Gamma and n, not from the degree: each
    # Gamma here is below 2n+1, so clause (ii) fires even for II(6)
    assert (rep.sb.kind, rep.sb.lower, rep.sb.upper) == ("Range", max(n + 1, rep.gamma), 2 * n + 1)


_GAMMA_SWEEP = [
    *(f"I({k},{s})" for s in range(2, 12) for k in range(1, s)),
    *(f"II({s})" for s in range(2, 14)),
    *(f"III({s})" for s in range(1, 12)),
    *(f"IV({s})" for s in range(1, 14)),
    "CP(1) x CP(2)",
    "I(2,5) x II(6)",
    "III(3) x IV(4) x CP(1)",
]


def test_report_gamma_agrees_with_gamma_and_degree_plus_one(table):
    for expr in _GAMMA_SWEEP:
        space = parse(expr)
        assert report(space, table).gamma == gamma(space) == degree(space) + 1, expr


def test_report_is_immutable(table):
    rep = report(parse("I(2,5)"), table)
    with pytest.raises(AttributeError):
        rep.degree = 0
    with pytest.raises(AttributeError):
        rep.sb.lower = 0
    with pytest.raises(AttributeError):
        rep.extra = 1


def test_report_small_parameter_warnings(table):
    rep = report(parse("III(2)"), table)
    assert rep.degree == 1
    assert any("III_2 vs IV_3" in w for w in rep.warnings)

    rep = report(parse("II(3)"), table)
    assert any("small-parameter" in w for w in rep.warnings)

    assert report(parse("II(6)"), table).warnings == ()
    assert report(parse("III(5)"), table).warnings == ()


def test_report_deduplicates_repeated_warnings(table):
    rep = report(parse("II(3) x II(3)"), table)
    assert len(rep.warnings) == 1


def test_report_cites_degree_gamma_and_clause(table):
    rep = report(parse("I(2,4) x IV(5)"), table)
    assert any(c.startswith("degree(I(k,s))") for c in rep.citations)
    assert any(c.startswith("degree(IV(s))") for c in rep.citations)
    assert any("multinomial" in c for c in rep.citations)
    assert any(c.startswith("Gamma") for c in rep.citations)
    assert any("Rudyak-Schlenk" in c for c in rep.citations)


# --- refinement tables -----------------------------------------------------


def test_builtin_table_has_the_four_entries(table):
    patterns = [entry.pattern for entry in table.entries]
    assert patterns == ["I(1,*)", "I(2,4)", "I(2,5)", "I(1,2) x I(1,2)"]


def test_refinement_label_is_citation_head():
    refinement = Refinement("I(1,*)", (4,), "CP^n rule; somewhere specific")
    assert refinement.label == "CP^n rule"
    assert Refinement("I(1,*)", (4,), "no head here").label == "no head here"


def test_table_from_lines_parses_sets_intervals_and_rule():
    table = RefinementTable.from_lines(
        [
            "# comment",
            "",
            "I(2,4) | {5,6} | someone; somewhere",
            "I(2,5) | [7,10] | someone; somewhere",
            "I(1,*) | n_plus_1 | rule; somewhere",
        ]
    )
    assert table.lookup(parse("I(2,5)")).values == (7, 8, 9, 10)
    assert table.lookup(parse("CP(7)")).values == (8,)
    assert table.lookup(parse("IV(5)")) is None


def test_lookup_takes_the_first_record_of_a_duplicated_key():
    table = RefinementTable.from_lines(["I(2,5) | {7,8} | first; .", "I(3,5) | [9,10] | second; ."])
    assert [entry.pattern for entry in table.entries] == ["I(2,5)", "I(2,5)"]
    assert table.lookup(parse("I(2,5)")) == Refinement("I(2,5)", (7, 8), "first; .")


def test_lookup_explicit_key_beats_the_projective_rule():
    table = RefinementTable.from_lines(
        [
            "I(1,*) | n_plus_1 | rule; .",
            "I(1,4) | {4,5} | explicit; .",
            "I(1,*) | n_plus_1 | second rule; .",
        ]
    )
    assert table.lookup(parse("CP(3)")) == Refinement("I(1,4)", (4, 5), "explicit; .")
    assert table.lookup(parse("CP(5)")) == Refinement("I(1,*)", (6,), "rule; .")
    assert table.lookup(parse("CP(1) x CP(1)")) is None


def test_lookup_returns_the_pattern_of_the_record_that_matched():
    table = RefinementTable.from_lines(
        [
            "I(1,*) | n_plus_1 | rule; .",
            "I(3,5) | [7,10] | interval; .",
            "I(2,4) | {6,5} | set; .",
        ]
    )
    # an interval record keeps its range; the lookup hands out a tuple
    assert table.entries[1] == Refinement("I(2,5)", range(7, 11), "interval; .")
    assert table.lookup(parse("I(2,5)")) == Refinement("I(2,5)", (7, 8, 9, 10), "interval; .")
    assert table.lookup(parse("I(2,4)")) == Refinement("I(2,4)", (5, 6), "set; .")
    # the rule's record has no values; its lookup gives n + 1 and its own pattern
    assert table.rule == Refinement("I(1,*)", None, "rule; .")
    assert table.lookup(parse("CP(6)")) == Refinement("I(1,*)", (7,), "rule; .")
    for space in ("I(2,5)", "I(2,4)", "CP(6)"):
        assert type(table.lookup(parse(space)).values) is tuple


def test_table_index_is_derived_from_the_entries_and_read_only():
    table = RefinementTable.from_lines(["I(1,*) | n_plus_1 | rule; .", "I(2,4) | {5,6} | c; ."])
    assert dict(table.by_key) == {"I(2,4)": table.entries[1]}
    assert table.rule == table.entries[0]
    with pytest.raises(TypeError):
        table.by_key["IV(5)"] = table.entries[1]
    rebuilt = RefinementTable(table.entries)
    assert rebuilt == table
    assert table._replace(entries=table.entries[1:]).rule is None


def test_table_canonicalizes_explicit_keys():
    table = RefinementTable.from_lines(["I(2,4) | {5,6} | c; ."])
    assert table.lookup(parse("I(2,4)")) is not None
    table = RefinementTable.from_lines(["I(3,5) | {7,8} | c; ."])
    assert table.entries[0].pattern == "I(2,5)"
    # the same space under its dual labelling
    assert table.lookup(SpaceExpr((type_i(3, 5),))) is not None


def test_table_load_rejects_malformed_lines(tmp_path):
    bad = [
        "I(2,4) | {5,6}",  # missing citation field
        "I(2,4) | {5,6} |",  # empty citation
        "I(2,4) | 5..6 | c",  # bad values spec
        "I(2,4) | n_plus_1 | c",  # rule with a concrete key
        "I(0,4) | {5,6} | c",  # invalid space
        "I(2,4) | {} | c",  # empty set
        "I(2,4) | [9,7] | c",  # empty interval
    ]
    for line in bad:
        path = tmp_path / "refinements.txt"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises((ValueError, InvalidParams)):
            RefinementTable.load(str(path))


def test_a_table_file_may_begin_with_a_byte_order_mark(tmp_path):
    text = "I(2,5) | [7,10] | c; .\nI(2,4) | {5,6} | d; .\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfI(2,5)")
    assert RefinementTable.load(str(marked)) == RefinementTable.load(str(plain))


def test_a_byte_order_mark_on_a_later_line_is_an_error_naming_it(tmp_path):
    path = tmp_path / "refinements.txt"
    path.write_text("# header\n\ufeffI(2,5) | [7,10] | c; .\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: key '\\ufeffI(2,5)'")):
        RefinementTable.load(str(path))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("padding", [1, 2_000])
def test_a_byte_that_is_not_utf8_is_an_error_naming_its_line(tmp_path, bom, newline, padding):
    # the line of the first bad byte as text mode splits the file, also
    # past the decoder's first buffer; it is named before the record on
    # line 1, which contradicts the theorem, and before the second bad byte
    lines = [b"I(2,4) | {4} | c; ."] + [b"# padding"] * padding + [b"I(2,5) | [7,10] | caf\xff; .\xfe"]
    path = tmp_path / "refinements.txt"
    path.write_bytes(bom + newline.join(lines) + newline)
    message = f"{path}:{padding + 2}: byte 0xff is not UTF-8 (invalid start byte)"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RefinementTable.load(str(path))


def test_table_load_rejects_contradicting_values():
    # one line: the values spec as written, then the theorem's lower..upper
    cases = [
        # theorem bracket for I(2,4) is [5,9]; 4 and 10 fall outside it
        ("I(2,4) | {5, 4} | c; .", "refinement {5, 4} for I(2,4) contradicts the theorem bounds 5..9"),
        ("I(2,4) | [5,10] | c; .", "refinement [5,10] for I(2,4) contradicts the theorem bounds 5..9"),
        ("I(3,6) | {43,44} | c; .", "refinement {43,44} for I(3,6) contradicts the theorem bounds 43..43"),
        ("IV(5) | [6,1000006] | c; .", "refinement [6,1000006] for IV(5) contradicts the theorem bounds 6..11"),
    ]
    for line, message in cases:
        with pytest.raises(ValueError) as excinfo:
            RefinementTable.from_lines(["# header", line], source="t.txt")
        assert str(excinfo.value) == f"t.txt:2: {message}"


@pytest.mark.parametrize("spec,bad", [("{٧,8}", "٧"), ("{7, +8}", " +8"), ("[7,1_0]", "1_0")])
def test_refinement_values_are_ascii_integers(spec, bad):
    with pytest.raises(ValueError) as excinfo:
        RefinementTable.from_lines([f"I(2,5) | {spec} | c; ."], source="t.txt")
    assert str(excinfo.value) == f"t.txt:1: expected an integer, got {bad!r}"


def test_set_duplicates_collapse():
    table = RefinementTable.from_lines(["I(2,5) | {8,7,8,7} | c; ."])
    assert table.entries[0].values == (7, 8)
    assert RefinementTable.from_lines(["I(2,5) | { 8 , 7 } | c; ."]).entries[0].values == (7, 8)
    assert table.lookup(parse("I(2,5)")).values == (7, 8)


@pytest.mark.parametrize("spec", ["{}", "{ }"])
def test_empty_set_is_named(spec):
    with pytest.raises(ValueError) as excinfo:
        RefinementTable.from_lines([f"I(2,4) | {spec} | c; ."])
    assert str(excinfo.value) == "<memory>:1: empty value set"


def test_interval_record_holds_a_range_and_lookup_a_tuple():
    table = RefinementTable.from_lines(["IV(40) | [41,81] | c; ."])
    assert table.entries[0].values == range(41, 82)
    values = table.lookup(parse("IV(40)")).values
    assert isinstance(values, tuple)
    assert values == tuple(range(41, 82))


def test_wide_interval_loads_in_bounded_memory():
    # a 10^6-wide interval costs no more than a narrow one, read or built
    for build in (
        lambda: RefinementTable.from_lines(["IV(1000000) | [1000001,2000001] | c; ."]),
        lambda: RefinementTable((Refinement("IV(1000000)", range(1000001, 2000002), "c; ."),)),
    ):
        tracemalloc.start()
        try:
            table = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.entries[0].values) == 1_000_001
        assert peak < 1_000_000


@pytest.mark.parametrize(
    "record,message",
    [
        pytest.param(
            Refinement("I(2,4)", (1000,), "x"),
            "refinement (1000,) for I(2,4) contradicts the theorem bounds 5..9",
            id="outside-bracket",
        ),
        pytest.param(Refinement("I(2,4)", (), "x"), "empty value set", id="empty-set"),
        pytest.param(Refinement("I(2,4)", range(9, 8), "x"), "empty interval [9,7]", id="empty-interval"),
        pytest.param(
            Refinement("I(2,4)", range(5, 10, 2), "x"),
            "an interval must have step 1, got range(5, 10, 2)",
            id="stepped-range",
        ),
        pytest.param(
            Refinement("IV(5)", None, "x"), "the n_plus_1 rule requires pattern I(1,*)", id="rule-elsewhere"
        ),
        pytest.param(Refinement("I(2,4)", (5,), ""), "a citation is mandatory", id="no-citation"),
        pytest.param(
            Refinement("I(0,4)", (5,), "x"),
            "key 'I(0,4)': type I requires 1 <= k <= s-1 and s >= 2, got k=0, s=4",
            id="bad-key",
        ),
        pytest.param(
            Refinement("I(2,4)", (5.5,), "x"), "refinement values must be integers, got (5.5,)", id="float-value"
        ),
        pytest.param(
            Refinement("I(2,4)", (6, "5"), "x"), "refinement values must be integers, got (6, '5')", id="str-value"
        ),
        pytest.param(Refinement("I(2,4)", 5, "x"), "refinement values must be integers, got 5", id="bare-int"),
        pytest.param(Refinement(None, (5,), "x"), "key None is not a string", id="key-none"),
        pytest.param(Refinement(b"I(2,4)", (5,), "x"), "key b'I(2,4)' is not a string", id="key-bytes"),
    ],
)
def test_direct_construction_checks_each_record(table, record, message):
    # the check that from_lines applies, without the source:line prefix
    with pytest.raises(ValueError) as excinfo:
        RefinementTable((table.entries[0], record))
    assert str(excinfo.value) == message
    with pytest.raises(ValueError) as excinfo:
        table._replace(entries=(*table.entries, record))
    assert str(excinfo.value) == message
    with pytest.raises(ValueError):
        RefinementTable._make([(record,), {}, None])


def test_direct_construction_keeps_what_from_lines_keeps():
    table = RefinementTable((Refinement("I(3,5)", (8, 7, 8), "c"),))
    assert table.entries == (Refinement("I(2,5)", (7, 8), "c"),)
    assert table == RefinementTable.from_lines(["I(3,5) | {8,7,8} | c"])
    assert table.lookup(parse("I(2,5)")) == Refinement("I(2,5)", (7, 8), "c")
    assert table.lookup(SpaceExpr((type_i(3, 5),))) == Refinement("I(2,5)", (7, 8), "c")


def test_from_lines_classifies_each_record_once(monkeypatch):
    calls = []
    real = atlas.classify
    monkeypatch.setattr(atlas, "classify", lambda space, *rest: calls.append(space) or real(space, *rest))
    table = RefinementTable.from_lines(["I(1,*) | n_plus_1 | r", "I(2,4) | {5} | c", "IV(5) | [6,7] | c"])
    assert [space.render() for space in calls] == ["I(2,4)", "IV(5)"]
    table._replace(entries=table.entries)
    assert len(calls) == 4


def test_a_key_too_large_to_classify_is_named_with_its_line():
    with pytest.raises(ValueError) as excinfo:
        RefinementTable.from_lines(["# header", "CP(100000000000000000000) | {3} | c"], source="t.txt")
    assert str(excinfo.value) == (
        "t.txt:2: degree of I(1,100000000000000000001): too many factorial arguments"
    )


def test_resolve_precedence(tmp_path, monkeypatch):
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("I(2,4) | {6} | flag; .\n", encoding="utf-8")
    env_file = tmp_path / "env.txt"
    env_file.write_text("I(2,4) | {5} | env; .\n", encoding="utf-8")

    monkeypatch.delenv("ATLAS_REFINEMENTS", raising=False)
    assert RefinementTable.resolve() == RefinementTable.builtin()

    monkeypatch.setenv("ATLAS_REFINEMENTS", str(env_file))
    assert RefinementTable.resolve().lookup(parse("I(2,4)")).citation == "env; ."
    assert RefinementTable.resolve(str(flag_file)).lookup(parse("I(2,4)")).citation == "flag; ."
    # an empty path is a path, whatever the variable holds; an empty variable means unset
    with pytest.raises(FileNotFoundError):
        RefinementTable.resolve("")
    monkeypatch.setenv("ATLAS_REFINEMENTS", "")
    assert RefinementTable.resolve() == RefinementTable.builtin()
    with pytest.raises(FileNotFoundError):
        RefinementTable.resolve("")


# --- threshold scans -------------------------------------------------------


def test_scan_type_i_k2_first_fires_at_seven():
    scan = threshold_scan("I", 4, 10, k=2)
    assert scan.first_exact == 7
    by_param = {row.param: row for row in scan.rows}
    assert by_param[6].sb.clause == CLAUSE_RANGE
    assert by_param[7].sb.clause == CLAUSE_EXACT
    assert by_param[7].degree == 42 and by_param[7].n == 10


def test_scan_type_ii_first_fires_at_six():
    scan = threshold_scan("II", 2, 10)
    assert scan.first_exact == 6
    by_param = {row.param: row for row in scan.rows}
    assert (by_param[5].degree, by_param[5].n) == (12, 10)
    assert (by_param[6].degree, by_param[6].n) == (286, 15)


def test_scan_type_iii_first_fires_at_five_with_footnote():
    scan = threshold_scan("III", 1, 10)
    assert scan.first_exact == 5
    by_param = {row.param: row for row in scan.rows}
    assert (by_param[4].degree, by_param[4].sb.clause) == (12, CLAUSE_RANGE)
    assert (by_param[5].degree, by_param[5].sb.clause) == (286, CLAUSE_EXACT)
    assert any("s >= 5 vs s >= 6" in note for note in scan.footnotes)


def test_scan_type_iv_never_fires():
    scan = threshold_scan("IV", 3, 20)
    assert scan.first_exact is None
    assert all(row.sb.clause == CLAUSE_RANGE for row in scan.rows)
    assert any("never fires" in note for note in scan.footnotes)


def test_scan_first_exact_requires_a_stable_suffix():
    # the scan stops while the clause is still a bracket
    assert threshold_scan("II", 2, 5).first_exact is None
    assert threshold_scan("II", 6, 8).first_exact == 6


@pytest.mark.parametrize("family, start, stop, k", [("I", 3, 9, 2), ("II", 2, 8, None), ("IV", 1, 6, None)])
def test_scan_evaluates_each_degree_once(monkeypatch, table, family, start, stop, k):
    calls = []
    ratio = invariants.degree_ratio

    def counting(factor):
        calls.append(factor)
        return ratio(factor)

    monkeypatch.setattr(invariants, "degree_ratio", counting)
    scan = threshold_scan(family, start, stop, k=k, table=table)
    atoms = [IrreducibleSpace(family, (s,) if k is None else (k, s)) for s in range(start, stop + 1)]
    spaces = [SpaceExpr((atom,)) for atom in atoms]
    # one evaluation per row, and within a row one per distinct factor (IV(2) is I(1,2) twice)
    assert calls == [f for space in spaces for f in dict.fromkeys(space.factors)]
    assert [row.degree for row in scan.rows] == [degree(space) for space in spaces]


def test_scan_rows_carry_refinements_when_table_given(table):
    scan = threshold_scan("I", 4, 5, k=2, table=table)
    assert scan.rows[0].sb.refinement.values == (5, 6)


def _reference_scan(scan: ScanResult, atoms, table) -> ScanResult:
    """The scan rebuilt row by row from ``degree`` and ``classify``."""
    rows = []
    for param, atom in atoms:
        space = SpaceExpr((atom,))
        sb = classify(space, table)
        rows.append(ScanRow(param, space.dimension, degree(space), sb))
    return ScanResult(scan.family, tuple(rows), scan.first_exact, scan.footnotes)


@pytest.mark.parametrize(
    "family,start,stop,k",
    [
        ("I", 2, 12, 1),
        ("I", 3, 14, 2),
        ("I", 4, 14, 3),
        ("II", 2, 10, None),
        ("III", 1, 10, None),
        ("IV", 3, 48, None),
    ],
    ids=["I:k=1", "I:k=2", "I:k=3", "II", "III", "IV"],
)
def test_scan_rows_match_per_row_classification(tmp_path, family, start, stop, k):
    path = tmp_path / "refinements.txt"
    records = [f"IV({s}) | [{s + 1},{2 * s + 1}] | generated; full bracket" for s in range(3, 43)]
    records += ["I(1,*) | n_plus_1 | rule; .", "I(2,4) | {5,6} | c; .", "I(2,5) | [7,10] | c; ."]
    records += ["I(3,6) | {43} | c; .", "II(4) | {8,7} | c; .", "III(3) | [7,13] | c; ."]
    path.write_text("\n".join(records) + "\n", encoding="utf-8")
    table = RefinementTable.load(str(path))
    scan = threshold_scan(family, start, stop, k=k, table=table)
    if family == "I":
        atoms = [(s, type_i(k, s)) for s in range(start, stop + 1)]
    else:
        atoms = [(s, IrreducibleSpace(family, (s,))) for s in range(start, stop + 1)]
    expected = _reference_scan(scan, atoms, table)
    assert scan == expected
    assert any(row.sb.refinement is not None for row in scan.rows)
    for fmt in ("human", "json", "csv", "latex"):
        render_scan = getattr(render, f"render_scan_{fmt}")
        assert render_scan(scan) == render_scan(expected)


def test_scan_parameter_validation():
    with pytest.raises(InvalidParams):
        threshold_scan("V", 1, 5)
    with pytest.raises(InvalidParams):
        threshold_scan("I", 4, 10)  # k missing
    with pytest.raises(InvalidParams):
        threshold_scan("II", 2, 10, k=2)
    with pytest.raises(InvalidParams):
        threshold_scan("II", 10, 2)
    with pytest.raises(InvalidParams):
        threshold_scan("I", 2, 10, k=2)  # I(2,2) is not a space
    with pytest.raises(InvalidParams):
        threshold_scan("II", 1, 4)  # II(1) is not a space


@pytest.mark.parametrize(
    "family,k,least,label",
    [
        ("I", 1, 2, "I(k=1)"),
        ("I", 2, 3, "I(k=2)"),
        ("II", None, 2, "II"),
        ("III", None, 1, "III"),
        ("IV", None, 1, "IV"),
    ],
)
def test_scan_low_start_names_the_first_valid_parameter(monkeypatch, family, k, least, label):
    assert threshold_scan(family, least, least + 2, k=k).rows[0].param == least
    monkeypatch.setattr(atlas, "degree", None)  # the check comes before the first row
    with pytest.raises(InvalidParams) as excinfo:
        threshold_scan(family, least - 1, least + 2, k=k)
    assert str(excinfo.value) == (
        f"range {least - 1}..{least + 2} starts below {least}, the first valid parameter of {label}"
    )


def test_scan_rejects_a_non_positive_k():
    for k in (0, -3):
        with pytest.raises(InvalidParams, match=f"^family I needs k >= 1, got k={k}$"):
            threshold_scan("I", 1, 5, k=k)


@pytest.mark.parametrize(
    "start,stop,k",
    [(3.0, 5, 2), (3, "5", 2), (3, 5, 2.5), (3, 5, "2"), (None, 5, 2)],
)
def test_scan_takes_only_integers(start, stop, k):
    with pytest.raises(InvalidParams, match="^a scan takes integers, got "):
        threshold_scan("I", start, stop, k=k)


@pytest.mark.parametrize("family", [["I"], {"II": 1}])
def test_scan_of_a_family_that_is_not_a_string_is_unknown(family):
    with pytest.raises(InvalidParams, match=r"^unknown family .* \(expected one of I, II, III, IV\)$"):
        threshold_scan(family, 1, 2)


def test_scan_reads_an_integer_k_as_a_plain_int():
    # True is the integer 1, so the label and the rows are those of k=1
    scan = threshold_scan("I", 3, 5, k=True)
    assert scan.family == "I(k=1)"
    assert scan == threshold_scan("I", 3, 5, k=1)


def test_scan_row_count_is_bounded_before_the_first_row():
    assert len(threshold_scan("IV", 3, MAX_SCAN_ROWS + 2).rows) == MAX_SCAN_ROWS
    with pytest.raises(InvalidParams, match=f"has {MAX_SCAN_ROWS + 1} rows; at most {MAX_SCAN_ROWS}"):
        threshold_scan("IV", 3, MAX_SCAN_ROWS + 3)
    with pytest.raises(InvalidParams, match="at most"):
        threshold_scan("II", 2, 10**9)  # would take hours row by row
