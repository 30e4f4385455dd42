"""Byte-exact goldens for report, scan and check output in all four formats.

Each file under ``tests/golden/`` holds the stdout bytes that
``hssatlas compute``, ``hssatlas table`` or ``hssatlas check`` prints
for one case and one format (the renderer's text plus the final
newline).  The cases cover every shape of S_B cell: refined from an
interval, the projective rule, a bare bracket, an exact value, plus a
warning, two products (one of quadrics), a quadric scan and both scan
footnotes.  A golden changes only with an intended, stated byte change.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hssatlas import render
from hssatlas.atlas import CLAUSE_EXACT, CLAUSE_RANGE, RefinementTable, report, threshold_scan
from hssatlas.oracle import RectShape, count_syt_hook, run_checks
from hssatlas.spaces import parse

GOLDEN = Path(__file__).with_name("golden")
FORMATS = ("human", "json", "csv", "latex")
BUILTIN = RefinementTable.builtin()

REPORTS = {
    "report_I_2_5": ("I(2,5)", BUILTIN),  # refined from an interval
    "report_CP_3": ("CP(3)", BUILTIN),  # projective rule, one value
    "report_I_2_4_no_table": ("I(2,4)", None),  # bare bracket
    "report_III_2": ("III(2)", BUILTIN),  # warning
    "report_II_6": ("II(6)", BUILTIN),  # exact
    "report_CP_1_x_CP_2": ("CP(1) x CP(2)", BUILTIN),  # product
    "report_IV_5_x_IV_3_2": ("IV(5) x IV(3)^2", BUILTIN),  # quadrics, exact
}

SCANS = {
    "scan_III_1_6": ("III", 1, 6, None),  # type III footnote
    "scan_I_k2_3_8": ("I", 3, 8, 2),  # refined cells
    "scan_IV_1_6": ("IV", 1, 6, None),  # IV(1), IV(2) rewritten to type I
}


def _assert_golden(name: str, fmt: str, text: str) -> None:
    assert (text + "\n").encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name, fmt):
    expr, table = REPORTS[name]
    rep = report(parse(expr), table)
    _assert_golden(name, fmt, getattr(render, f"render_report_{fmt}")(rep))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_bytes(name, fmt):
    family, start, stop, k = SCANS[name]
    scan = threshold_scan(family, start, stop, k=k, table=BUILTIN)
    _assert_golden(name, fmt, getattr(render, f"render_scan_{fmt}")(scan))


@pytest.fixture(scope="module")
def checks():
    return run_checks()


@pytest.mark.parametrize("fmt", FORMATS)
def test_check_bytes(checks, fmt):
    _assert_golden("check", fmt, getattr(render, f"render_check_{fmt}")(checks))


@pytest.mark.parametrize("expr,clause", [("II(6)", CLAUSE_EXACT), ("I(2,5)", CLAUSE_RANGE)])
def test_sb_clause_is_the_report_case_and_the_scan_clause(expr, clause):
    # the clause is stored once, on SBResult; the JSON "case" and "clause" print it
    rep = report(parse(expr), BUILTIN)
    assert rep.sb.clause == json.loads(render.render_report_json(rep))["case"] == clause
    scan = threshold_scan("I", 3, 8, k=2, table=BUILTIN)
    printed = [row["clause"] for row in json.loads(render.render_scan_json(scan))["rows"]]
    assert printed == [row.sb.clause for row in scan.rows]
    assert clause in printed


# --- integers over the interpreter's digit limit ----------------------------


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str limit, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def _decimal(n: int) -> str:
    """Decimal digits nine at a time, independent of ``render.digits``."""
    groups = []
    while n >= 10**9:
        n, low = divmod(n, 10**9)
        groups.append(f"{low:09d}")
    return str(n) + "".join(reversed(groups))


@pytest.mark.parametrize("fmt", FORMATS)
def test_integers_over_the_digit_limit_render_in_full(default_digit_limit, fmt):
    # degree(I(100,200)) is the tableau count of the 100 x 100 square
    d = count_syt_hook(RectShape(100, 100))
    degree_text, sb_text = _decimal(d), _decimal(d + 1)
    assert len(degree_text) == 16_154 > default_digit_limit
    rep = report(parse("I(100,200)"), BUILTIN)
    text = getattr(render, f"render_report_{fmt}")(rep)
    assert text.count(degree_text) == 2  # the degree and the volume
    assert text.count(sb_text) == 2  # Gamma and S_B
    scan = threshold_scan("I", 200, 200, k=100)
    text = getattr(render, f"render_scan_{fmt}")(scan)
    assert text.count(degree_text) == 1 and text.count(sb_text) == 1
    # the process-wide limit is left as it was
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_digits_agrees_with_str_on_both_sides_of_the_limit(default_digit_limit):
    for n in (0, 7, 10**4299, 10**4300 - 1, 10**4300, 3**20000):
        assert render.digits(n) == _decimal(n)
    assert sys.get_int_max_str_digits() == default_digit_limit


def test_successor_digits_match_str_below_100000():
    # every all-9s boundary of up to 5 digits, and every run of trailing 9s
    assert all(render._successor_digits(str(n)) == str(n + 1) for n in range(1, 100_001))


def _successor_is_stored(n: int) -> bool:
    """Whether writing n leaves the digits of n + 1, equal to
    ``str(n + 1)`` under no digit limit, in the render memo."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = render._digits_once()
        assert len(text(n)) > 4300
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(render, "digits", lambda n: pytest.fail(f"converted {n}"))
            return text(n + 1) == str(n + 1)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("k", [*range(4301, 4311), 100_000])
def test_an_all_9s_integer_over_the_digit_limit_leaves_its_successor(k):
    assert _successor_is_stored(10**k - 1)


@given(bits=st.integers(14_300, 332_000), nines=st.integers(0, 40), rng=st.randoms(use_true_random=False))
@settings(max_examples=10, deadline=None)
def test_an_integer_over_the_digit_limit_leaves_its_successor(bits, nines, rng):
    """About 4,300 to 100,000 digits, the last up to 40 of them 9s."""
    assert _successor_is_stored((rng.getrandbits(bits) | 1 << bits) * 10**nines + 10**nines - 1)


def test_a_large_exact_report_converts_its_degree_and_not_gamma(monkeypatch, default_digit_limit):
    rep = report(parse("I(100,200)"), BUILTIN)
    assert rep.sb.kind == "Exact" and rep.gamma == rep.degree + 1
    converted = []
    digits = render.digits

    def counting_digits(n):
        converted.append(n)
        return digits(n)

    monkeypatch.setattr(render, "digits", counting_digits)
    for fmt in FORMATS:
        converted.clear()
        text = getattr(render, f"render_report_{fmt}")(rep)
        assert text.count(_decimal(rep.gamma)) == 2
        assert converted.count(rep.degree) == 1 and rep.gamma not in converted, fmt


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_report_render_converts_each_distinct_integer_once(monkeypatch, fmt):
    """An exact report prints its degree twice (degree and volume units)
    and Gamma twice (gamma and S_B), but converts each to decimal once
    per render call, and no conversion is kept for the next call."""
    rep = report(parse("II(6)"), BUILTIN)
    assert rep.sb.kind == "Exact" and rep.sb.value == rep.gamma
    expected = getattr(render, f"render_report_{fmt}")(rep)
    converted = []

    def counting_digits(n):
        converted.append(n)
        return str(n)

    monkeypatch.setattr(render, "digits", counting_digits)
    for _ in range(2):
        assert getattr(render, f"render_report_{fmt}")(rep) == expected
    assert converted.count(rep.degree) == 2 and converted.count(rep.gamma) == 2
    assert len(converted) == 2 * len(set(converted))


def test_a_report_render_converts_only_the_integers_its_format_prints(monkeypatch):
    """JSON prints no 2n, so rendering II(6) (n = 15) as JSON never
    converts 30; the human format, which prints it, does."""
    rep = report(parse("II(6)"), BUILTIN)
    assert 2 * rep.n == 30 and 30 not in (rep.rank, rep.degree, rep.gamma, rep.gromov_width_units)
    converted = []

    def counting_digits(n):
        converted.append(n)
        return str(n)

    monkeypatch.setattr(render, "digits", counting_digits)
    render.render_report_json(rep)
    assert 30 not in converted and rep.n in converted
    render.render_report_human(rep)
    assert 30 in converted


# --- the JSON writer and the LaTeX escape -----------------------------------

# Text with every class of character json.dumps escapes: quotes,
# backslashes, control characters, non-ASCII and astral code points.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝟙'), st.characters()))
JSON_VALUES = st.recursive(
    st.one_of(TEXT, st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": [[{}]], "": None, "t": True, "f": False})
def test_json_writer_matches_json_dumps_with_indent_2(obj):
    assert render._json(obj) == json.dumps(obj, indent=2)


def test_json_writer_refuses_what_the_renderers_never_build():
    for value in (1, 1.5, (), {1: "x"}):
        with pytest.raises(TypeError):
            render._json({"k": value} if not isinstance(value, dict) else value)


@given(st.text(st.one_of(st.sampled_from("&%#$_{}^~\\"), st.characters())))
@example("&%#$_{}^~ a\\b")
def test_latex_escape_maps_each_special_character(text):
    assert render.latex_escape(text) == "".join(render._LATEX_SPECIALS.get(ch, ch) for ch in text)
