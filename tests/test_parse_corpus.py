"""Pinned parser outcomes: each text parses to its canonical key, or
fails with its exception class, message and position.

The outcomes were recorded from the character-by-character parser that
the pattern scanner replaced; they pin the grammar, both limits, every
message and position, what counts as a blank (exactly ``str.isspace``)
and what counts as a kind word's letter (exactly ``str.isalpha``: a
superscript or a Roman numeral ends the word).
"""

import sys
import time

import pytest

from hssatlas import spaces
from hssatlas.spaces import SpaceSyntaxError, parse

ATOM = "expected a space atom (I/II/III/IV/CP or parenthesis), got "
INTEGER = "expected an integer (at position {})"


def outcome(text: str):
    try:
        return parse(text).render()
    except ValueError as exc:
        position = exc.position if isinstance(exc, SpaceSyntaxError) else None
        return (type(exc).__name__, str(exc), position)


def syntax(message: str, position: int):
    return ("SpaceSyntaxError", f"{message} (at position {position})", position)


def invalid(message: str):
    return ("InvalidParams", message, None)


def ones(count: int) -> str:
    return " x ".join(["I(1,2)"] * count)


# Blanks of every kind around every token (str.isspace accepts each).
BLANKS = [" ", "\u2003", "\x1c", "\x85", "\u3000", "\xa0", "\t\n", "\u1680", "\u2028"]
BLANK_CASES = [
    (
        f"{b}I{b}({b}2{b},{b}4{b}){b}x{b}({b}CP{b}({b}3{b}){b}*{b}IV{b}({b}5{b}){b}){b}^{b}2{b}",
        "I(1,4) x I(1,4) x I(2,4) x IV(5) x IV(5)",
    )
    for b in BLANKS
] + [
    # a blank between a sign and its digits ends the integer at the sign
    (f"{b}CP({b}-{b}1)", ("SpaceSyntaxError", INTEGER.format(3 + 2 * len(b)), 3 + 2 * len(b)))
    for b in BLANKS
] + [(f"II({b}6{b}){b}", "II(6)") for b in BLANKS]

# Characters that look blank but that str.isspace refuses.
NOT_BLANK_CASES = [
    case
    for z in ("\u200b", "\u180e", "\ufeff")
    for case in ((f"CP(1){z}", syntax(f"unexpected {z!r}", 5)), (f"{z}CP(1)", syntax(ATOM + repr(z), 0)))
]

CASES = BLANK_CASES + NOT_BLANK_CASES + [
    # letters, numerals and digits of other scripts
    ("CPé(3)", syntax(ATOM + "'CPé'", 0)),
    ("CP²(3)", syntax("expected '(', got '²'", 2)),
    ("II²(3)", syntax("expected '(', got '²'", 2)),
    ("I¼(2)", syntax("expected '(', got '¼'", 1)),
    ("CP𝟙(3)", syntax("expected '(', got '𝟙'", 2)),
    ("Ⅸ(3)", syntax(ATOM + "'Ⅸ'", 0)),
    ("ⅨI(3)", syntax(ATOM + "'Ⅸ'", 0)),
    ("²I(3)", syntax(ATOM + "'²'", 0)),
    ("〇(1)", syntax(ATOM + "'〇'", 0)),
    ("CPª(3)", syntax(ATOM + "'CPª'", 0)),
    ("Iª(3)", syntax(ATOM + "'Iª'", 0)),
    ("IIº(2)", syntax(ATOM + "'IIº'", 0)),
    ("ǅ(3)", syntax(ATOM + "'ǅ'", 0)),
    ("ʰ(1)", syntax(ATOM + "'ʰ'", 0)),
    ("Iи(2)", syntax(ATOM + "'Iи'", 0)),
    ("IＩ(3)", syntax(ATOM + "'IＩ'", 0)),
    ("ＣＰ(3)", syntax(ATOM + "'ＣＰ'", 0)),
    ("I(1,٣)", syntax("expected an integer", 4)),
    ("CP(²)", syntax("expected an integer", 3)),
    ("CP(¼)", syntax("expected an integer", 3)),
    ("CP(３)", syntax("expected an integer", 3)),
    ("CP(1_0)", syntax("expected ')', got '_'", 4)),
    ("CP(1)\x00", syntax("unexpected '\\x00'", 5)),
    # signs
    ("CP(-1)", invalid("CP(n) requires n >= 1, got n=-1")),
    ("CP(+1)", syntax("expected an integer", 3)),
    ("I(-2,4)", invalid("type I requires 1 <= k <= s-1 and s >= 2, got k=-2, s=4")),
    ("I(+2,4)", syntax("expected an integer", 2)),
    ("CP(--1)", syntax("expected an integer", 3)),
    ("CP(- 1)", syntax("expected an integer", 3)),
    ("CP(-)", syntax("expected an integer", 3)),
    ("CP(-0)", invalid("CP(n) requires n >= 1, got n=0")),
    ("CP(0)", invalid("CP(n) requires n >= 1, got n=0")),
    ("CP(007)", "I(1,8)"),
    ("II(-3)", invalid("type II requires s >= 2, got s=-3")),
    ("IV(-1)", invalid("type IV requires s >= 1, got s=-1")),
    ("III(0)", invalid("type III requires s >= 1, got s=0")),
    ("I(3,2) x I(1,3)", invalid("type I requires 1 <= k <= s-1 and s >= 2, got k=3, s=2")),
    # exponents and the 64-factor limit
    ("CP(1)^-1", invalid("exponent must be between 1 and 64, got -1")),
    ("CP(1)^+2", syntax("expected an integer", 6)),
    ("CP(1)^ 2", ones(2)),
    ("CP(1)^0", invalid("exponent must be between 1 and 64, got 0")),
    ("CP(1)^65", invalid("exponent must be between 1 and 64, got 65")),
    ("CP(1)^64", ones(64)),
    ("CP(1)^64 x CP(1)", invalid("expression expands to 65 factors; at most 64 are allowed")),
    ("(CP(1)^8)^8", ones(64)),
    ("(CP(1)^8)^9", invalid("expression expands to 72 factors; at most 64 are allowed")),
    ("IV(2)^64", ones(128)),
    ("IV(2)^33", ones(66)),
    ("CP(1)^2^2", syntax("unexpected '^'", 7)),
    # integers too long to convert
    ("CP(" + "1" * 4301 + ")", syntax("integer too long (4301 digits)", 3)),
    ("I(2," + "9" * 4301 + ")", syntax("integer too long (4301 digits)", 4)),
    ("CP(1)^" + "1" * 4301, syntax("integer too long (4301 digits)", 6)),
    # nesting of 64 and 65
    ("(" * 64 + "CP(1)" + ")" * 64, "I(1,2)"),
    ("(" * 65 + "CP(1)" + ")" * 65, syntax("parentheses nest deeper than 64", 64)),
    ("(" * 64 + "CP(1)", syntax("expected ')', got end of input", 69)),
    # empty input
    ("", ("EmptyProduct", "empty expression", None)),
    ("   ", ("EmptyProduct", "empty expression", None)),
    ("\u3000\x85", ("EmptyProduct", "empty expression", None)),
    # malformed structure
    ("x", syntax(ATOM + "'x'", 0)),
    ("*", syntax(ATOM + "'*'", 0)),
    ("^", syntax(ATOM + "'^'", 0)),
    ("(", syntax(ATOM + "end of input", 1)),
    (")", syntax(ATOM + "')'", 0)),
    ("()", syntax(ATOM + "')'", 1)),
    ("CP", syntax("expected '(', got end of input", 2)),
    ("CP(", syntax("expected an integer", 3)),
    ("CP()", syntax("expected an integer", 3)),
    ("CP(1", syntax("expected ')', got end of input", 4)),
    ("CP(1,2)", syntax("expected ')', got ','", 4)),
    ("I(2)", syntax("expected ',', got ')'", 3)),
    ("I(2,4", syntax("expected ')', got end of input", 5)),
    ("I(2 4)", syntax("expected ',', got '4'", 4)),
    ("I(2,4,5)", syntax("expected ')', got ','", 5)),
    ("I(1.5,3)", syntax("expected ',', got '.'", 3)),
    ("I(2,,4)", syntax("expected an integer", 4)),
    ("II()", syntax("expected an integer", 3)),
    ("II(2,3)", syntax("expected ')', got ','", 4)),
    ("CP(1) x", syntax(ATOM + "end of input", 7)),
    ("CP(1) *", syntax(ATOM + "end of input", 7)),
    ("CP(1)^", syntax("expected an integer", 6)),
    ("CP(1) y", syntax("unexpected 'y'", 6)),
    ("CP(1))", syntax("unexpected ')'", 5)),
    ("I(2,4),", syntax("unexpected ','", 6)),
    ("I(2,4) (", syntax("unexpected '('", 7)),
    ("cp(1)", syntax(ATOM + "'cp'", 0)),
    ("Ix(2)", syntax(ATOM + "'Ix'", 0)),
    ("XI(2)", syntax(ATOM + "'XI'", 0)),
    ("V(3)", syntax(ATOM + "'V'", 0)),
    ("I x(2)", syntax("expected '(', got 'x'", 2)),
    ("II I(2)", syntax("expected '(', got 'I'", 3)),
    ("CP(1) xx CP(2)", syntax(ATOM + "'x'", 7)),
    # canonical forms
    ("IV(2)", ones(2)),
    ("IV(2)^2", ones(4)),
    ("IV(1) x IV(4)", "I(1,2) x IV(4)"),
    ("CP(1)xCP(2)", "I(1,2) x I(1,3)"),
    ("CP(1)*CP(2)", "I(1,2) x I(1,3)"),
    ("(CP(1))^2 x (II(5))", "I(1,2) x I(1,2) x II(5)"),
    ("III(1)*II(2)*IV(1)*I(1,2)", "I(1,2) x I(1,2) x II(2) x III(1)"),
    ("I(5,9)*I(4,9)", "I(4,9) x I(4,9)"),
    ("II(4) x IV(6)", "II(4) x IV(6)"),
]


@pytest.mark.parametrize("text,expected", CASES, ids=lambda value: repr(value)[:40])
def test_pinned_outcome(text, expected):
    assert outcome(text) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        (" " * 100_000 + "CP(1)" + " " * 100_000, "I(1,2)"),
        ("\u3000" * 100_000 + "I(" + "\x85" * 100_000 + "2,4)", "I(2,4)"),
        ("I" * 200_000 + "(2)", syntax(ATOM + repr("I" * 200_000), 0)),
        ("CP(" + "0" * 200_000 + "1)", syntax("integer too long (200001 digits)", 3)),
        ("CP(1)" + " " * 200_000 + "y", syntax("unexpected 'y'", 200_005)),
    ],
    ids=["blanks", "unicode-blanks", "word", "digits", "trailing"],
)
def test_long_runs_parse_in_linear_time(text, expected):
    """Each run of 200,000 blanks, letters or digits is one scan: quadratic
    work on any of them would take minutes, far past the bound."""
    start = time.perf_counter()
    assert outcome(text) == expected
    assert time.perf_counter() - start < 2.0


def test_the_scanner_classes_are_isspace_and_a_superset_of_isalpha():
    """On every code point of this interpreter: the blank pattern takes
    exactly what str.isspace accepts, and the word pattern takes every
    letter (the parser cuts a word at its first non-letter)."""
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert (spaces._BLANKS(ch).end() == 1) == ch.isspace(), hex(code)
        if ch.isalpha():
            assert spaces._WORD(ch)[1] == ch, hex(code)
