import ast
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hssatlas import atlas, cli, oracle
from hssatlas.arith import FactorialRatio
from hssatlas.spaces import FAMILIES, Coincidence, Family, type_ii, type_iv


@pytest.fixture(autouse=True)
def _no_ambient_refinements(monkeypatch):
    monkeypatch.delenv("ATLAS_REFINEMENTS", raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- compute ---------------------------------------------------------------


def test_compute_json_golden_fields(capsys):
    code, out, _ = run(capsys, "compute", "II(6)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["space"] == "II(6)"
    assert (obj["n"], obj["rank"]) == ("15", "3")
    assert (obj["degree"], obj["gamma"]) == ("286", "287")
    assert obj["volume"] == {"units": "286", "dim": "15"}
    assert obj["gromov_width_units"] == "1"
    assert obj["sb"] == {"kind": "Exact", "value": "287"}
    assert obj["case"] == "Thm1(i)"
    assert obj["warnings"] == []
    assert list(obj) == [
        "space",
        "n",
        "rank",
        "degree",
        "gamma",
        "volume",
        "gromov_width_units",
        "sb",
        "case",
        "warnings",
        "citations",
    ]


def test_compute_json_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "compute", "I(2,5) x IV(4)", "--format", "json")
    _, second, _ = run(capsys, "compute", "I(2,5) x IV(4)", "--format", "json")
    assert first == second


def test_compute_human_ends_with_refined_sb_line(capsys):
    code, out, _ = run(capsys, "compute", "CP(3)")
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1] == "S_B = 4 (refined; CP^n rule)"


def test_compute_human_shows_bracket_and_warning(capsys):
    _, out, _ = run(capsys, "compute", "III(2)")
    assert "bounds:         max(n+1, deg+1) = 4 <= S_B <= 7 = 2n+1" in out
    assert "III_2 vs IV_3" in out


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "I(2,4)", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("space,n,rank,degree,gamma")
    header, row = csv.reader(io.StringIO(out))
    assert row[:5] == ["I(2,4)", "4", "2", "2", "3"]
    assert "{5,6}" in row and "Thm1(ii)" in row


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "I(2,4)", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}{ll}")
    assert "$S_B \\in \\{5,6\\} \\subset [5, 9]$" in out
    assert "S\\_B" not in out  # S_B only appears inside math mode


def test_no_refinements_differs_only_in_refinement_field(capsys):
    _, refined, _ = run(capsys, "compute", "CP(3)", "--format", "json")
    _, plain, _ = run(capsys, "compute", "CP(3)", "--format", "json", "--no-refinements")
    refined_obj, plain_obj = json.loads(refined), json.loads(plain)
    assert refined_obj["sb"].pop("refinement")["values"] == ["4"]
    assert refined_obj == plain_obj


def test_refinements_flag_beats_env_beats_builtin(capsys, tmp_path, monkeypatch):
    env_file = tmp_path / "env.txt"
    env_file.write_text("I(2,4) | {7} | env-table; test\n", encoding="utf-8")
    flag_file = tmp_path / "flag.txt"
    flag_file.write_text("I(2,4) | {8} | flag-table; test\n", encoding="utf-8")

    def refinement(*argv):
        _, out, _ = run(capsys, "compute", "I(2,4)", "--format", "json", *argv)
        return json.loads(out)["sb"].get("refinement")

    assert refinement()["citation"].startswith("Rudyak-Schlenk")
    monkeypatch.setenv("ATLAS_REFINEMENTS", str(env_file))
    assert refinement()["values"] == ["7"]
    assert refinement("--refinements", str(flag_file))["values"] == ["8"]


@pytest.mark.parametrize("command", [("compute", "I(2,4)"), ("table", "III", "1..1")])
@pytest.mark.parametrize(
    "flags",
    [
        ("--refinements", "/no/such/file.txt", "--no-refinements"),
        ("--no-refinements", "--refinements", "/no/such/file.txt"),
    ],
)
def test_refinements_and_no_refinements_together_are_a_usage_error(capsys, command, flags):
    """The file named would never be read, so argparse refuses the pair
    in either order, before any output."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, *flags])
    out, err = capsys.readouterr()
    assert (excinfo.value.code, out) == (2, "")
    assert "not allowed with argument" in err.splitlines()[-1]


# --- error handling --------------------------------------------------------


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("I(0,3)", "InvalidParams"),
        ("I(2 4)", "SpaceSyntaxError"),
        ("", "EmptyProduct"),
        ("IV(0)", "InvalidParams"),  # IV(1)/IV(2) are fine, they canonicalize away
    ],
)
def test_compute_rejects_bad_expressions(capsys, expr, expected):
    code, out, err = run(capsys, "compute", expr)
    assert code == 2
    assert out == ""
    assert expected in err


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("CP(²)", "SpaceSyntaxError"),
        ("((CP(1)^64)^64)^64", "InvalidParams"),
        ("(" * 3000 + "CP(1)" + ")" * 3000, "SpaceSyntaxError"),
        ("CP(" + "9" * 5000 + ")", "SpaceSyntaxError"),
    ],
    ids=["non-ascii-digit", "nested-powers", "deep-parentheses", "long-integer"],
)
def test_compute_rejects_oversized_and_non_ascii_input(capsys, expr, expected):
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", expr)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith(expected) and err.count("\n") == 1


def test_table_rejects_bad_family_and_range(capsys):
    for family, span, message in [
        ("V", "2..5", "unknown family 'V' (expected one of I, II, III, IV)"),
        ("I", "2..5", "family I needs a fixed k (write the family as 'I:k=2')"),  # k missing
        ("I:k=x", "2..5", "bad family 'I:k=x': k must be an integer"),
        ("II", "2-5", "range must look like 'a..b', got '2-5'"),
        ("II", "5..2", "empty range 5..2"),
        ("II:k=3", "2..5", "only family I takes a k parameter"),
        ("I:k=2", "2..14", "range 2..14 starts below 3, the first valid parameter of I(k=2)"),
        # integers are an optional '-' and ASCII digits, as in expressions
        ("I:k=٢", "3..14", "bad family 'I:k=٢': k must be an integer"),
        ("IV", "3..+5", "range must look like 'a..b', got '3..+5'"),
        ("I:k=2", "3..1_4", "range must look like 'a..b', got '3..1_4'"),
        ("III", "١..5", "range must look like 'a..b', got '١..5'"),
    ]:
        assert run(capsys, "table", family, span) == (2, "", f"InvalidParams: {message}\n")


def test_table_rejects_an_overlong_range_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "IV", "1..100000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("InvalidParams: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,factor",
    [
        (("compute", "CP(100000000000000000000)"), "I(1,100000000000000000001)"),
        (("table", "I:k=1", "100000000000000000000..100000000000000000001"), "I(1,100000000000000000000)"),
    ],
)
def test_a_type_i_parameter_too_large_for_a_tuple_is_a_usage_error(capsys, argv, factor):
    """The factor's ratio would have more factorial arguments than a
    tuple can index: one line naming the factor, not a traceback."""
    assert run(capsys, *argv) == (2, "", f"InvalidParams: degree of {factor}: too many factorial arguments\n")


@pytest.mark.parametrize(
    "expr,space,n",
    [
        ("CP(1) x IV(99999999999999999999)", "I(1,2) x IV(99999999999999999999)", 10**20),
        ("IV(99999999999999999999)^2", "IV(99999999999999999999) x IV(99999999999999999999)", 2 * (10**20 - 1)),
        ("II(5) x IV(10000000000000000000)", "II(5) x IV(10000000000000000000)", 10**19 + 10),
    ],
)
def test_a_product_of_dimension_above_maxsize_is_a_usage_error(capsys, expr, space, n):
    """The multinomial n! is refused before any ratio is evaluated,
    since math.factorial takes no argument above sys.maxsize: one line
    naming the space, not a traceback."""
    message = f"InvalidParams: degree of {space}: dimension {n} exceeds {sys.maxsize}, the factorial limit\n"
    assert run(capsys, "compute", expr) == (2, "", message)


def test_a_refinement_key_of_dimension_above_maxsize_exits_2_naming_its_line(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("I(1,*) | n_plus_1 | rule; .\nCP(1) x IV(99999999999999999999) | {3} | c; .\n", encoding="utf-8")
    message = (
        f"error: {path}:2: degree of I(1,2) x IV(99999999999999999999): "
        f"dimension {10**20} exceeds {sys.maxsize}, the factorial limit\n"
    )
    assert run(capsys, "compute", "CP(1)", "--refinements", str(path)) == (2, "", message)


@pytest.mark.parametrize(
    "argv,factor",
    [
        (("compute", "II(100000000000000000000)"), "II(100000000000000000000)"),
        (("compute", "III(100000000000000000000)"), "III(100000000000000000000)"),
        (("table", "III", "100000000000000000000..100000000000000000001"), "III(100000000000000000000)"),
    ],
)
def test_a_type_ii_or_iii_parameter_too_large_for_a_tuple_is_a_usage_error(argv, factor):
    """As for type I, one line naming the factor.  The command runs in a
    child capped at 512 MB of address space: even arguments built one
    at a time, not from a range, would grow without bound and end in
    MemoryError there."""
    import resource

    cap = 512 * 2**20
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "hssatlas", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    message = f"InvalidParams: degree of {factor}: too many factorial arguments\n"
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


def test_a_large_projective_space_computes_in_a_child_process():
    """CP(100000)'s Hua ratio lists 1!...100000! on both sides; a
    process that multiplied them out would not end within the timeout."""
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "hssatlas", "compute", "CP(100000)", "--format", "json"],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["degree"] == "1"


def test_running_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(atlas, "report", exhaust)
    assert run(capsys, "compute", "I(2,5)") == (2, "", "error: out of memory\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux")
@pytest.mark.parametrize("expr", ["I(2,100000000)", "III(1000000000000)", "I(2,10000000000000) x CP(1)"])
def test_a_ratio_too_large_for_memory_exits_2_with_one_line(expr):
    """The factor's ratio has fewer arguments than a tuple can hold but
    more than fit in the child's 1 GiB of address space: one line, not
    a traceback.  A product builds every factor's ratio before it
    evaluates any, so its multinomial, (2*10^13 - 3)!, is never started."""
    resource = pytest.importorskip("resource")
    cap = 2**30
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "hssatlas", "compute", expr],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", "error: out of memory\n")


def test_a_non_integral_degree_exits_3(capsys, monkeypatch):
    # a toy family whose degree formula is 1!/2!, as a mistyped formula would be
    toy = Family(1, "(s,)", 1, lambda s: s, lambda s: 1, lambda s: FactorialRatio((1,), (2,)), "toy")
    monkeypatch.setitem(FAMILIES, "V", toy)
    assert run(capsys, "compute", "V(1)") == (3, "", "NonIntegralRatio: (1!)/(2!) is not an integer\n")


@pytest.mark.usefixtures("off_by_one_factorial")
def test_a_hook_count_with_a_remainder_exits_3_with_one_line(capsys):
    message = "NonIntegralRatio: 2! is not a multiple of the hook product of 1x2\n"
    assert run(capsys, "check") == (3, "", message)


def test_missing_refinement_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "compute", "CP(3)", "--refinements", "/no/such/file.txt")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("env", [None, "", "table"])
def test_an_empty_refinement_path_is_a_missing_file(capsys, tmp_path, monkeypatch, env):
    # an empty --refinements is a path that cannot be read, whatever the
    # variable holds; it neither loads the built-in table nor defers to the variable
    if env is not None:
        path = tmp_path / "env.txt"
        path.write_text("I(2,4) | {7} | env-table; test\n", encoding="utf-8")
        monkeypatch.setenv("ATLAS_REFINEMENTS", str(path) if env else "")
    for command in (["compute", "I(2,4)"], ["table", "I:k=2", "3..5"]):
        assert run(capsys, *command, "--refinements", "") == (
            2,
            "",
            "error: [Errno 2] No such file or directory: ''\n",
        )


def test_a_refinement_file_that_is_not_utf8_exits_2_naming_its_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"I(2,4) | {6} | c; .\nI(2,5) | {7} | caf\xff; .\n")
    for command in (["compute", "I(2,4)"], ["table", "I:k=2", "3..5"]):
        assert run(capsys, *command, "--refinements", str(path)) == (
            2,
            "",
            f"error: {path}:2: byte 0xff is not UTF-8 (invalid start byte)\n",
        )


def test_contradicting_refinement_file_is_rejected(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("I(2,4) | {4} | c; .\n", encoding="utf-8")
    code, _, err = run(capsys, "compute", "I(2,4)", "--refinements", str(path))
    assert code == 2
    assert "contradicts" in err


def test_non_ascii_refinement_value_is_rejected_with_its_line(capsys, tmp_path):
    path = tmp_path / "digits.txt"
    path.write_text("# header\nI(2,5) | {٧,8} | y\n", encoding="utf-8")
    assert run(capsys, "compute", "I(2,5)", "--refinements", str(path)) == (
        2,
        "",
        f"error: {path}:2: expected an integer, got '٧'\n",
    )


@pytest.mark.parametrize(
    "key, reason",
    [
        ("I(1,*)", "expected an integer (at position 4)"),
        ("I(0,2)", "type I requires 1 <= k <= s-1 and s >= 2, got k=0, s=2"),
        ("", "empty expression"),
    ],
)
def test_refinement_key_that_does_not_parse_is_rejected_with_its_line(capsys, tmp_path, key, reason):
    path = tmp_path / "keys.txt"
    path.write_text(f"# header\n{key} | {{3}} | c; .\n", encoding="utf-8")
    assert run(capsys, "compute", "CP(2)", "--refinements", str(path)) == (
        2,
        "",
        f"error: {path}:2: key {key!r}: {reason}\n",
    )


def test_refinement_value_too_long_to_convert_is_rejected_with_its_line(capsys, tmp_path):
    path = tmp_path / "long.txt"
    path.write_text("I(2,5) | {" + "9" * 5000 + "} | y\n", encoding="utf-8")
    assert run(capsys, "compute", "I(2,5)", "--refinements", str(path)) == (
        2,
        "",
        f"error: {path}:1: integer too long (5000 digits)\n",
    )


def test_duplicate_set_values_print_once(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("I(2,4) | {5,5} | c; .\n", encoding="utf-8")
    code, out, _ = run(capsys, "compute", "I(2,4)", "--refinements", str(path))
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1] == "S_B = 5 (refined; c)"


def test_missing_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_entry_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["hssatlas", "compute", "CP(1)"])
    with pytest.raises(SystemExit) as excinfo:
        cli.entry()
    assert excinfo.value.code == 0
    assert "S_B = 2" in capsys.readouterr().out


# --- table -----------------------------------------------------------------


def test_table_human_marks_threshold(capsys):
    code, out, _ = run(capsys, "table", "II", "2..7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family II"
    row6 = next(line for line in lines if line.lstrip().startswith("6 "))
    assert "Thm1(i)" in row6 and "287" in row6
    assert any("first exact classification (Thm1(i)) at parameter 6" in line for line in lines)


def test_table_csv_footnotes_ride_as_comments(capsys):
    code, out, _ = run(capsys, "table", "III", "1..6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "param,n,degree,sb,clause"
    assert "\n# note: " in out
    assert "s >= 5 vs s >= 6" in out


def test_table_json_reports_first_exact(capsys):
    _, out, _ = run(capsys, "table", "I:k=2", "4..10", "--format", "json")
    obj = json.loads(out)
    assert obj["family"] == "I(k=2)"
    assert obj["first_exact"] == "7"
    assert [row["param"] for row in obj["rows"]] == [str(s) for s in range(4, 11)]
    assert obj["rows"][3]["sb"] == {"kind": "Exact", "value": "43"}


def test_table_latex_is_a_tabular(capsys):
    _, out, _ = run(capsys, "table", "IV", "3..5", "--format", "latex")
    assert out.startswith("\\begin{tabular}{rrrll}")
    assert "never fires" in out


# --- check -----------------------------------------------------------------


def test_check_passes_with_expected_mismatch(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert lines[-1] == (
        "summary: arithmetic OK, tableaux OK, "
        "5 isomorphism passes, 1 expected mismatch (III_2 vs IV_3)"
    )
    assert sum("(expected)" in line for line in lines) == 1
    assert "(UNEXPECTED)" not in out


def test_check_json_lists_the_six_pairs(capsys):
    code, out, _ = run(capsys, "check", "--format", "json")
    assert code == 0
    diags = json.loads(out)
    assert len(diags) == 6
    mismatches = [d for d in diags if d["verdict"] == "Mismatch"]
    assert [(d["left"], d["right"]) for d in mismatches] == [("III(2)", "IV(3)")]
    assert (mismatches[0]["degree_left"], mismatches[0]["degree_right"]) == ("1", "2")


CHECK_CSV = """\
left,right,dims_match,degree_left,degree_right,verdict
II(2),"I(1,2)",True,1,1,Pass
II(3),"I(1,4)",True,1,1,Pass
II(4),IV(6),True,2,2,Pass
III(1),"I(1,2)",True,1,1,Pass
III(2),IV(3),True,1,2,Mismatch
IV(4),"I(2,4)",True,2,2,Pass
"""

CHECK_LATEX = r"""\begin{tabular}{llrrl}
\hline
pair & dims agree & deg (left) & deg (right) & verdict \\
\hline
II(2) vs I(1,2) & yes & 1 & 1 & Pass \\
II(3) vs I(1,4) & yes & 1 & 1 & Pass \\
II(4) vs IV(6) & yes & 2 & 2 & Pass \\
III(1) vs I(1,2) & yes & 1 & 1 & Pass \\
III(2) vs IV(3) & yes & 1 & 2 & Mismatch \\
IV(4) vs I(2,4) & yes & 2 & 2 & Pass \\
\hline
\end{tabular}
"""


@pytest.mark.parametrize(
    "fmt,expected", [("csv", CHECK_CSV), ("latex", CHECK_LATEX)], ids=["csv", "latex"]
)
def test_check_csv_and_latex_are_pinned(capsys, fmt, expected):
    assert run(capsys, "check", "--format", fmt) == (0, expected, "")


def test_check_summary_names_the_expected_pairs(capsys, monkeypatch):
    # another table of probes whose one mismatch its row expects
    rows = (
        Coincidence(type_ii(4), (type_iv(6),), False, "Pass"),
        Coincidence(type_ii(3), (type_iv(4),), False, "Mismatch"),
    )
    monkeypatch.setattr(oracle, "COINCIDENCES", rows)
    code, out, _ = run(capsys, "check")
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1] == (
        "summary: arithmetic OK, tableaux OK, "
        "1 isomorphism passes, 1 expected mismatch (II_3 vs IV_4)"
    )


def _expect(monkeypatch, spelling, verdict):
    # check reads its probes from oracle.COINCIDENCES; replace one row's verdict there
    rows = tuple(
        row._replace(verdict=verdict) if row.pair[0] == spelling else row for row in oracle.COINCIDENCES
    )
    monkeypatch.setattr(oracle, "COINCIDENCES", rows)


def _no_expected_mismatch(monkeypatch):
    # the III(2)/IV(3) mismatch becomes a deviation
    _expect(monkeypatch, "III(2)", "Pass")


def _pass_where_mismatch_expected(monkeypatch):
    # the II(2)/I(1,2) pass becomes a deviation
    _expect(monkeypatch, "II(2)", "Mismatch")


def _hook_count_off_by_one(monkeypatch):
    hook = oracle.count_syt_hook
    monkeypatch.setattr(oracle, "count_syt_hook", lambda shape: hook(shape) + 1)


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "deviate,human_line",
    [
        (
            _no_expected_mismatch,
            "  III(2) vs IV(3): dims match: yes, degrees 1 vs 2: Mismatch (UNEXPECTED)",
        ),
        (
            _pass_where_mismatch_expected,
            "  II(2) vs I(1,2): dims match: yes, degrees 1 vs 1: Pass (UNEXPECTED)",
        ),
        (_hook_count_off_by_one, "type I degree vs tableau counts: 49 cases: 49 FAILED"),
    ],
    ids=["isomorphism", "unexpected-pass", "tableau"],
)
def test_check_flags_deviation_with_exit_4(capsys, monkeypatch, deviate, human_line, fmt):
    deviate(monkeypatch)
    code, out, _ = run(capsys, "check", "--format", fmt)
    assert code == 4
    if fmt == "human":
        lines = out.rstrip("\n").splitlines()
        assert human_line in lines
        assert lines[-1] == "summary: DEVIATION from expected verdicts"


def _pipe_without_reader() -> int:
    """The write end of a pipe whose read end is already closed, so the
    first write to it fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize(
    "argv", [("compute", "IV(2)^64"), ("check", "--format", "json")], ids=lambda argv: argv[0]
)
def test_a_reader_that_closes_at_once_is_not_an_error(argv):
    stdout = _pipe_without_reader()
    src = Path(cli.__file__).resolve().parent.parent
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hssatlas", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_a_closed_stdout_keeps_the_deviation_exit_4(capsys, monkeypatch):
    _no_expected_mismatch(monkeypatch)
    with open(_pipe_without_reader(), "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["check"])
    assert (code, capsys.readouterr().err) == (4, "")


# --- every command in every format ------------------------------------------


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize(
    "argv", [("compute", "I(2,5)"), ("table", "II", "2..7"), ("check",)], ids=lambda argv: argv[0]
)
def test_every_command_renders_every_format(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.strip()


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_compute_prints_a_degree_over_the_digit_limit_in_full(capsys, fmt):
    # degree(I(100,200)) has 16,154 digits, beyond str()'s default 4,300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "compute", "I(100,200)", "--format", fmt)
    assert (code, err) == (0, "")
    assert max(map(len, re.findall(r"[0-9]+", out))) == 16_154
    assert sys.get_int_max_str_digits() == limit


# --- README ----------------------------------------------------------------


def _readme_cli_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("hssatlas ")]


def test_every_readme_cli_example_succeeds(capsys):
    commands = _readme_cli_commands()
    assert len(commands) == 6
    for argv in commands:
        code, out, err = run(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert out


# --- start-up ----------------------------------------------------------------

# Stdlib modules that a process should load only for the formats that
# need them (json, csv) or never (dataclasses, inspect, importlib.resources).
_WATCHED = ("json", "csv", "dataclasses", "inspect", "importlib.resources")


def _loaded_after(code: str, *argv: str) -> list[str]:
    """The hssatlas submodules and watched modules loaded once ``code``
    has run with ``argv`` in a fresh interpreter (-S keeps site-packages
    start-up hooks out of sys.modules)."""
    src = Path(cli.__file__).resolve().parent.parent
    probe = f"{code}\nprint(sorted(m for m in sys.modules if m.startswith('hssatlas.') or m in {_WATCHED}))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys\n" + probe, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


_CLI_MODULES = [f"hssatlas.{name}" for name in ("arith", "cli", "render", "spaces")]
# What each command adds to them for the layer it runs; check's oracle is
# in its parameter below, with the formats' modules.
_COMMAND_MODULES = {
    "compute": ["hssatlas.atlas", "hssatlas.invariants"],
    "table": ["hssatlas.atlas", "hssatlas.invariants"],
    "check": ["hssatlas.invariants"],
}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    loaded = _loaded_after("import hssatlas.cli")
    assert not {"dataclasses", "inspect"} & set(loaded)
    assert loaded == _CLI_MODULES


def test_importing_the_package_loads_no_submodule():
    assert _loaded_after("import hssatlas") == []


@pytest.mark.parametrize(
    "command,extra",
    [
        ("compute I(2,5)", ""),
        ("compute I(2,5) --format latex", ""),
        ("table III 1..10", ""),
        ("table III 1..10 --format latex", ""),
        ("compute I(2,5) --format json", "json"),
        ("table III 1..10 --format json", "json"),
        ("compute I(2,5) --format csv", "csv"),
        ("table III 1..10 --format csv", "csv"),
        ("check", "hssatlas.oracle"),
        ("check --format json", "hssatlas.oracle json"),
    ],
    ids=lambda value: value or "nothing",
)
def test_each_command_loads_only_what_it_uses(command, extra):
    loaded = _loaded_after("from hssatlas import cli\ncli.main(sys.argv[1:])", *command.split())
    assert loaded == sorted(_CLI_MODULES + _COMMAND_MODULES[command.split()[0]] + extra.split())
