"""Rendering of reports, scan tables and cross-check results.

Four formats: human (aligned text), json (stable keys, every exact
integer as a decimal string so arbitrarily large degrees survive any
consumer), csv, latex.  Every CSV table comes from one writer (``_csv``)
and every LaTeX table from one frame (``_tabular``); the cells of a
result kind are built once and shared by its formats, and every integer
is written by ``digits``.  All renderers are deterministic: the same
value always produces the same bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .spaces import pair_label

if TYPE_CHECKING:  # each result carries all it prints, so a command loads only the layer it runs
    from .atlas import Report, SBResult, ScanResult
    from .oracle import CheckResult, Diagnostic

_LATEX_SPECIALS = {
    "&": r"\&",
    "%": r"\%",
    "#": r"\#",
    "$": r"\$",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "^": r"\^{}",
    "~": r"\~{}",
}
_LATEX_TABLE = str.maketrans(_LATEX_SPECIALS)


def latex_escape(text: str) -> str:
    return text.translate(_LATEX_TABLE)


def digits(n: int) -> str:
    """All the decimal digits of an exact integer: ``Decimal`` converts
    one over ``str``'s process-wide limit (4,300 digits by default)
    exactly, and leaves that limit as it is."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(obj: object) -> str:
    """The bytes of ``json.dumps(obj, indent=2)`` for the dicts (of str
    keys), lists, strings, booleans and None the renderers build,
    without the pure-Python encoder that ``indent`` selects.  Each
    string is quoted by the json module's own ASCII escaper, imported
    here so that only a json run loads json."""
    from json.encoder import encode_basestring_ascii as quote

    def write(obj: object, indent: str) -> str:
        if isinstance(obj, str):
            return quote(obj)
        if obj is None or obj is True or obj is False:
            return _JSON_CONSTANTS[obj]
        inner = indent + "  "
        if isinstance(obj, dict):
            items = [f"{quote(key)}: {quote(v) if type(v) is str else write(v, inner)}" for key, v in obj.items()]
            return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
        if isinstance(obj, list):
            items = [quote(v) if type(v) is str else write(v, inner) for v in obj]
            return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
        raise TypeError(f"{type(obj).__name__} is not written as JSON")

    return write(obj, "\n")


def _csv(
    header: Iterable[str],
    rows: Iterable[Iterable[object]],
    notes: Iterable[str] = (),
    text: Callable[[int], str] = digits,
) -> str:
    """A header, the rows (None writes as an empty field, an integer in
    full by ``text``), then one '# note:' line per note; csv is imported
    here so that only a csv run loads it."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([text(cell) if isinstance(cell, int) else cell for cell in row] for row in rows)
    buffer.writelines(f"# note: {note}\n" for note in notes)
    return buffer.getvalue().rstrip("\n")


def _tabular(
    spec: str,
    rows: Iterable[Sequence[str]],
    header: Sequence[str] | None = None,
    notes: Iterable[str] = (),
    note_label: str = "note",
) -> str:
    """A ruled tabular of already-escaped cells, then one footnote line
    per note."""
    lines = [r"\begin{tabular}{" + spec + "}", r"\hline"]
    if header is not None:
        lines += [" & ".join(header) + r" \\", r"\hline"]
    lines += [" & ".join(row) + r" \\" for row in rows]
    lines += [r"\hline", r"\end{tabular}"]
    for note in notes:
        lines.append(rf"\par\noindent{{\footnotesize {note_label}: {latex_escape(note)}}}")
    return "\n".join(lines)


# --- S_B helpers -----------------------------------------------------------


def _braced(values: Iterable[int]) -> str:
    """'{5,6}': a refined value set in table cells."""
    return "{" + ",".join(map(digits, values)) + "}"


def sb_to_obj(sb: SBResult, text: Callable[[int], str] = digits) -> dict:
    if sb.kind == "Exact":
        return {"kind": "Exact", "value": text(sb.value)}
    obj: dict = {"kind": "Range", "lower": text(sb.lower), "upper": text(sb.upper)}
    if sb.refinement is not None:
        obj["refinement"] = {
            "values": [digits(v) for v in sb.refinement.values],
            "citation": sb.refinement.citation,
        }
    return obj


def sb_human(sb: SBResult, text: Callable[[int], str] = digits) -> str:
    if sb.kind == "Exact":
        return f"S_B = {text(sb.value)}"
    if sb.refinement is None:
        return f"S_B ∈ [{text(sb.lower)}, {text(sb.upper)}]"
    values = sb.refinement.values
    if len(values) == 1:
        return f"S_B = {digits(values[0])} (refined; {sb.refinement.label})"
    joined = ", ".join(map(digits, values))
    return f"S_B ∈ {{{joined}}} (refined; {sb.refinement.label})"


def sb_cell(sb: SBResult) -> str:
    """Compact single-cell form for tables: '43', '[5,9]', '[5,9]{5,6}'."""
    if sb.kind == "Exact":
        return digits(sb.value)
    cell = f"[{digits(sb.lower)},{digits(sb.upper)}]"
    if sb.refinement is not None:
        cell += _braced(sb.refinement.values)
    return cell


# --- reports ---------------------------------------------------------------


# str()'s default limit on the digits it writes; ``digits`` writes a
# longer integer through Decimal, in time that grows faster than its length
_STR_DIGITS_LIMIT = 4300


def _successor_digits(text: str) -> str:
    """The digits of n + 1 from those of a positive n: the trailing 9s
    become 0s and the digit left of them goes up by one, or a 1 leads
    when every digit was 9."""
    body = text.rstrip("9")
    zeros = "0" * (len(text) - len(body))
    if not body:
        return "1" + zeros
    return body[:-1] + "123456789"[int(body[-1])] + zeros


def _digits_once() -> Callable[[int], str]:
    """``digits`` for one render call, converting each integer on its
    first use only: an exact report prints its degree twice (as the
    degree and as the volume) and Gamma = degree + 1 twice (gamma and
    S_B).  A positive integer over str's 4,300 digits, which ``digits``
    writes through Decimal, also leaves the digits of its successor, so
    a large report converts once."""
    memo: dict[int, str] = {}

    def text(n: int) -> str:
        if n in memo:
            return memo[n]
        memo[n] = written = digits(n)
        if len(written) > _STR_DIGITS_LIMIT and n > 0:
            memo[n + 1] = _successor_digits(written)
        return written

    return text


def render_report_json(report: Report) -> str:
    text = _digits_once()
    return _json({
        "space": report.space,
        "n": text(report.n),
        "rank": text(report.rank),
        "degree": text(report.degree),
        "gamma": text(report.gamma),
        "volume": {"units": text(report.degree), "dim": text(report.n)},
        "gromov_width_units": text(report.gromov_width_units),
        "sb": sb_to_obj(report.sb, text),
        "case": report.sb.clause,
        "warnings": list(report.warnings),
        "citations": list(report.citations),
    })


def render_report_human(report: Report) -> str:
    sb = report.sb
    text = _digits_once()
    n = text(report.n)
    fields = [
        ("space", report.space),
        ("complex dim", f"n = {n}   (2n = {text(2 * report.n)})"),
        ("rank", text(report.rank)),
        ("degree", text(report.degree)),
        ("gamma", text(report.gamma)),
        ("volume", f"{text(report.degree)}·π^{n}/{n}!"),
        ("Gromov width", f"{text(report.gromov_width_units)}·π"),
        ("clause", report.sb.clause),
    ]
    if sb.kind == "Range":
        fields.append(("bounds", f"max(n+1, deg+1) = {text(sb.lower)} <= S_B <= {text(sb.upper)} = 2n+1"))
    fields.extend(("warning", warning) for warning in report.warnings)
    lines = [f"{label + ':':<16}{value}" for label, value in fields]
    lines.append("citations:")
    lines.extend(f"  - {citation}" for citation in report.citations)
    lines.append(sb_human(sb, text))
    return "\n".join(lines)


def render_report_csv(report: Report) -> str:
    sb = report.sb
    columns = {
        "space": report.space,
        "n": report.n,
        "rank": report.rank,
        "degree": report.degree,
        "gamma": report.gamma,
        "volume_units": report.degree,
        "gromov_width_units": report.gromov_width_units,
        "sb_kind": sb.kind,
        "sb_value": sb.value,
        "sb_lower": sb.lower,
        "sb_upper": sb.upper,
        "sb_refined": None if sb.refinement is None else _braced(sb.refinement.values),
        "case": report.sb.clause,
        "warnings": "; ".join(report.warnings),
    }
    return _csv(columns, [columns.values()], text=_digits_once())


def render_report_latex(report: Report) -> str:
    sb = report.sb
    text = _digits_once()
    degree, n = text(report.degree), text(report.n)  # before Gamma and S_B, which follow from the degree's digits
    if sb.kind == "Exact":
        sb_tex = f"$S_B = {text(sb.value)}$"
    elif sb.refinement is None:
        sb_tex = f"$S_B \\in [{text(sb.lower)}, {text(sb.upper)}]$"
    else:
        refined = latex_escape(_braced(sb.refinement.values))
        sb_tex = f"$S_B \\in {refined} \\subset [{text(sb.lower)}, {text(sb.upper)}]$"
    rows = [
        ("space", latex_escape(report.space)),
        ("$n$", n),
        ("rank", text(report.rank)),
        ("degree", degree),
        ("$\\Gamma$", text(report.gamma)),
        ("volume", f"${degree}\\,\\pi^{{{n}}}/{n}!$"),
        ("Gromov width", "$\\pi$"),
        ("clause", latex_escape(report.sb.clause)),
        ("$S_B$", sb_tex),
    ]
    return _tabular("ll", rows, notes=report.warnings, note_label="warning")


# --- threshold scans -------------------------------------------------------


def render_scan_json(scan: ScanResult) -> str:
    return _json({
        "family": scan.family,
        "rows": [
            {
                "param": digits(row.param),
                "n": digits(row.n),
                "degree": digits(row.degree),
                "sb": sb_to_obj(row.sb),
                "clause": row.sb.clause,
            }
            for row in scan.rows
        ],
        "first_exact": None if scan.first_exact is None else digits(scan.first_exact),
        "footnotes": list(scan.footnotes),
    })


def _scan_cells(scan: ScanResult) -> list[tuple[str, str, str, str, str]]:
    """One row of text cells per scan row: param, n, degree, S_B, clause."""
    return [
        (digits(row.param), digits(row.n), digits(row.degree), sb_cell(row.sb), row.sb.clause)
        for row in scan.rows
    ]


def render_scan_human(scan: ScanResult) -> str:
    table = [("s", "n", "degree", "S_B", "clause"), *_scan_cells(scan)]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [f"family {scan.family}"]
    for cells in table:
        padded = [
            cell.rjust(width) if i < 3 else cell.ljust(width)
            for i, (cell, width) in enumerate(zip(cells, widths))
        ]
        lines.append("  " + "  ".join(padded).rstrip())
    lines.extend(f"note: {note}" for note in scan.footnotes)
    return "\n".join(lines)


def render_scan_csv(scan: ScanResult) -> str:
    return _csv(("param", "n", "degree", "sb", "clause"), _scan_cells(scan), scan.footnotes)


def render_scan_latex(scan: ScanResult) -> str:
    rows = [
        (s, n, d, latex_escape(sb), latex_escape(clause))
        for s, n, d, sb, clause in _scan_cells(scan)
    ]
    header = ("$s$", "$n$", "degree", "$S_B$", "clause")
    return _tabular("rrrll", rows, header, scan.footnotes)


# --- cross-checks ----------------------------------------------------------


def diagnostic_to_obj(diag: Diagnostic) -> dict:
    return {
        "left": diag.left,
        "right": diag.right,
        "dims_match": diag.dims_match,
        "degree_left": digits(diag.degree_left),
        "degree_right": digits(diag.degree_right),
        "verdict": diag.verdict,
    }


def render_check_human(result: CheckResult) -> str:
    arith_status = "OK" if not result.ratios_failed else f"{result.ratios_failed} FAILED"
    syt_status = "OK" if not result.syt_failed else f"{result.syt_failed} FAILED"
    lines = [
        f"arithmetic cross-path: {result.ratios_checked} ratios, direct vs prime-exponent: {arith_status}",
        f"type I degree vs tableau counts: {result.syt_checked} cases: {syt_status}",
        "isomorphism diagnostics:",
    ]
    for diag in result.diagnostics:
        if diag.verdict != diag.expected:
            note = " (UNEXPECTED)"
        else:
            note = " (expected)" if diag.expected == "Mismatch" else ""
        lines.append(
            f"  {diag.left} vs {diag.right}: dims match: {'yes' if diag.dims_match else 'no'}, "
            f"degrees {digits(diag.degree_left)} vs {digits(diag.degree_right)}: {diag.verdict}{note}"
        )
    if result.ok:
        mismatches = sorted((d.left, d.right) for d in result.diagnostics if d.expected == "Mismatch")
        passes = len(result.diagnostics) - len(mismatches)
        labels = ", ".join(pair_label(*pair) for pair in mismatches)
        lines.append(
            f"summary: arithmetic {arith_status}, tableaux {syt_status}, "
            f"{passes} isomorphism passes, {len(mismatches)} expected mismatch ({labels})"
        )
    else:
        lines.append("summary: DEVIATION from expected verdicts")
    return "\n".join(lines)


def render_check_json(result: CheckResult) -> str:
    return _json([diagnostic_to_obj(d) for d in result.diagnostics])


def render_check_csv(result: CheckResult) -> str:
    header = ("left", "right", "dims_match", "degree_left", "degree_right", "verdict")
    return _csv(header, (diagnostic_to_obj(d).values() for d in result.diagnostics))


def render_check_latex(result: CheckResult) -> str:
    rows = [
        (
            latex_escape(f"{d.left} vs {d.right}"),
            "yes" if d.dims_match else "no",
            digits(d.degree_left),
            digits(d.degree_right),
            d.verdict,
        )
        for d in result.diagnostics
    ]
    header = ("pair", "dims agree", "deg (left)", "deg (right)", "verdict")
    return _tabular("llrrl", rows, header)
