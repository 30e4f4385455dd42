"""Rendering of reports, scan tables and cross-check results.

Four formats: human (aligned text), json (stable keys, every exact
integer as a decimal string so arbitrarily large degrees survive any
consumer), csv, latex.  All renderers are deterministic: the same value
always produces the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable

from . import oracle
from .atlas import Report, SBResult, ScanResult
from .oracle import CheckResult, Diagnostic, is_expected

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


def latex_escape(text: str) -> str:
    return "".join(_LATEX_SPECIALS.get(ch, ch) for ch in text)


def _csv_text(rows: Iterable[Iterable[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue().rstrip("\n")


# --- S_B helpers -----------------------------------------------------------


def sb_to_obj(sb: SBResult) -> dict:
    if sb.kind == "Exact":
        return {"kind": "Exact", "value": str(sb.value)}
    obj: dict = {"kind": "Range", "lower": str(sb.lower), "upper": str(sb.upper)}
    if sb.refinement is not None:
        obj["refinement"] = {
            "values": [str(v) for v in sb.refinement.values],
            "citation": sb.refinement.citation,
        }
    return obj


def sb_human(sb: SBResult) -> str:
    if sb.kind == "Exact":
        return f"S_B = {sb.value}"
    if sb.refinement is None:
        return f"S_B ∈ [{sb.lower}, {sb.upper}]"
    values = sb.refinement.values
    if len(values) == 1:
        return f"S_B = {values[0]} (refined; {sb.refinement.label})"
    joined = ", ".join(str(v) for v in values)
    return f"S_B ∈ {{{joined}}} (refined; {sb.refinement.label})"


def sb_cell(sb: SBResult) -> str:
    """Compact single-cell form for tables: '43', '[5,9]', '[5,9]{5,6}'."""
    if sb.kind == "Exact":
        return str(sb.value)
    cell = f"[{sb.lower},{sb.upper}]"
    if sb.refinement is not None:
        cell += "{" + ",".join(str(v) for v in sb.refinement.values) + "}"
    return cell


# --- reports ---------------------------------------------------------------


def report_to_obj(report: Report) -> dict:
    return {
        "space": report.space,
        "n": str(report.n),
        "rank": str(report.rank),
        "degree": str(report.degree),
        "gamma": str(report.gamma),
        "volume": {"units": str(report.volume.units), "dim": str(report.volume.dim)},
        "gromov_width_units": str(report.gromov_width_units),
        "sb": sb_to_obj(report.sb),
        "case": report.case,
        "warnings": list(report.warnings),
        "citations": list(report.citations),
    }


def render_report_json(report: Report) -> str:
    return json.dumps(report_to_obj(report), indent=2)


def render_report_human(report: Report) -> str:
    lines = [
        f"space:          {report.space}",
        f"complex dim:    n = {report.n}   (2n = {report.two_n})",
        f"rank:           {report.rank}",
        f"degree:         {report.degree}",
        f"gamma:          {report.gamma}",
        f"volume:         {report.volume.render()}",
        f"Gromov width:   {report.gromov_width_units}·π",
        f"clause:         {report.case}",
    ]
    if report.sb.kind == "Range":
        lines.append(
            f"bounds:         max(n+1, deg+1) = {report.sb.lower} <= S_B <= {report.sb.upper} = 2n+1"
        )
    for warning in report.warnings:
        lines.append(f"warning:        {warning}")
    lines.append("citations:")
    for citation in report.citations:
        lines.append(f"  - {citation}")
    lines.append(sb_human(report.sb))
    return "\n".join(lines)


_REPORT_CSV_COLUMNS = (
    "space",
    "n",
    "rank",
    "degree",
    "gamma",
    "volume_units",
    "gromov_width_units",
    "sb_kind",
    "sb_value",
    "sb_lower",
    "sb_upper",
    "sb_refined",
    "case",
    "warnings",
)


def render_report_csv(report: Report) -> str:
    sb = report.sb
    refined = ""
    if sb.refinement is not None:
        refined = "{" + ",".join(str(v) for v in sb.refinement.values) + "}"
    row = (
        report.space,
        report.n,
        report.rank,
        report.degree,
        report.gamma,
        report.volume.units,
        report.gromov_width_units,
        sb.kind,
        "" if sb.value is None else sb.value,
        "" if sb.lower is None else sb.lower,
        "" if sb.upper is None else sb.upper,
        refined,
        report.case,
        "; ".join(report.warnings),
    )
    return _csv_text([_REPORT_CSV_COLUMNS, row])


def render_report_latex(report: Report) -> str:
    if report.sb.kind == "Exact":
        sb_tex = f"$S_B = {report.sb.value}$"
    elif report.sb.refinement is None:
        sb_tex = f"$S_B \\in [{report.sb.lower}, {report.sb.upper}]$"
    else:
        joined = ",".join(str(v) for v in report.sb.refinement.values)
        sb_tex = f"$S_B \\in \\{{{joined}\\}} \\subset [{report.sb.lower}, {report.sb.upper}]$"
    rows = [
        ("space", latex_escape(report.space)),
        ("$n$", str(report.n)),
        ("rank", str(report.rank)),
        ("degree", str(report.degree)),
        ("$\\Gamma$", str(report.gamma)),
        ("volume", f"${report.volume.units}\\,\\pi^{{{report.volume.dim}}}/{report.volume.dim}!$"),
        ("Gromov width", "$\\pi$"),
        ("clause", latex_escape(report.case)),
        ("$S_B$", sb_tex),
    ]
    lines = [r"\begin{tabular}{ll}", r"\hline"]
    lines.extend(f"{name} & {value} \\\\" for name, value in rows)
    lines.extend([r"\hline", r"\end{tabular}"])
    for warning in report.warnings:
        lines.append(r"\par\noindent{\footnotesize warning: " + latex_escape(warning) + "}")
    return "\n".join(lines)


# --- threshold scans -------------------------------------------------------


def scan_to_obj(scan: ScanResult) -> dict:
    return {
        "family": scan.family,
        "rows": [
            {
                "param": str(row.param),
                "n": str(row.n),
                "degree": str(row.degree),
                "sb": sb_to_obj(row.sb),
                "clause": row.clause,
            }
            for row in scan.rows
        ],
        "first_exact": None if scan.first_exact is None else str(scan.first_exact),
        "footnotes": list(scan.footnotes),
    }


def render_scan_json(scan: ScanResult) -> str:
    return json.dumps(scan_to_obj(scan), indent=2)


def render_scan_human(scan: ScanResult) -> str:
    header = ("s", "n", "degree", "S_B", "clause")
    body = [
        (str(row.param), str(row.n), str(row.degree), sb_cell(row.sb), row.clause)
        for row in scan.rows
    ]
    widths = [max(len(line[i]) for line in (header, *body)) for i in range(len(header))]
    lines = [f"family {scan.family}"]
    for cells in (header, *body):
        padded = [
            cells[i].rjust(widths[i]) if i < 3 else cells[i].ljust(widths[i])
            for i in range(len(cells))
        ]
        lines.append("  " + "  ".join(padded).rstrip())
    for note in scan.footnotes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_scan_csv(scan: ScanResult) -> str:
    rows: list[tuple] = [("param", "n", "degree", "sb", "clause")]
    rows.extend(
        (row.param, row.n, row.degree, sb_cell(row.sb), row.clause) for row in scan.rows
    )
    text = _csv_text(rows)
    notes = "".join(f"\n# note: {note}" for note in scan.footnotes)
    return text + notes


def render_scan_latex(scan: ScanResult) -> str:
    lines = [
        r"\begin{tabular}{rrrll}",
        r"\hline",
        r"$s$ & $n$ & degree & $S_B$ & clause \\",
        r"\hline",
    ]
    for row in scan.rows:
        lines.append(
            f"{row.param} & {row.n} & {row.degree} & "
            f"{latex_escape(sb_cell(row.sb))} & {latex_escape(row.clause)} \\\\"
        )
    lines.extend([r"\hline", r"\end{tabular}"])
    for note in scan.footnotes:
        lines.append(r"\par\noindent{\footnotesize note: " + latex_escape(note) + "}")
    return "\n".join(lines)


# --- cross-checks ----------------------------------------------------------


def diagnostic_to_obj(diag: Diagnostic) -> dict:
    return {
        "left": diag.left,
        "right": diag.right,
        "dims_match": diag.dims_match,
        "degree_left": str(diag.degree_left),
        "degree_right": str(diag.degree_right),
        "verdict": diag.verdict,
    }


def _pair_label(left: str, right: str) -> str:
    """'III(2)', 'IV(3)' -> 'III_2 vs IV_3'."""
    return " vs ".join(name.replace("(", "_").replace(")", "") for name in (left, right))


def render_check_human(result: CheckResult) -> str:
    arith_status = "OK" if not result.ratios_failed else f"{result.ratios_failed} FAILED"
    syt_status = "OK" if not result.syt_failed else f"{result.syt_failed} FAILED"
    lines = [
        f"arithmetic cross-path: {result.ratios_checked} ratios, direct vs prime-exponent: {arith_status}",
        f"type I degree vs tableau counts: {result.syt_checked} cases: {syt_status}",
        "isomorphism diagnostics:",
    ]
    for diag in result.diagnostics:
        note = ""
        if diag.verdict == "Mismatch":
            note = " (expected)" if is_expected(diag) else " (UNEXPECTED)"
        lines.append(
            f"  {diag.left} vs {diag.right}: dims match: {'yes' if diag.dims_match else 'no'}, "
            f"degrees {diag.degree_left} vs {diag.degree_right}: {diag.verdict}{note}"
        )
    if result.ok:
        passes = sum(d.verdict == "Pass" for d in result.diagnostics)
        mismatches = len(result.diagnostics) - passes  # all expected when ok
        expected = ", ".join(_pair_label(*pair) for pair in sorted(oracle.EXPECTED_MISMATCHES))
        lines.append(
            f"summary: arithmetic {arith_status}, tableaux {syt_status}, "
            f"{passes} isomorphism passes, {mismatches} expected mismatch ({expected})"
        )
    else:
        lines.append("summary: DEVIATION from expected verdicts")
    return "\n".join(lines)


def render_check_json(result: CheckResult) -> str:
    return json.dumps([diagnostic_to_obj(d) for d in result.diagnostics], indent=2)


def render_check_csv(result: CheckResult) -> str:
    rows: list[tuple] = [("left", "right", "dims_match", "degree_left", "degree_right", "verdict")]
    rows.extend(
        (d.left, d.right, d.dims_match, d.degree_left, d.degree_right, d.verdict)
        for d in result.diagnostics
    )
    return _csv_text(rows)


def render_check_latex(result: CheckResult) -> str:
    lines = [
        r"\begin{tabular}{llrrl}",
        r"\hline",
        r"pair & dims agree & deg (left) & deg (right) & verdict \\",
        r"\hline",
    ]
    for d in result.diagnostics:
        pair = latex_escape(f"{d.left} vs {d.right}")
        lines.append(
            f"{pair} & {'yes' if d.dims_match else 'no'} & "
            f"{d.degree_left} & {d.degree_right} & {d.verdict} \\\\"
        )
    lines.extend([r"\hline", r"\end{tabular}"])
    return "\n".join(lines)
