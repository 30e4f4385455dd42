"""Minimal-atlas classification, literature refinements, reports, scans.

The number S_B of Darboux charts needed to cover a space is classified
from two exact integers, Gamma and the complex dimension n, by the
minimal-atlas theorem of Rudyak and Schlenk:

    clause (i):  Gamma >= 2n+1  =>  S_B = Gamma               ("Thm1(i)")
    clause (ii): otherwise  max(n+1, Gamma) <= S_B <= 2n+1    ("Thm1(ii)")

A refinement table overlays sharper literature values onto clause (ii)
brackets.  Every construction checks each record, so a table can only
narrow a bracket, never contradict it, and never changes which clause fired.

What a report or a scan says of a family comes from its row of
``spaces.FAMILIES``: a report cites ``citation`` and warns of a factor
whose s is at most ``small_upto``; a scan starts at ``least`` and ends
its footnotes with ``scan_note``.  The only family named here is type
I, whose scans fix k.  The clause that fired is ``SBResult.clause``.
"""

from __future__ import annotations

import codecs
import io
import operator
import os
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .invariants import degree, gamma_from_degree, gromov_width_units
from .spaces import (
    COINCIDENCES, FAMILIES, InvalidParams, IrreducibleSpace, SpaceExpr, is_single_projective, pair_label, parse,
    read_int,
)

CLAUSE_EXACT = "Thm1(i)"
CLAUSE_RANGE = "Thm1(ii)"

ENV_REFINEMENTS = "ATLAS_REFINEMENTS"

PROJECTIVE_RULE_PATTERN = "I(1,*)"
PROJECTIVE_RULE_TOKEN = "n_plus_1"


class Refinement(NamedTuple):
    """A refinement record, or the result of a lookup: the pattern and
    citation of the record that matched, with its values as a tuple.  A
    table keeps a record with its key canonical and ``values`` a sorted
    tuple for '{5,6}', a ``range`` for '[7,10]' (a record costs the same
    whatever its width) or None for the projective rule on I(1,*)."""

    pattern: str  # canonical key, or "I(1,*)" for the projective rule
    values: tuple[int, ...] | range | None
    citation: str

    @property
    def label(self) -> str:
        """Short head of the citation (text before the first ';')."""
        return self.citation.split(";")[0].strip()


class SBResult(NamedTuple):
    """Outcome of the classification: an exact chart count, or the
    clause (ii) bracket [max(n+1, Gamma), 2n+1], optionally narrowed by
    a refinement."""

    kind: str  # "Exact" | "Range"
    value: int | None = None
    lower: int | None = None
    upper: int | None = None
    refinement: Refinement | None = None

    @property
    def clause(self) -> str:
        """The theorem clause that gave this result."""
        return CLAUSE_EXACT if self.kind == "Exact" else CLAUSE_RANGE

    @staticmethod
    def exact(value: int) -> "SBResult":
        return SBResult("Exact", value)

    @staticmethod
    def bracket(lower: int, upper: int, refinement: Refinement | None = None) -> "SBResult":
        return SBResult("Range", None, lower, upper, refinement)


def _parse_values_spec(spec: str) -> tuple[int, ...] | range | None:
    spec = spec.strip()
    if spec == PROJECTIVE_RULE_TOKEN:
        return None
    if spec.startswith("{") and spec.endswith("}"):
        body = spec[1:-1]
        return tuple(read_int(v) for v in body.split(",")) if body.strip() else ()
    if spec.startswith("[") and spec.endswith("]"):
        lo_text, _, hi_text = spec[1:-1].partition(",")
        return range(read_int(lo_text), read_int(hi_text) + 1)
    raise ValueError(f"values must look like '{{5,6}}', '[7,10]' or '{PROJECTIVE_RULE_TOKEN}', got {spec!r}")


def _checked(record: Refinement, written: str | None = None) -> Refinement:
    """The record with its key canonical and a value set of plain ints,
    sorted and deduplicated, or a ValueError naming its first fault (a
    value that is not an integer, a key that is not a string among them);
    a contradiction quotes ``written``, else the values given.  A
    ``range`` is never iterated."""
    pattern, values, citation = record
    if not citation:
        raise ValueError("a citation is mandatory")
    if values is None:
        if pattern != PROJECTIVE_RULE_PATTERN:
            raise ValueError(f"the {PROJECTIVE_RULE_TOKEN} rule requires pattern {PROJECTIVE_RULE_PATTERN}")
        return Refinement(pattern, None, citation)
    if isinstance(values, range):
        if values.step != 1:
            raise ValueError(f"an interval must have step 1, got {values!r}")
        if not values:
            raise ValueError(f"empty interval [{values.start},{values.stop - 1}]")
    else:
        try:
            values = tuple(sorted(set(map(operator.index, values))))
        except TypeError:
            raise ValueError(f"refinement values must be integers, got {record.values!r}") from None
        if not values:
            raise ValueError("empty value set")
    if not isinstance(pattern, str):
        raise ValueError(f"key {pattern!r} is not a string")
    try:
        space = parse(pattern)
    except ValueError as exc:
        raise ValueError(f"key {pattern!r}: {exc}") from None
    bare = classify(space)
    lower, upper = (bare.value, bare.value) if bare.kind == "Exact" else (bare.lower, bare.upper)
    if not (lower <= values[0] and values[-1] <= upper):
        raise ValueError(
            f"refinement {written or record.values} for {space.render()} "
            f"contradicts the theorem bounds {lower}..{upper}"
        )
    return Refinement(space.render(), values, citation)


class _RefinementTableFields(NamedTuple):
    entries: tuple[Refinement, ...]
    by_key: Mapping[str, Refinement]
    rule: Refinement | None


class RefinementTable(_RefinementTableFields):
    """The records of one refinement table, in file order, each checked
    by ``_checked`` on every construction, ``_replace`` included.
    ``by_key`` maps each explicit key to its first record (a read-only
    view) and ``rule`` is the first record whose ``values`` is None (the
    projective rule), so a lookup is one dict probe.  An explicit key
    beats the rule.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[Refinement]) -> RefinementTable:
        return cls._indexed(tuple(map(_checked, entries)))

    @classmethod
    def _indexed(cls, entries: tuple[Refinement, ...]) -> RefinementTable:
        # entries that _checked has returned; from_lines checks each once, with its line
        by_key: dict[str, Refinement] = {}
        rule = None
        for entry in entries:
            if entry.values is not None:
                by_key.setdefault(entry.pattern, entry)
            elif rule is None:
                rule = entry
        return super().__new__(cls, entries, MappingProxyType(by_key), rule)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> RefinementTable:
        return cls(tuple(iterable)[0])  # so that _replace() checks and rebuilds the index

    @classmethod
    def from_lines(cls, lines: Iterable[str], source: str = "<memory>") -> "RefinementTable":
        """Parse '|'-separated records; '#' lines are comments.

        Each record is checked as a directly built one is; every error
        is a ``ValueError`` that names the source and the line, and a
        contradiction quotes the values as written.
        """
        entries: list[Refinement] = []
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parts = [p.strip() for p in line.split("|")]
                if len(parts) != 3:
                    raise ValueError("expected 'key | values | citation'")
                pattern, spec, citation = parts
                # without a citation the values are not read: that fault is named first
                values = _parse_values_spec(spec) if citation else None
                entries.append(_checked(Refinement(pattern, values, citation), spec))
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: {exc}") from None
        return cls._indexed(tuple(entries))

    @classmethod
    def load(cls, path: str, source: str | None = None) -> "RefinementTable":
        """Read a UTF-8 table file, skipping a byte-order mark at its
        start, into lines as text mode splits it (at LF, CRLF or a lone CR).
        Errors name ``source``, by default the path, and the line; a byte
        that is not UTF-8 is named before any record is read."""
        source = str(path) if source is None else source
        with open(path, "rb") as handle:
            data = handle.read().removeprefix(codecs.BOM_UTF8)
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            before = data[: exc.start].decode()
            line = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
            raise ValueError(f"{source}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
        return cls.from_lines(io.StringIO(text, newline=None), source=source)

    @classmethod
    def builtin(cls) -> "RefinementTable":
        return cls.load(os.path.join(os.path.dirname(__file__), "data", "refinements.txt"), "<builtin>")

    @classmethod
    def resolve(cls, path: str | None = None) -> "RefinementTable":
        """Explicit path, even '', beats the ATLAS_REFINEMENTS variable
        (unless empty) beats the built-in table."""
        if path is None:
            path = os.environ.get(ENV_REFINEMENTS) or None
        return cls.builtin() if path is None else cls.load(path)

    def lookup(self, space: SpaceExpr) -> Refinement | None:
        entry = self.by_key.get(space.render())
        if entry is not None:
            return Refinement(entry.pattern, tuple(entry.values), entry.citation)
        if self.rule is not None and is_single_projective(space):
            return Refinement(self.rule.pattern, (space.dimension + 1,), self.rule.citation)
        return None


def classify(space: SpaceExpr, table: RefinementTable | None = None, d: int | None = None) -> SBResult:
    """S_B from Gamma and n: exact when Gamma >= 2n+1, otherwise the
    theorem bracket, narrowed by the refinement table when one is
    supplied.  A caller that already holds the degree passes it as
    ``d``; otherwise it is evaluated here.  A ``space`` that is not a
    ``SpaceExpr`` (text, say: parse it first) raises ``InvalidParams``,
    here and from ``report``, which classifies first."""
    if not isinstance(space, SpaceExpr):
        raise InvalidParams(f"expected a SpaceExpr, got {type(space).__name__} {space!r}")
    n = space.dimension
    g = gamma_from_degree(degree(space) if d is None else d, n, gromov_width_units(space))
    if g >= 2 * n + 1:
        return SBResult.exact(g)
    refinement = table.lookup(space) if table is not None else None
    return SBResult.bracket(max(n + 1, g), 2 * n + 1, refinement)


class Report(NamedTuple):
    space: str
    n: int
    rank: int
    degree: int
    gamma: int
    gromov_width_units: int
    sb: SBResult
    warnings: tuple[str, ...]
    citations: tuple[str, ...]


_PRODUCT_CITATION = (
    "degree(product) = multinomial(n_1,...,n_m) * prod(factor degrees): "
    "volumes multiply and Vol = degree * pi^n/n!"
)
_GAMMA_CITATION = (
    "Gamma = degree + 1: Vol = degree * pi^n/n! (Wirtinger/Barros-Ros) and "
    "Gromov width pi for every compact Hermitian symmetric space"
)
_CLAUSE_CITATIONS = {
    CLAUSE_EXACT: "S_B = degree + 1 when degree >= 2n: Rudyak-Schlenk minimal-atlas theorem, clause (i)",
    CLAUSE_RANGE: "max(n+1, degree+1) <= S_B <= 2n+1 when degree < 2n: "
    "Rudyak-Schlenk minimal-atlas theorem, clause (ii)",
}

# A small-parameter factor whose coincidence `check` expects to mismatch
# names that pair in its warning.
_MISMATCH_LABELS = {row.spelling: pair_label(*row.pair) for row in COINCIDENCES if row.verdict == "Mismatch"}


def _warnings_for(space: SpaceExpr) -> tuple[str, ...]:
    notes: list[str] = []
    for f in space.factors:
        limit = FAMILIES[f.kind].small_upto
        if limit is None or f.params[-1] > limit:
            continue
        see = "see the isomorphism diagnostics"
        if f in _MISMATCH_LABELS:
            see = f"conflicts with the {_MISMATCH_LABELS[f]} isomorphism diagnostic"
        notes.append(f"{f.render()}: small-parameter degree formula; {see} (run `check`)")
    return tuple(dict.fromkeys(notes))


def report(space: SpaceExpr, table: RefinementTable | None = None) -> Report:
    """Full invariant report for one (product) space.

    The degree is evaluated twice: once inside ``classify``, which
    derives S_B from Gamma, and once here, where Gamma is derived from
    it and from the Gromov width by the same ``gamma_from_degree``."""
    # a second degree evaluation: passing d to classify waits for the RSS fix of ROADMAP item 1
    sb = classify(space, table)
    d, n, width = degree(space), space.dimension, gromov_width_units(space)
    # factors are in canonical order, so the kinds come in FAMILIES order
    citations = [FAMILIES[kind].citation for kind in dict.fromkeys(f.kind for f in space.factors)]
    if len(space.factors) > 1:
        citations.append(_PRODUCT_CITATION)
    citations.append(_GAMMA_CITATION)
    citations.append(_CLAUSE_CITATIONS[sb.clause])
    return Report(
        space=space.render(),
        n=n,
        rank=space.rank,
        degree=d,
        gamma=gamma_from_degree(d, n, width),
        gromov_width_units=width,
        sb=sb,
        warnings=_warnings_for(space),
        citations=tuple(citations),
    )


class ScanRow(NamedTuple):
    param: int
    n: int
    degree: int
    sb: SBResult


class ScanResult(NamedTuple):
    family: str
    rows: tuple[ScanRow, ...]
    first_exact: int | None
    footnotes: tuple[str, ...]


# A scan keeps every row and prints them all, so its length is bounded
# before the first row is computed; a mistyped range then fails at once
# instead of running without end.
MAX_SCAN_ROWS = 10_000


def threshold_scan(
    family: str,
    start: int,
    stop: int,
    k: int | None = None,
    table: RefinementTable | None = None,
) -> ScanResult:
    """Classify one family over an inclusive parameter range.

    ``first_exact`` is the least parameter from which the exact clause
    fires and keeps firing through the end of the range (None if the
    final row is still a bracket).  An unknown family, a start, stop or
    k that is not an integer, a missing or non-positive k for I or a k
    for any other family, a range that starts below the family's least
    parameter or one of more than ``MAX_SCAN_ROWS`` rows raises
    ``InvalidParams``.
    """
    spec = FAMILIES.get(family) if isinstance(family, str) else None
    if spec is None:
        raise InvalidParams(f"unknown family {family!r} (expected one of {', '.join(FAMILIES)})")
    try:
        start, stop = operator.index(start), operator.index(stop)
        k = None if k is None else operator.index(k)
    except TypeError:
        raise InvalidParams(f"a scan takes integers, got {start!r}..{stop!r} and k={k!r}") from None
    if family == "I":
        if k is None:
            raise InvalidParams("family I needs a fixed k (write the family as 'I:k=2')")
        if k < 1:
            raise InvalidParams(f"family I needs k >= 1, got k={k}")
        label = f"I(k={k})"
    else:
        if k is not None:
            raise InvalidParams("only family I takes a k parameter")
        label = family
    if start > stop:
        raise InvalidParams(f"empty range {start}..{stop}")
    least = k + 1 if family == "I" else spec.least
    if start < least:
        raise InvalidParams(
            f"range {start}..{stop} starts below {least}, the first valid parameter of {label}"
        )
    if stop - start >= MAX_SCAN_ROWS:
        raise InvalidParams(
            f"range {start}..{stop} has {stop - start + 1} rows; at most {MAX_SCAN_ROWS} are allowed"
        )

    rows = []
    for s in range(start, stop + 1):
        space = SpaceExpr((IrreducibleSpace(family, (s,) if k is None else (k, s)),))
        d = degree(space)
        sb = classify(space, table, d)
        rows.append(ScanRow(param=s, n=space.dimension, degree=d, sb=sb))

    first_exact = None
    for row in reversed(rows):
        if row.sb.clause != CLAUSE_EXACT:
            break
        first_exact = row.param

    footnotes = []
    if first_exact is None:
        footnotes.append(f"the exact clause {CLAUSE_EXACT} never fires in the scanned range")
    else:
        footnotes.append(
            f"first exact classification ({CLAUSE_EXACT}) at parameter {first_exact}; "
            f"it keeps firing through {stop}"
        )
    if spec.scan_note is not None:
        footnotes.append(spec.scan_note)
    return ScanResult(family=label, rows=tuple(rows), first_exact=first_exact, footnotes=tuple(footnotes))
