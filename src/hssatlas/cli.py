"""Command line interface: compute, table and check subcommands.

Exit codes: 0 success, 2 parse/validation error or out of memory, 3
internal non-integral ratio (always a formula transcription bug), 4
cross-check deviation from the expected verdicts.  A reader that closes
stdout early changes none of these, and nothing is printed on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import render
from .arith import NonIntegralRatio
from .spaces import EmptyProduct, InvalidParams, SpaceSyntaxError, parse, read_int

if TYPE_CHECKING:
    from .atlas import RefinementTable

FORMATS = ("human", "json", "csv", "latex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hssatlas",
        description="Exact embedding degrees and minimal Darboux-atlas bounds "
        "for products of compact Hermitian symmetric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="human")
        overlay = p.add_mutually_exclusive_group()
        overlay.add_argument(
            "--refinements",
            metavar="PATH",
            help="refinement table file (overrides the ATLAS_REFINEMENTS variable)",
        )
        overlay.add_argument(
            "--no-refinements",
            action="store_true",
            help="classify from the theorem alone, without the literature overlay",
        )

    p = sub.add_parser("compute", help="full invariant report for one space expression")
    p.add_argument("expr", help="e.g. 'I(2,4)', 'CP(3)', 'II(6)', 'CP(1) x CP(2)'")
    add_output_options(p)

    p = sub.add_parser("table", help="threshold scan over one family")
    p.add_argument("family", help="'I:k=<int>', 'II', 'III' or 'IV'")
    p.add_argument("range", help="inclusive parameter range 'a..b'")
    add_output_options(p)

    p = sub.add_parser("check", help="run the oracle cross-check suite")
    p.add_argument("--format", choices=FORMATS, default="human")

    return parser


def _parse_family(text: str) -> tuple[str, int | None]:
    """'I:k=2' -> ('I', 2), 'II' -> ('II', None); threshold_scan checks both."""
    family, sep, k_text = text.partition(":k=")
    if not sep:
        return family, None
    try:
        return family, read_int(k_text)
    except ValueError:
        raise InvalidParams(f"bad family {text!r}: k must be an integer") from None


def _parse_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition("..")
    if sep:
        try:
            return read_int(lo_text), read_int(hi_text)
        except ValueError:
            pass
    raise InvalidParams(f"range must look like 'a..b', got {text!r}")


def _load_table(args: argparse.Namespace) -> RefinementTable | None:
    from .atlas import RefinementTable

    if args.no_refinements:
        return None
    return RefinementTable.resolve(args.refinements)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each command imports the layer it runs, so `check` loads no atlas
        # and `compute` and `table` load no oracle
        if args.command == "compute":
            from .atlas import report

            kind, result = "report", report(parse(args.expr), _load_table(args))
        elif args.command == "table":
            from .atlas import threshold_scan

            family, k = _parse_family(args.family)
            start, stop = _parse_range(args.range)
            kind, result = "scan", threshold_scan(family, start, stop, k=k, table=_load_table(args))
        else:
            from .oracle import run_checks

            kind, result = "check", run_checks()
        text = getattr(render, f"render_{kind}_{args.format}")(result)
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early; point stdout at the null device so
            # that the flush at interpreter exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except (SpaceSyntaxError, InvalidParams, EmptyProduct) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NonIntegralRatio as exc:
        print(f"NonIntegralRatio: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    return 4 if kind == "check" and not result.ok else 0


def entry() -> None:
    raise SystemExit(main())
