"""The four workloads: seeded inputs, the timed operation, the checks.

Every workload hands out its inputs in rounds.  A round holds a fixed
number of inputs from each stratum of the workload's input pool: the
stratum, sorted by cost, is cut into ``quota`` equal slices and each
round takes one input from every slice.  Within a slice the seed sets a
starting point and successive rounds step through the slice by the
golden ratio, so a run covers every slice evenly.  Different seeds thus
give different inputs with the same cost profile, which keeps the
end-to-end figures of two seeds comparable.

``execute`` is the timed operation; it returns (ok, outcome) with a
compact outcome.  ``check`` runs after the timed region and compares
the outcome with references that share no code path with the timed
one: tableau counts (hook-length formula) for type I degrees, the
prime-exponent evaluator for every other factorial ratio, and digests
of the printed bytes recorded when the pool was made.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import hssatlas as H
import hssatlas.arith
import hssatlas.oracle
import hssatlas.render

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
WORK = BENCH / ".work"
TABLE_PATH = "bench/data/refinements.txt"  # relative to ROOT, where CLI children run

# References, bound before any tracing wrapper is installed.
_parse = H.parse
_hook = H.count_syt_hook
_legendre = H.eval_ratio_legendre
_degree_ratio = H.degree_ratio
_multinomial = H.multinomial_ratio
RectShape = H.RectShape


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Strata:
    """Stratified draws: one item per round from each of ``quota`` equal
    slices of ``items`` (sorted by cost)."""

    GOLDEN = 0.6180339887498949

    def __init__(self, rng: random.Random, items: list, quota: int) -> None:
        self.items, self.quota = items, quota
        self.offsets = [rng.random() for _ in range(quota)]
        self.round = 0

    def draw(self) -> list:
        step = self.round * self.GOLDEN
        self.round += 1
        n = len(self.items)
        return [self.items[int((i + (offset + step) % 1.0) * n / self.quota)] for i, offset in enumerate(self.offsets)]


def direct(num: tuple[int, ...], den: tuple[int, ...]) -> int:
    """Plain factorial-ratio evaluation, used as a check reference."""
    return math.prod(math.factorial(m) for m in num) // math.prod(math.factorial(m) for m in den)


def factor_degree(factor) -> int:
    """Reference degree of one canonical factor: hook-length count for
    type I, the prime-exponent evaluator for II and III, 2 for IV."""
    if factor.kind == "I":
        k, s = factor.params
        return _hook(RectShape(min(k, s - k), max(k, s - k)))
    if factor.kind == "IV":
        return 2
    return _legendre(_degree_ratio(factor))


# LOG_FACTORIALS[n] = ln(1! * 2! * ... * n!)
LOG_FACTORIALS = [0.0, *itertools.accumulate(math.lgamma(m + 1) for m in range(1, 300))]


def type_i_bits(k: int, s: int) -> int:
    """Bits of the unreduced numerator of I(k,s)'s degree ratio:
    1! ... (s-k-1)! * 1! ... (k-1)! * (k(s-k))!."""
    return int((LOG_FACTORIALS[s - k - 1] + LOG_FACTORIALS[k - 1] + math.lgamma(k * (s - k) + 1)) / math.log(2))


def reference_degree(space) -> int:
    value = math.prod(factor_degree(f) for f in space.factors)
    if len(space.factors) > 1:
        value *= _legendre(_multinomial([f.dimension for f in space.factors]))
    return value


def load_pool(name: str) -> dict[str, list[list[str]]]:
    """Pool items by stratum, each stratum sorted by its cost column."""
    strata: dict[str, list[list[str]]] = {}
    with open(DATA / f"{name}.tsv", encoding="utf-8") as handle:
        for line in handle:
            fields = line.rstrip("\n").split("\t")
            strata.setdefault(fields[0], []).append(fields)
    for items in strata.values():
        items.sort(key=lambda f: (int(f[1]), f[2:]))
    return strata


@dataclass(frozen=True)
class Op:
    kind: str  # output format (report, scan), stratum (cli) or call (oracle)
    args: tuple
    digest: str = "-"  # "-": no recorded bytes (it failed when recorded)


@dataclass
class Verdict:
    verified: bool  # succeeded and matched every reference
    wrong: bool  # disagreed with a reference, or failed where the recorded run did not
    defect: bool = False  # failed as the recorded run did: a known defect, its degree checked


class Workload:
    name = ""
    quotas: dict[str, int] = {}
    trace_rounds = 1
    setup_table: str | None = None  # table the set-up probes resolve

    def __init__(self) -> None:
        self.pool = load_pool(self.name)

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        strata = [Strata(rng, self.pool[stratum], quota) for stratum, quota in self.quotas.items()]
        while True:
            ops = [self.make_op(item) for stratum in strata for item in stratum.draw()]
            rng.shuffle(ops)
            yield ops

    def make_op(self, item: list[str]) -> Op:
        raise NotImplementedError

    def prepare(self) -> None:
        """Resolve the refinement tables the operations use."""

    def execute(self, op: Op, traced=None) -> tuple[bool, object]:
        raise NotImplementedError

    def compact(self, outcome):
        """The outcome as kept until the checks: the printed output,
        which comes last, reduced to its digest."""
        *rest, printed = outcome
        if isinstance(printed, str):
            printed = printed.encode()
        return (*rest, None if printed is None else digest(printed))

    def check(self, op: Op, ok: bool, outcome) -> Verdict:
        raise NotImplementedError


def _bytes_verdict(op: Op, ok: bool, printed: str | None, degrees_ok: bool) -> Verdict:
    if not degrees_ok:
        return Verdict(False, True)
    if not ok:
        return Verdict(False, op.digest != "-", op.digest == "-")
    if op.digest != "-" and printed != op.digest:
        return Verdict(False, True)
    return Verdict(True, False)


class ReportWorkload(Workload):
    """parse -> report -> render, in process."""

    name = "report"
    quotas = {"small": 50, "product": 25, "medium": 17, "large": 8}
    trace_rounds = 2

    def __init__(self) -> None:
        super().__init__()
        self.references: dict[str, int] = {}

    def make_op(self, item):
        _, _, fmt, text, recorded = item
        return Op(fmt, (text,), recorded)

    def prepare(self) -> None:
        self.table = H.RefinementTable.resolve(None)

    def execute(self, op, traced=None):
        rep = None
        try:
            rep = H.report(H.parse(op.args[0]), self.table)
            return True, (rep.degree, getattr(H.render, f"render_report_{op.kind}")(rep))
        except Exception:  # a failed operation is a measured outcome
            return False, (None if rep is None else rep.degree, None)

    def check(self, op, ok, outcome):
        degree, printed = outcome
        text = op.args[0]
        if text not in self.references:
            self.references[text] = reference_degree(_parse(text))
        return _bytes_verdict(op, ok, printed, degree == self.references[text])


class ScanWorkload(Workload):
    """threshold_scan -> render, in process; some scans use the large
    refinement table."""

    name = "scan"
    quotas = {"small": 14, "medium": 5, "large": 1}
    trace_rounds = 2
    setup_table = TABLE_PATH

    def __init__(self) -> None:
        super().__init__()
        self.references: dict[tuple, int] = {}

    def make_op(self, item):
        _, _, fmt, family, start, stop, table, recorded = item
        name, _, k = family.partition(":k=")
        return Op(fmt, (name, int(start), int(stop), int(k) if k else None, table), recorded)

    def prepare(self) -> None:
        self.tables = {
            "builtin": H.RefinementTable.resolve(None),
            "large": H.RefinementTable.resolve(str(ROOT / TABLE_PATH)),
            "none": None,
        }

    def execute(self, op, traced=None):
        family, start, stop, k, table = op.args
        scan = None
        try:
            scan = H.threshold_scan(family, start, stop, k=k, table=self.tables[table])
            return True, ([row.degree for row in scan.rows], getattr(H.render, f"render_scan_{op.kind}")(scan))
        except Exception:  # a failed operation is a measured outcome
            return False, (None if scan is None else [row.degree for row in scan.rows], None)

    def reference(self, family: str, k: int | None, s: int) -> int:
        key = (family, k, s)
        if key not in self.references:
            self.references[key] = reference_degree(_parse(f"I({k},{s})" if k else f"{family}({s})"))
        return self.references[key]

    def check(self, op, ok, outcome):
        degrees, printed = outcome
        family, start, stop, k, _ = op.args
        expected = [self.reference(family, k, s) for s in range(start, stop + 1)]
        return _bytes_verdict(op, ok, printed, degrees == expected)


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("ATLAS_REFINEMENTS", "BENCH_TRACE_OUT")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def table_cost(table_env: bool, argv: list[str]) -> int:
    """0: no refinement table, 1: the built-in one, 2: the large one."""
    if "--no-refinements" in argv:
        return 0
    return 2 if table_env or "--refinements" in argv else 1


class CliWorkload(Workload):
    """Sequential ``python -m hssatlas`` processes."""

    name = "cli"
    # A quota equal to the stratum's size runs every README example once
    # per round, verbatim.
    quotas = {"readme": 6, "check": 7, "table": 7, "compute": 30}
    setup_table = TABLE_PATH

    def __init__(self) -> None:
        super().__init__()
        # The pool's second column is the ATLAS_REFINEMENTS flag, not a
        # cost.  Loading the large table costs more than anything else a
        # small op does, so order each stratum by the table it loads.
        for items in self.pool.values():
            items.sort(key=lambda f: (table_cost(f[1] == "1", json.loads(f[4])), f[4]))

    def make_op(self, item):
        stratum, env, code, recorded, argv = item
        return Op(stratum, (tuple(json.loads(argv)), env == "1", int(code)), recorded)

    def execute(self, op, traced=None):
        argv, table_env, _ = op.args
        env = cli_env()
        if table_env:
            env["ATLAS_REFINEMENTS"] = TABLE_PATH
        if traced is None:
            command = [sys.executable, "-m", "hssatlas", *argv]
        else:
            env["BENCH_TRACE_OUT"] = str(traced)
            command = [sys.executable, str(BENCH / "launch.py"), *argv]
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, check=False)
        return proc.returncode == 0, (proc.returncode, proc.stdout)

    def check(self, op, ok, outcome):
        code, printed = outcome
        if not ok:
            recorded = op.args[2]
            return Verdict(False, code != recorded, code == recorded)
        if op.digest != "-" and printed != op.digest:
            return Verdict(False, True)
        return Verdict(True, False)


# The isomorphism probe's verdicts when the benchmark was made.
ISOMORPHISM_MISMATCHES = {("III(2)", "IV(3)")}
ISOMORPHISM_PAIRS = 6


class OracleWorkload(Workload):
    """The cross-check layer alone: tableau counters, the prime-exponent
    evaluator, the type I check and the isomorphism probe."""

    name = "oracle"
    # Every round enumerates the 20-cell rectangles, the largest shapes
    # below them and each shape of 12 to 18 cells once, so that every
    # round costs about the same; the seed draws the other inputs, 167 a
    # round, so that 4x5 takes at most a third of a round.  They are
    # large enough to take about a millisecond or more, so that the
    # median lands on arithmetic rather than on call overhead.
    BRUTE_FIXED = ((4, 5), (2, 10), (1, 20), (3, 6), (4, 4))
    BRUTE_DRAWN = tuple((r, c) for r in range(2, 5) for c in range(r, 10) if 12 <= r * c <= 18 and (r, c) != (3, 6))
    RATIO_FAMILIES = (("I", 36, (40, 240)), ("II", 12, (20, 150)), ("III", 12, (20, 140)))

    def __init__(self) -> None:
        self.references: dict[tuple, object] = {}
        shapes = [(r, c) for r in range(1, 101) for c in range(r, 101) if r * c >= 400]
        self.hook_shapes = sorted(shapes, key=lambda rc: (rc[0] * rc[1], rc))
        # Type I inputs sorted by the size of their unreduced ratio, which
        # sets their cost far more than s alone (k = 1 is cheap at any s).
        # The ratio is symmetric in k <-> s - k, so k <= s / 2 covers the
        # prime-exponent inputs.
        self.type_i = sorted(((k, s) for s in range(10, 161) for k in range(1, s)), key=lambda ks: (type_i_bits(*ks), ks))
        self.ratio_params = {
            family: sorted(((k, s) for s in range(lo, hi + 1) for k in range(1, s // 2 + 1)), key=lambda ks: (type_i_bits(*ks), ks))
            if family == "I" else [(s,) for s in range(lo, hi + 1)]
            for family, _, (lo, hi) in self.RATIO_FAMILIES
        }

    def rounds(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        brute = Strata(rng, sorted(self.BRUTE_DRAWN, key=lambda rc: (rc[0] * rc[1], rc)), len(self.BRUTE_DRAWN))
        hook = Strata(rng, self.hook_shapes, 50)
        ratios = [(family, Strata(rng, self.ratio_params[family], quota)) for family, quota, _ in self.RATIO_FAMILIES]
        type_i = Strata(rng, self.type_i, 50)
        while True:
            ops = [Op("brute", shape) for shape in self.BRUTE_FIXED]
            ops += [Op("brute", shape) for shape in brute.draw()]
            ops += [Op("hook", shape) for shape in hook.draw()]
            for family, params in ratios:
                for drawn in params.draw():
                    factor = H.type_i(*drawn) if family == "I" else H.IrreducibleSpace(family, drawn)
                    ratio = _degree_ratio(factor)
                    ops.append(Op("legendre", (ratio.numerator_factorials, ratio.denominator_factorials)))
            ops += [Op("check_type_i", ks) for ks in type_i.draw()]
            ops += [Op("isomorphisms", ()) for _ in range(10)]
            rng.shuffle(ops)
            yield ops

    def execute(self, op, traced=None):
        try:
            if op.kind == "brute":
                return True, H.oracle.count_syt_bruteforce(RectShape(*op.args))
            if op.kind == "hook":
                return True, H.oracle.count_syt_hook(RectShape(*op.args))
            if op.kind == "legendre":
                return True, H.arith.eval_ratio_legendre(H.FactorialRatio(*op.args))
            if op.kind == "check_type_i":
                return True, H.oracle.check_type_i_degree(*op.args)
            diagnostics = H.oracle.isomorphism_diagnostics()
            return True, (len(diagnostics), {(d.left, d.right) for d in diagnostics if d.verdict != "Pass"})
        except Exception:  # a failed operation is a measured outcome
            return False, None

    def compact(self, outcome):
        return outcome

    def expected(self, op: Op):
        key = (op.kind, op.args)
        if key not in self.references:
            if op.kind == "brute":
                value = _hook(RectShape(*op.args))
            elif op.kind == "hook":
                r, c = op.args
                ratio = _degree_ratio(H.type_i(r, r + c))
                value = direct(ratio.numerator_factorials, ratio.denominator_factorials)
            elif op.kind == "legendre":
                value = direct(*op.args)
            elif op.kind == "check_type_i":
                value = "Pass"
            else:
                value = (ISOMORPHISM_PAIRS, ISOMORPHISM_MISMATCHES)
            self.references[key] = value
        return self.references[key]

    def check(self, op, ok, outcome):
        if not ok:
            return Verdict(False, True)
        right = outcome == self.expected(op)
        return Verdict(right, not right)


WORKLOADS = {w.name: w for w in (CliWorkload, ReportWorkload, ScanWorkload, OracleWorkload)}
