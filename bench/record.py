"""Regenerate the benchmark's input pools and their reference digests.

    python3 bench/record.py

Writes, under bench/data/:

* ``refinements.txt`` -- a large, valid refinement table (the built-in
  records plus hundreds of clause-(ii) brackets);
* ``report.tsv``, ``scan.tsv``, ``cli.tsv`` -- the input pools the
  ``report``, ``scan`` and ``cli`` workloads draw from, each item with a
  digest of the bytes the program printed when the pool was recorded.

The pools are drawn once from the full legitimate parameter ranges with
a fixed seed; a benchmark run picks its inputs from them with its own
``--seed``.  An item that failed when recorded (a degree over 4,300
digits, the README ``table I:k=2 2..14`` example) is stored with digest
``-`` and exit code of that run: the benchmark still counts it as a
failure, and checks only its degree.  Re-record only when the program's
output bytes change on purpose.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hssatlas  # noqa: E402
from hssatlas import render  # noqa: E402
from workloads import DATA, TABLE_PATH, cli_env, digest  # noqa: E402

POOL_SEED = 1411_1586
FORMATS = ("human", "json", "csv", "latex")

README_COMMANDS = (
    ["compute", "I(2,5)"],
    ["compute", "CP(1) x CP(2)", "--format", "json"],
    ["compute", "II(6)", "--format", "latex"],
    ["table", "I:k=2", "2..14"],
    ["table", "III", "1..10", "--format", "csv"],
    ["check"],
)


def skewed(rng: random.Random, lo: int, hi: int, power: float = 2.0) -> int:
    """Integer in [lo, hi], skewed toward lo."""
    return lo + int((hi - lo + 1) * rng.random() ** power)


# --- spaces ----------------------------------------------------------------


def single_text(rng: random.Random, caps: dict[str, tuple[int, int]]) -> str:
    """One irreducible factor.  caps maps a family to its (lo, hi) range
    of s (of n for CP); type I labels k may be non-canonical."""
    family = rng.choice(sorted(caps))
    lo, hi = caps[family]
    if family == "I":
        s = skewed(rng, lo, hi, 1.5)
        return f"I({rng.randint(1, s - 1)},{s})"
    n = skewed(rng, lo, hi, 1.5)
    return f"{family}({n})"


SMALL = {"I": (2, 40), "CP": (1, 40), "II": (2, 30), "III": (1, 30), "IV": (1, 500)}
FACTOR = {"I": (2, 16), "CP": (1, 12), "II": (2, 10), "III": (1, 10), "IV": (1, 40)}
MEDIUM = {"I": (41, 100), "II": (31, 80), "III": (31, 80)}
LARGE = {"I": (101, 240), "II": (81, 150), "III": (81, 140)}


def product_text(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randint(2, 4)):
        atom = single_text(rng, FACTOR)
        if rng.random() < 0.25:
            atom = f"{atom}^{rng.randint(2, 4)}"
        parts.append(atom)
    if rng.random() < 0.2:
        parts = [f"({' x '.join(parts[:2])})^{rng.randint(2, 3)}", *parts[2:]]
    return rng.choice((" x ", " * ", "*", " x ")).join(parts)


def cost_bits(space) -> int:
    """Bits of every unreduced numerator the degree evaluation forms: a
    size proxy that orders pool items by cost."""
    args = []
    for f in space.factors:
        if f.kind != "IV":
            args.extend(hssatlas.degree_ratio(f).numerator_factorials)
    if len(space.factors) > 1:
        args.extend(hssatlas.multinomial_ratio([f.dimension for f in space.factors]).numerator_factorials)
    return int(sum(math.lgamma(m + 1) for m in args) / math.log(2))


# --- pools -----------------------------------------------------------------


def record_report(rng: random.Random) -> list[str]:
    table = hssatlas.RefinementTable.builtin()
    plan = (("small", 1500, lambda: single_text(rng, SMALL)), ("product", 800, lambda: product_text(rng)),
            ("medium", 400, lambda: single_text(rng, MEDIUM)), ("large", 240, lambda: single_text(rng, LARGE)))
    lines = []
    for stratum, count, draw in plan:
        seen = set()
        while len(seen) < count:
            text, fmt = draw(), rng.choice(FORMATS)
            if (text, fmt) in seen:
                continue
            seen.add((text, fmt))
            space = hssatlas.parse(text)
            rep = hssatlas.report(space, table)
            try:
                out = digest(getattr(render, f"render_report_{fmt}")(rep).encode())
            except ValueError:
                out = "-"
            lines.append(f"{stratum}\t{cost_bits(space)}\t{fmt}\t{text}\t{out}")
    return lines


def scan_item(rng: random.Random, stratum: str) -> tuple[str, int, int]:
    """(family, start, stop) with 10..40 rows; family is 'I:k=<k>' or a
    single-parameter family."""
    family = rng.choices(("I", "II", "III", "IV"), weights=(7, 1, 1, 1 if stratum != "large" else 0))[0]
    if family == "I":
        family = f"I:k={rng.choices(range(1, 7), weights=(3, 3, 2, 2, 1, 1))[0]}"
    ranges = {
        "small": {"I": (12, 60), "II": (12, 40), "III": (11, 40), "IV": (11, 200)},
        "medium": {"I": (61, 130), "II": (41, 80), "III": (41, 80), "IV": (201, 600)},
        "large": {"I": (131, 220), "II": (81, 100), "III": (81, 100)},
    }[stratum][family.split(":")[0]]
    stop = rng.randint(*ranges)
    least = int(family[4:]) + 1 if family.startswith("I:") else (2 if family == "II" else 1)
    start = max(least, stop - rng.randint(10, 40) + 1)
    return family, start, stop


def record_scan(rng: random.Random) -> list[str]:
    tables = {"builtin": hssatlas.RefinementTable.builtin(), "large": hssatlas.RefinementTable.load(DATA / "refinements.txt"), "none": None}
    lines = []
    for stratum, count in (("small", 240), ("medium", 120), ("large", 60)):
        seen = set()
        while len(seen) < count:
            family, start, stop = scan_item(rng, stratum)
            lookups = family in ("I:k=1", "IV")
            table = rng.choices(("builtin", "large", "none"), weights=(3, 5, 1) if lookups else (6, 2, 1))[0]
            fmt = rng.choice(FORMATS)
            key = (family, start, stop, table, fmt)
            if key in seen:
                continue
            seen.add(key)
            name, _, k = family.partition(":k=")
            scan = hssatlas.threshold_scan(name, start, stop, k=int(k) if k else None, table=tables[table])
            try:
                out = digest(getattr(render, f"render_scan_{fmt}")(scan).encode())
            except ValueError:
                out = "-"
            cost = sum(cost_bits(hssatlas.parse(f"I({k},{s})" if k else f"{name}({s})")) for s in range(start, stop + 1))
            lines.append(f"{stratum}\t{cost}\t{fmt}\t{family}\t{start}\t{stop}\t{table}\t{out}")
    return lines


def run_cli(argv: list[str], table_env: bool) -> tuple[int, bytes]:
    env = cli_env()
    if table_env:
        env["ATLAS_REFINEMENTS"] = TABLE_PATH
    proc = subprocess.run([sys.executable, "-m", "hssatlas", *argv], cwd=ROOT, env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout


def refinement_args(rng: random.Random) -> tuple[list[str], bool]:
    """Which table a CLI op uses: built-in, --refinements, the
    ATLAS_REFINEMENTS variable, or none."""
    choice = rng.choices(("builtin", "flag", "env", "off"), weights=(4, 3, 3, 1))[0]
    if choice == "flag":
        return ["--refinements", TABLE_PATH], False
    if choice == "off":
        return ["--no-refinements"], False
    return [], choice == "env"


def record_cli(rng: random.Random) -> list[str]:
    items: list[tuple[str, list[str], bool]] = [("readme", list(argv), False) for argv in README_COMMANDS]
    items += [("check", ["check", "--format", fmt], False) for fmt in FORMATS]
    cli_small = {"I": (2, 60), "CP": (1, 60), "II": (2, 40), "III": (1, 40), "IV": (1, 600)}
    seen = set()
    while len(seen) < 300:
        text = single_text(rng, cli_small) if rng.random() < 0.75 else product_text(rng)
        extra, env = refinement_args(rng)
        argv = ["compute", text, "--format", rng.choice(FORMATS), *extra]
        if (tuple(argv), env) not in seen:
            seen.add((tuple(argv), env))
            items.append(("compute", argv, env))
    seen = set()
    while len(seen) < 100:
        family = rng.choice(("I:k=1", "I:k=2", "I:k=3", "I:k=4", "II", "III", "IV"))
        least = int(family[4:]) + 1 if family.startswith("I:") else (2 if family == "II" else 1)
        start = rng.randint(least, 28 if family != "IV" else 400)
        extra, env = refinement_args(rng)
        argv = ["table", family, f"{start}..{start + rng.randint(0, 12)}", "--format", rng.choice(FORMATS), *extra]
        if (tuple(argv), env) not in seen:
            seen.add((tuple(argv), env))
            items.append(("table", argv, env))
    lines = []
    for stratum, argv, env in items:
        code, out = run_cli(argv, env)
        lines.append(f"{stratum}\t{int(env)}\t{code}\t{digest(out) if code == 0 else '-'}\t{json.dumps(argv)}")
    return lines


def refinement_table(rng: random.Random) -> list[str]:
    """Built-in records plus clause-(ii) brackets [n+1, 2n+1] for
    IV(s) and CP^1 x CP^m, in seeded order."""
    builtin = (ROOT / "src" / "hssatlas" / "data" / "refinements.txt").read_text("utf-8").splitlines()
    # CP^m stays small: validating a record evaluates its degree, and
    # CP^m's unreduced factorial ratio grows like the type I one.
    records = [f"IV({s}) | [{s + 1},{2 * s + 1}] | generated bracket; full clause (ii) range" for s in rng.sample(range(3, 1001), 380)]
    records += [
        f"I(1,2) x I(1,{m + 1}) | [{m + 2},{2 * m + 3}] | generated bracket; full clause (ii) range"
        for m in rng.sample(range(2, 62), 60)
    ]
    rng.shuffle(records)
    header = ["# Benchmark refinement table, written by bench/record.py.", "#"]
    return header + [line for line in builtin if line and not line.startswith("#")] + records


def main() -> None:
    rng = random.Random(POOL_SEED)
    DATA.mkdir(exist_ok=True)
    (DATA / "refinements.txt").write_text("\n".join(refinement_table(rng)) + "\n", encoding="utf-8")
    hssatlas.RefinementTable.load(DATA / "refinements.txt")  # must validate
    for name, make in (("report", record_report), ("scan", record_scan), ("cli", record_cli)):
        lines = make(rng)
        (DATA / f"{name}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{name}: {len(lines)} items", file=sys.stderr)


if __name__ == "__main__":
    main()
