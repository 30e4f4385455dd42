"""End-to-end acceptance gate.

Ten numbered criteria, each printing one `[criterion NN] PASS/FAIL`
line (run with ``pytest -s`` to see them live).  Everything is exact
integer arithmetic -- every comparison below is equality, no tolerance.
"""

import io
import json
import math
from contextlib import redirect_stdout
from itertools import combinations, combinations_with_replacement

from hssatlas import cli
from hssatlas.arith import FactorialRatio, eval_ratio_direct, eval_ratio_legendre
from hssatlas.atlas import RefinementTable, classify, threshold_scan
from hssatlas.invariants import degree, degree_ratio, gamma, multinomial_ratio
from hssatlas.oracle import (
    RectShape,
    count_syt_hook,
    isomorphism_diagnostics,
)
from hssatlas.spaces import SpaceExpr, parse, type_i, type_ii, type_iii, type_iv


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# Space sweeps shared between the criteria that generate them and the
# cross-path criterion 7, which re-checks every ratio they produced.


def _thresholds_sweep() -> list:
    atoms = [type_i(2, s) for s in range(4, 15)]
    for k in (3, 4, 5):
        atoms.extend(type_i(k, s) for s in range(2 * k, 15))
    atoms.extend(type_ii(s) for s in range(2, 11))
    atoms.extend(type_iv(s) for s in range(3, 21))
    return atoms


def _type_iii_sweep() -> list:
    return [type_iii(s) for s in range(1, 11)]


def _refined_spaces() -> list[SpaceExpr]:
    return [parse("I(2,4)"), parse("I(2,5)"), parse("CP(1) x CP(1)")]


def _two_factor_products() -> list[SpaceExpr]:
    pool = [type_i(k, s) for s in range(2, 9) for k in range(1, s // 2 + 1)]
    pool += [type_ii(s) for s in range(2, 7)]
    pool += [type_iii(s) for s in range(1, 6)]
    pool += [type_iv(s) for s in range(3, 9)]
    return [
        SpaceExpr((a, b))
        for a, b in combinations_with_replacement(pool, 2)
        if a.dimension + b.dimension <= 12
    ]


def _rectangle_sweep() -> list:
    return [type_i(k, s) for s in range(2, 15) for k in range(1, s)]


def test_criterion_01_projective_spaces_refine_to_n_plus_1():
    table = RefinementTable.builtin()
    ok = True
    for n in range(1, 11):
        sb = classify(parse(f"CP({n})"), table)
        ok = ok and sb.kind == "Range" and sb.lower == n + 1 and sb.upper == 2 * n + 1
        ok = ok and sb.refinement is not None and sb.refinement.values == (n + 1,)
    _criterion(1, ok, "classify(CP(n)) carries the refined value n+1 for n = 1..10")


def test_criterion_02_family_thresholds():
    checks = []
    scan = threshold_scan("I", 4, 14, k=2)
    checks.append(scan.first_exact == 7)
    for k in (3, 4, 5):
        scan = threshold_scan("I", 2 * k, 14, k=k)
        checks.append(scan.first_exact == 2 * k)
        checks.append(all(row.sb.clause == "Thm1(i)" for row in scan.rows))
    checks.append(threshold_scan("II", 2, 10).first_exact == 6)
    scan = threshold_scan("IV", 3, 20)
    checks.append(scan.first_exact is None)
    checks.append(all(row.sb.clause == "Thm1(ii)" for row in scan.rows))
    _criterion(
        2,
        all(checks),
        "exact clause first fires at s=7 (I, k=2), always (I, k=3,4,5), s=6 (II), never (IV)",
    )


def test_criterion_03_type_iii_threshold_and_footnote():
    scan = threshold_scan("III", 1, 10)
    by_param = {row.param: row for row in scan.rows}
    ok = scan.first_exact == 5
    ok = ok and by_param[4].degree == 12 and by_param[4].degree < 2 * by_param[4].n == 20
    ok = ok and by_param[5].degree == 286 and by_param[5].degree >= 2 * by_param[5].n == 30
    ok = ok and any("s >= 5 vs s >= 6" in note for note in scan.footnotes)
    _criterion(3, ok, "type III first exact at s=5 (12 < 20, 286 >= 30), discrepancy footnoted")


def test_criterion_04_refinements_sit_strictly_inside_the_brackets():
    table = RefinementTable.builtin()
    expected = {
        "I(2,4)": ((5, 6), (5, 9)),
        "I(2,5)": ((7, 8, 9, 10), (7, 13)),
        "I(1,2) x I(1,2)": ((3, 4), (3, 5)),
    }
    ok = True
    for space in _refined_spaces():
        values, bounds = expected[space.render()]
        # recompute the bracket from scratch: degree by tableau count,
        # dimension by summing factor dimensions
        d = math.prod(
            count_syt_hook(RectShape(f.params[0], f.params[1] - f.params[0]))
            for f in space.factors
        )
        if len(space.factors) > 1:
            d *= math.comb(space.dimension, space.factors[0].dimension)
        lower, upper = max(space.dimension + 1, d + 1), 2 * space.dimension + 1
        ok = ok and (lower, upper) == bounds
        sb = classify(space, table)
        ok = ok and (sb.lower, sb.upper) == bounds and sb.refinement.values == values
        ok = ok and set(values) < set(range(lower, upper + 1))  # strict subset
    _criterion(4, ok, "cited values {5,6}, {7..10}, {3,4} lie strictly inside [5,9], [7,13], [3,5]")


def test_criterion_05_two_factor_exceptions():
    products = _two_factor_products()
    range_keys = set()
    ok = bool(products)
    for product in products:
        a, b = product.factors
        n1, n2 = a.dimension, b.dimension
        d1, d2 = eval_ratio_direct(degree_ratio(a)), eval_ratio_direct(degree_ratio(b))
        d = degree(product)
        ok = ok and d == d1 * d2 * math.comb(n1 + n2, n1)
        sb = classify(product)
        ok = ok and (sb.kind == "Exact") == (d >= 2 * (n1 + n2))
        # the bracket survives exactly on products of projective spaces
        # (degree-1 factors) where one factor is a line or both are planes
        exceptional = d1 == d2 == 1 and (min(n1, n2) == 1 or (n1, n2) == (2, 2))
        ok = ok and (sb.kind == "Range") == exceptional
        if sb.kind == "Range":
            range_keys.add(product.render())
    ok = ok and {"I(1,2) x I(1,2)", "I(1,3) x I(1,3)", "I(1,2) x I(1,8)"} <= range_keys
    _criterion(
        5,
        ok,
        f"of {len(products)} products only the line-times-projective family and the plane "
        f"squared stay in the bracket ({len(range_keys)} canonical keys)",
    )


def test_criterion_06_degree_equals_tableau_counts(bruteforce_count):
    checked_brute = 0
    ok = True
    for atom in _rectangle_sweep():
        k, s = atom.params
        d = eval_ratio_direct(degree_ratio(atom))
        shape = RectShape(min(k, s - k), max(k, s - k))
        ok = ok and count_syt_hook(shape) == d
        if shape.cells <= 20:
            ok = ok and bruteforce_count(shape) == d
            checked_brute += 1
    spots = {(2, 2): 2, (2, 3): 5, (3, 3): 42, (4, 4): 24024}
    for (rows, cols), count in spots.items():
        ok = ok and bruteforce_count(RectShape(rows, cols)) == count
    _criterion(
        6,
        ok,
        f"degree(I(k,s)) matches the hook count for s <= 14 and the exhaustive count "
        f"on {checked_brute} cases with at most 20 cells",
    )


def _all_generated_ratios() -> set[FactorialRatio]:
    spaces: list = []
    spaces.extend(_thresholds_sweep())
    spaces.extend(_type_iii_sweep())
    spaces.extend(_refined_spaces())
    spaces.extend(_two_factor_products())
    spaces.extend(_rectangle_sweep())
    ratios: set[FactorialRatio] = set()
    for space in spaces:
        # bare factors keep their labelling: a SpaceExpr would rewrite I(k,s) to k <= s-k
        factors = space.factors if isinstance(space, SpaceExpr) else (space,)
        for factor in factors:
            ratios.add(degree_ratio(factor))
        if len(factors) > 1:
            ratios.add(multinomial_ratio(tuple(f.dimension for f in factors)))
    return ratios


def test_criterion_07_arithmetic_paths_agree():
    ratios = _all_generated_ratios()
    disagreements = sum(1 for r in ratios if eval_ratio_direct(r) != eval_ratio_legendre(r))
    ok = len(ratios) >= 100 and disagreements == 0
    _criterion(
        7,
        ok,
        f"direct and prime-exponent evaluation agree on all {len(ratios)} distinct ratios "
        "generated by criteria 2-6",
    )


def test_criterion_08_identity_suite():
    atoms = [type_i(k, s) for s in range(2, 15) for k in range(1, s)]
    atoms += [type_ii(s) for s in range(2, 13)]
    atoms += [type_iii(s) for s in range(1, 13)]
    atoms += [type_iv(s) for s in range(3, 21)]
    ok = True
    for atom in atoms:
        expr = SpaceExpr((atom,))
        ok = ok and gamma(expr) == degree(expr) + 1
        ratio = degree_ratio(atom)  # integrality: both paths divide exactly
        ok = ok and eval_ratio_legendre(ratio) == eval_ratio_direct(ratio)
    for s in range(2, 15):
        for k in range(1, s):
            mirrored = eval_ratio_direct(degree_ratio(type_i(s - k, s)))
            ok = ok and eval_ratio_direct(degree_ratio(type_i(k, s))) == mirrored
    pool = [type_i(k, s) for s in range(2, 9) for k in range(1, s // 2 + 1)]
    pool += [type_ii(s) for s in range(2, 6)]
    pool += [type_iii(s) for s in range(1, 5)]
    pool += [type_iv(s) for s in range(3, 7)]
    pairs = [
        (a, b) for a, b in combinations(pool, 2) if a.dimension + b.dimension <= 20
    ]
    for a, b in pairs:
        d = degree(SpaceExpr((a, b)))
        # the product formula in both raw factor orders (SpaceExpr sorts)
        for order in ((a, b), (b, a)):
            mixing = eval_ratio_direct(multinomial_ratio([f.dimension for f in order]))
            ok = ok and math.prod(eval_ratio_direct(degree_ratio(f)) for f in order) * mixing == d
        ok = ok and gamma(SpaceExpr((a, b))) == d + 1
    for a, b, c in combinations_with_replacement(pool[:8], 3):
        if a.dimension + b.dimension + c.dimension > 15:
            continue
        whole = degree(SpaceExpr((a, b, c)))
        grouped = (
            math.comb(a.dimension + b.dimension + c.dimension, c.dimension)
            * degree(SpaceExpr((a, b)))
            * eval_ratio_direct(degree_ratio(c))
        )
        ok = ok and whole == grouped
    _criterion(
        8,
        ok,
        f"gamma = degree + 1, k <-> s-k duality, reorder/associativity on {len(pairs)} pairs, "
        "all ratios integral",
    )


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def test_criterion_09_isomorphism_diagnostics():
    diags = isomorphism_diagnostics()
    by_pair = {(d.left, d.right): d for d in diags}
    expected_pass = [
        ("II(2)", "I(1,2)"),
        ("II(3)", "I(1,4)"),
        ("II(4)", "IV(6)"),
        ("III(1)", "I(1,2)"),
        ("IV(4)", "I(2,4)"),
    ]
    ok = len(diags) == 6
    for pair in expected_pass:
        ok = ok and by_pair[pair].verdict == "Pass" and by_pair[pair].dims_match
    mismatch = by_pair[("III(2)", "IV(3)")]
    ok = ok and mismatch.verdict == "Mismatch"
    ok = ok and (mismatch.degree_left, mismatch.degree_right) == (1, 2)
    ok = ok and sum(d.verdict == "Mismatch" for d in diags) == 1
    exit_code, _ = _run_cli(["check"])
    ok = ok and exit_code == 0
    _criterion(9, ok, "five isomorphisms pass, III(2) vs IV(3) mismatches 1 vs 2, check exits 0")


def test_criterion_10_cli_golden_output():
    code_first, first = _run_cli(["compute", "II(6)", "--format", "json"])
    code_second, second = _run_cli(["compute", "II(6)", "--format", "json"])
    obj = json.loads(first)
    ok = code_first == 0 and code_second == 0 and first == second
    ok = ok and obj["degree"] == "286" and obj["gamma"] == "287"
    ok = ok and obj["sb"] == {"kind": "Exact", "value": "287"}
    _criterion(10, ok, 'compute "II(6)" json: degree 286, gamma 287, S_B exact 287, byte-stable')
