"""Exact minimal-atlas invariants for compact Hermitian symmetric spaces.

Parse a product of the four classical families (or projective-space
sugar), then compute -- all in exact integer arithmetic -- the degree of
its canonical projective embedding (also its symplectic volume, in
units of pi^n/n!), its Gamma invariant, and the resulting
classification of the minimal number of Darboux charts S_B.

Importing the package loads none of its modules: each public name, and
each module (``hssatlas.arith`` for ``help``), is imported on first use
(PEP 562), so a process pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public API: each name and the module that defines it.
_HOME = {
    name: module
    for module, names in {
        "arith": "FactorialRatio NonIntegralRatio eval_ratio_direct eval_ratio_legendre",
        "atlas": "CLAUSE_EXACT CLAUSE_RANGE MAX_SCAN_ROWS Refinement RefinementTable "
        "Report SBResult ScanResult ScanRow classify report threshold_scan",
        "invariants": "degree degree_ratio gamma gromov_width_units multinomial_ratio",
        "oracle": "BRUTE_FORCE_CELL_LIMIT Diagnostic RectShape ShapeTooLarge "
        "check_type_i_degree count_syt_bruteforce count_syt_hook isomorphism_diagnostics",
        "spaces": "EmptyProduct InvalidParams IrreducibleSpace SpaceExpr SpaceSyntaxError parse "
        "projective_space type_i type_ii type_iii type_iv",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)

_MODULES = {*_HOME.values(), "cli", "render"}


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")  # which binds it here too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
