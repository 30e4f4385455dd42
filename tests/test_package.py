import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hssatlas


def test_every_public_name_is_its_home_modules_object():
    for name in hssatlas.__all__:
        home = importlib.import_module(f"hssatlas.{hssatlas._HOME[name]}")
        assert getattr(hssatlas, name) is getattr(home, name), name


def test_star_import_and_dir_cover_the_public_names():
    namespace: dict = {}
    exec("from hssatlas import *", namespace)
    assert set(hssatlas.__all__) <= set(namespace)
    assert set(hssatlas.__all__) <= set(dir(hssatlas))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'hssatlas' has no attribute 'no_such_name'$"):
        getattr(hssatlas, "no_such_name")
    assert not hasattr(hssatlas, "run_checks")  # defined in oracle, but not exported


def test_version_and_submodule_import_are_unchanged():
    assert hssatlas.__version__ == "0.1.0"
    from hssatlas import render

    assert render is importlib.import_module("hssatlas.render")
    assert callable(render.render_report_human)


MODULES = ("arith", "atlas", "cli", "invariants", "oracle", "render", "spaces")


def test_each_module_loads_on_first_access_through_the_package():
    """In a fresh interpreter, ``import hssatlas`` loads no module, and
    ``hssatlas.arith`` loads arith alone; every module is reachable so."""
    probe = (
        "import sys, hssatlas\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hssatlas.'))\n"
        "print([loaded(), hssatlas.arith.__name__, loaded()])\n"
        f"print([getattr(hssatlas, m) is sys.modules['hssatlas.' + m] for m in {MODULES}])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(Path(hssatlas.__file__).resolve().parent.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = map(ast.literal_eval, proc.stdout.splitlines())
    assert first == [[], "hssatlas.arith", ["hssatlas.arith"]]
    assert second == [True] * len(MODULES)
