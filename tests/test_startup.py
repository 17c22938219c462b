"""Start-up: what a fresh process runs, and the public namespace it sees.

Six modules are registered at import and run on first attribute access.
The rest of the suite imports everything up front, so each test here runs
its checks in a fresh interpreter, where a cold-path mistake shows.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import gromov4

PACKAGE = Path(gromov4.__file__).resolve().parent
LAZY = ("fibersum", "model_io", "report", "spherical", "structure", "torus_series")


def fresh(code: str):
    """Run code in a new interpreter that imports this gromov4; returns the
    JSON value of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_public_namespace_resolves_in_a_fresh_process():
    got = fresh(
        """
        import json, gromov4
        names = list(gromov4.__all__)
        missing = [n for n in names if getattr(gromov4, n, None) is None]
        listed = set(dir(gromov4))
        not_listed = [n for n in names if n not in listed]
        same = gromov4.enumerate_decompositions is gromov4.structure.enumerate_decompositions
        star = {}
        exec("from gromov4 import *", star)
        print(json.dumps([missing, not_listed, same, sorted(set(names) - set(star))]))
        """
    )
    assert got == [[], [], True, []]


def test_public_names_are_the_exports_of_their_home_modules():
    # __all__ is derived from what the package binds, so a helper import
    # there would leak into it.  Each name has one home: a module that
    # binds it to the same object and, for a class or a function, defines
    # it.  A lazy name's home is its _LAZY entry, an eager name's is not lazy.
    names = gromov4.__all__
    assert len(names) == len(set(names))
    for name in names:
        value = getattr(gromov4, name)
        assert not isinstance(value, types.ModuleType), name
        homes = [
            m
            for m in ("errors", "invariants", "lattice", *LAZY)
            if getattr(importlib.import_module(f"gromov4.{m}"), name, None) is value
            and getattr(value, "__module__", f"gromov4.{m}") == f"gromov4.{m}"
        ]
        assert len(homes) == 1, (name, homes)
        assert gromov4._HOME.get(name, homes[0]) == homes[0], name
        assert (homes[0] in LAZY) == (name in gromov4._HOME), name


def test_running_a_lazy_module_binds_its_names_in_a_fresh_process():
    # Bound when the module runs, however it is reached, so a tool that
    # swaps a module's functions finds the package's names bound already.
    got = fresh(
        """
        import json, gromov4
        before = "enumerate_decompositions" in vars(gromov4)
        gromov4.structure.Component
        print(json.dumps([before, "enumerate_decompositions" in vars(gromov4)]))
        """
    )
    assert got == [False, True]


def test_unknown_name_is_an_attribute_error_in_a_fresh_process():
    got = fresh(
        """
        import json, gromov4
        try:
            gromov4.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
        """
    )
    assert got == "module 'gromov4' has no attribute 'no_such_name'"


def test_per_class_call_leaves_the_lazy_modules_unexecuted():
    # Every submodule is in sys.modules once gromov4.cli is imported (a
    # tracer looks its modules up there), but a per-class call on a preset
    # runs none of the six lazy ones.
    submodules = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    got = fresh(
        """
        import json, sys, types
        import gromov4.cli
        registered = sorted(m[8:] for m in sys.modules if m.startswith("gromov4."))
        code = gromov4.cli.run(["k", "--manifold", "cp2", "--class", "3L"])
        run = sorted(m[8:] for m, mod in sys.modules.items()
                     if m.startswith("gromov4.") and type(mod) is types.ModuleType)
        print(json.dumps([registered, code, run]))
        """
    )
    registered, code, run = got
    assert registered == submodules
    assert code == 0
    assert run == sorted(set(submodules) - set(LAZY))


MODEL_DOC = {
    "name": "custom",
    "basis": ["L", "E1"],
    "gram": [[1, 0], [0, -1]],
    "K": [-3, 1],
    "area": ["3", "1/2"],
    "exceptional": ["E1"],
    "sphere_table": [{"class": "L", "count": 1}, {"class": "L-E1", "count": 1}],
}


def test_no_call_imports_dataclasses_or_inspect(tmp_path):
    # dataclasses also loads inspect, ast, dis and tokenize at every call's
    # start-up; no record class of the package needs them.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    calls = [
        ["k", "--manifold", "cp2", "--class", "3L"],
        ["reduce", "--manifold", "cp2_blowup(1)", "--class", "L+2E1"],
        ["classify-neg", "--manifold", "cp2_blowup(1)", "--class", "E1"],
        ["lightcone", "--manifold", "s2xs2", "--class", "A1", "--class", "A2"],
        ["decomp", "--manifold", "cp2_blowup(2)", "--class", "2L"],
        ["gr", "--manifold", "cp2", "--class", "3L"],
        ["gr-s", "--manifold", "cp2_blowup(2)", "--class", "2L"],
        ["gr-tori", "--tori", "+0,-1:2", "--k", "3"],
        ["verify", "--manifold", "cp2_blowup(1)", "--mode", "good",
         "--class", "L", "--class", "E1", "--points", "2"],
        ["verify", "--mode", "kmin", "--n", "2"],
        ["fibersum", "--n", "3"],
        ["k", "--manifold", str(model), "--class", "L-E1"],
    ]
    got = fresh(
        f"""
        import json, sys
        heavy = ("dataclasses", "inspect")
        import gromov4
        on_import = [m for m in heavy if m in sys.modules]
        import gromov4.cli
        codes = [gromov4.cli.run(argv) for argv in {calls!r}]
        print(json.dumps([on_import, codes, [m for m in heavy if m in sys.modules]]))
        """
    )
    assert got == [[], [0] * len(calls), []]


def test_no_module_imports_typing():
    # Nothing the package defines needs typing: its records are namedtuples
    # and its annotations name collections.abc.  The source is read, since a
    # site hook may have loaded typing before any test runs.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.partition(".")[0] == "typing"]
    assert found == []
