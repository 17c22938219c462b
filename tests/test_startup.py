"""Start-up: what a fresh process runs, and the public namespace it sees.

Eight modules are registered at import and run on first attribute access,
and a call builds only its own command's parser.  The rest of the suite
imports everything up front, so each test here runs its checks in a fresh
interpreter, where a cold-path mistake shows.
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

import pytest

import gromov4
from gromov4.cli import run

PACKAGE = Path(gromov4.__file__).resolve().parent
LAZY = (
    "configurations", "fibersum", "invariants", "lattice", "model_io", "spherical", "structure",
    "torus_series",
)


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
    # dir() lists the lazy names without running their modules.
    got = fresh(
        """
        import json, sys, types, gromov4
        listed = set(dir(gromov4))
        ran = sorted(m for m, mod in sys.modules.items()
                     if m.startswith("gromov4.") and type(mod) is types.ModuleType)
        names = list(gromov4.__all__)
        missing = [n for n in names if getattr(gromov4, n, None) is None]
        not_listed = [n for n in names if n not in listed]
        same = gromov4.enumerate_decompositions is gromov4.structure.enumerate_decompositions
        star = {}
        exec("from gromov4 import *", star)
        print(json.dumps([ran, missing, not_listed, same, sorted(set(names) - set(star))]))
        """
    )
    assert got == [["gromov4.errors"], [], [], True, []]


def test_public_names_are_the_exports_of_their_home_modules():
    # __all__ is derived from what the package binds, so a helper import
    # there would leak into it.  Each name has one home: a module that
    # binds it to the same object and, for a class or a function, defines
    # it.  A lazy name's home is its _LAZY entry, an eager name's is not lazy.
    names = gromov4.__all__
    assert len(names) == len(set(names)) and set(names) <= set(dir(gromov4))
    for name in names:
        value = getattr(gromov4, name)
        assert not isinstance(value, types.ModuleType), name
        homes = [
            m
            for m in ("errors", *LAZY)
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
        gromov4.structure.Decomposition
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


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["k", "--manifold", "cp2", "--class", "3L"], ["cli", "errors", "invariants", "lattice"]),
        (
            ["lightcone", "--manifold", "cp2_blowup(2)", "--class", "L", "--class", "L-E1"],
            ["cli", "errors", "invariants", "lattice"],
        ),
        (["gr-tori", "--tori", "+0,-1:2", "--k", "3"], ["cli", "errors", "torus_series"]),
        (["fibersum", "--n", "3"], ["cli", "errors", "fibersum"]),
        (
            ["gr-s", "--manifold", "cp2", "--class", "2L"],
            ["cli", "errors", "lattice", "spherical", "structure"],
        ),
        (
            ["decomp", "--manifold", "s2xt2", "--class", "2B"],
            ["cli", "errors", "fibersum", "lattice", "structure", "torus_series"],
        ),
        (
            ["verify", "--mode", "kmin", "--n", "4"],
            [
                "cli", "configurations", "errors", "fibersum", "invariants", "lattice",
                "torus_series",
            ],
        ),
        (
            ["k", "--manifold", "MODEL", "--class", "L-E1"],
            ["cli", "errors", "invariants", "lattice", "model_io"],
        ),
    ],
    ids=[
        "k", "lightcone", "gr-tori", "fibersum", "gr-s", "decomp", "verify-kmin", "k-rational-file",
    ],
)
def test_a_call_runs_only_the_modules_its_command_reads(tmp_path, argv, runs):
    # Every submodule is in sys.modules once gromov4.cli is imported (a
    # tracer looks its modules up there), but a call runs only those its
    # command reads.  A lattice computes in integers, so no call here,
    # the model file's "p/q" areas included, imports fractions.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    argv = [str(model) if arg == "MODEL" else arg for arg in argv]
    submodules = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("__"))
    got = fresh(
        f"""
        import json, sys, types
        import gromov4.cli
        registered = sorted(m[8:] for m in sys.modules if m.startswith("gromov4."))
        code = gromov4.cli.run({argv!r})
        run = sorted(m[8:] for m, mod in sys.modules.items()
                     if m.startswith("gromov4.") and type(mod) is types.ModuleType)
        print(json.dumps([registered, code, run, "fractions" in sys.modules]))
        """
    )
    assert got == [submodules, 0, runs, False]


HELP = {
    ("--help",): """\
usage: gromov4 [-h] command ...

Command-line front end.

positional arguments:
  command
    presets     list available preset models
    k           point budget k(A)
    kprime      corrected point budget k'(A)
    genus       adjunction genus of an embedded representative
    dim         moduli dimension at a given genus
    good        is the class good (no forced exceptional multi-covers)
    reduce      strip multiply covered exceptional spheres
    classify-neg
                classify a negative-square class
    cone        forward-cone membership
    lightcone   light-cone pairing check on two classes
    decomp      enumerate decompositions of a class
    gr          Gromov invariant via decompositions
    gr-tori     torus-list count at degree k
    gr-s        spherical invariant Gr_s(A)
    fibersum    fiber-class count of V(n) by the ledger
    verify      verify a configuration or an invariant table

options:
  -h, --help    show this help message and exit
""",
    ("k", "--help"): """\
usage: gromov4 k [-h] [--format {human,records}] --manifold MANIFOLD
                 [--class EXPR]

options:
  -h, --help            show this help message and exit
  --format {human,records}
  --manifold MANIFOLD   preset name or model file path
  --class EXPR          class expression over the basis symbols (repeatable)
""",
}


@pytest.mark.parametrize("argv", list(HELP), ids=" ".join)
def test_help_text_golden(capsys, monkeypatch, argv):
    # A call names its command first and gets that command's parser alone;
    # the help text is the one the full parser prints.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(list(argv)) == 0
    assert capsys.readouterr() == (HELP[argv], "")


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
