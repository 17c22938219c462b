"""Start-up: what a fresh process runs, and the public namespace it sees.

Six modules are registered at import and run on first attribute access.
The rest of the suite imports everything up front, so each test here runs
its checks in a fresh interpreter, where a cold-path mistake shows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
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
