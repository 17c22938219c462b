"""Command-line behavior: golden output, exit codes, error records."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gromov4
from gromov4 import structure, torus_series
from gromov4.cli import run
from gromov4.lattice import _PRESET_MAX_N


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_presets_listing(capsys):
    code, out, err = invoke(capsys, "presets")
    assert code == 0 and err == ""
    assert out.splitlines() == ["cp2", "cp2_blowup(n)", "s2xs2", "s2xt2", "elliptic(n)"]
    code, out, _ = invoke(capsys, "presets", "--format", "records")
    assert out.splitlines()[0] == "preset=cp2"


def test_k_human_and_records(capsys):
    code, out, err = invoke(capsys, "k", "--manifold", "cp2", "--class", "3L")
    assert (code, err) == (0, "")
    assert out == "k(3L) = 9\n"
    code, out, _ = invoke(
        capsys, "k", "--manifold", "cp2", "--class", "3L", "--class", "2L", "--format", "records"
    )
    assert out == "k(3L)=9\nk(2L)=5\n"


def test_kprime_genus_dim_good(capsys):
    _, out, _ = invoke(capsys, "kprime", "--manifold", "cp2_blowup(1)", "--class", "L+2E1")
    assert out == "k'(L+2E1) = 2\n"
    _, out, _ = invoke(capsys, "genus", "--manifold", "cp2", "--class", "3L")
    assert out == "genus_embedded(3L) = 1\n"
    _, out, _ = invoke(capsys, "dim", "--manifold", "s2xt2", "--class", "B", "--genus", "1")
    assert out == "dim(B, g=1) = 2\n"
    _, out, _ = invoke(
        capsys,
        "good",
        "--manifold",
        "cp2_blowup(1)",
        "--class",
        "L+E1",
        "--class",
        "L+2E1",
        "--format",
        "records",
    )
    assert out == "good(L+E1)=true\ngood(L+2E1)=false\n"


def test_reduce_output(capsys):
    _, out, _ = invoke(capsys, "reduce", "--manifold", "cp2_blowup(1)", "--class", "L+2E1")
    assert out == "reduce(L+2E1) = L; strips: E1:2\n"
    _, out, _ = invoke(capsys, "reduce", "--manifold", "cp2_blowup(1)", "--class", "L+E1")
    assert out == "reduce(L+E1) = L+E1; strips: none\n"
    _, out, _ = invoke(
        capsys, "reduce", "--manifold", "cp2_blowup(1)", "--class", "L+2E1", "--format", "records"
    )
    assert out == "reduce(L+2E1).good=L\nreduce(L+2E1).strips=E1:2\n"


def test_reduce_reports_an_inconsistent_reduction(capsys, tmp_path):
    # L-E1-E2 meets E1 and E2, so stripping it from -3L leaves a class that
    # is not good: the warning is an output line, not a Python warning.
    doc = {
        "name": "entangled",
        "basis": ["L", "E1", "E2"],
        "gram": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        "K": [-3, 1, 1],
        "area": [3, 1, 1],
        "exceptional": ["E1", "E2", "L-E1-E2"],
        "minimal": False,
        "gr0_table": [],
        "torus_table": [],
        "sphere_table": [],
    }
    path = tmp_path / "entangled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ("reduce", "--manifold", str(path), "--class=-3L", "--class", "L+E1")
    assert invoke(capsys, *argv) == (
        0,
        "reduce(-3L) = -6L+3E1+3E2; strips: L-E1-E2:3\n"
        "  warning: inconsistent reduction; stored exceptional classes are not "
        "pairwise orthogonal\n"
        "reduce(L+E1) = L+E1; strips: none\n",
        "",
    )
    assert invoke(capsys, *argv, "--format", "records") == (
        0,
        "reduce(-3L).good=-6L+3E1+3E2\n"
        "reduce(-3L).strips=L-E1-E2:3\n"
        "reduce(-3L).warning=inconsistent-reduction\n"
        "reduce(L+E1).good=L+E1\n"
        "reduce(L+E1).strips=\n",
        "",
    )


def test_classify_negative_output(capsys):
    _, out, _ = invoke(capsys, "classify-neg", "--manifold", "cp2_blowup(1)", "--class", "E1")
    assert out == "classify_negative(E1) = ExceptionalSphere (g=0, c1=1, square=-1)\n"
    _, out, _ = invoke(
        capsys,
        "classify-neg",
        "--manifold",
        "cp2_blowup(1)",
        "--class",
        "E1",
        "--class",
        "L-2E1",
        "--format",
        "records",
    )
    assert out.splitlines() == [
        "classify(E1)=ExceptionalSphere",
        "classify(E1).witness=0,1,-1",
        "classify(L-2E1)=NotRepresentable",
    ]


def test_cone_and_lightcone(capsys):
    _, out, _ = invoke(capsys, "cone", "--manifold", "cp2", "--class", "L", "--strict")
    assert out == "in_forward_cone(L, strict=true) = true\n"
    _, out, _ = invoke(
        capsys, "lightcone", "--manifold", "s2xs2", "--class", "A1", "--class", "2A1",
        "--format", "records",
    )
    assert out.splitlines() == [
        "lightcone(A1,2A1)=pass",
        "lightcone(A1,2A1).nonnegative-product=pass",
        "lightcone(A1,2A1).zero-product-proportional-null=pass",
    ]
    _, out, _ = invoke(
        capsys, "lightcone", "--manifold", "s2xs2", "--class", "A1", "--class", "2A1"
    )
    assert out.splitlines() == [
        "lightcone(A1, 2A1): pass",
        "  nonnegative-product: pass",
        "  zero-product-proportional-null: pass",
    ]
    code, _, err = invoke(capsys, "lightcone", "--manifold", "s2xs2", "--class", "A1")
    assert code == 2 and "exactly two" in err


def test_decomp_and_gr(capsys):
    _, out, _ = invoke(capsys, "decomp", "--manifold", "s2xt2", "--class", "3B")
    assert out == "decompositions(3B) = 1\n  [1] {3B}\n"
    _, out, _ = invoke(
        capsys, "decomp", "--manifold", "s2xt2", "--class", "2B", "--format", "records"
    )
    assert out == "decomp(2B).count=1\ndecomp(2B).1=2B\n"
    _, out, _ = invoke(capsys, "gr", "--manifold", "cp2", "--class", "3L")
    assert out == "Gr(3L) = 1\n"
    _, out, _ = invoke(
        capsys, "gr", "--manifold", "s2xt2", "--class", "4B", "--candidates", "B",
        "--format", "records",
    )
    assert out == "gr(4B)=5\n"
    # --candidates is parsed before the classes, so its error is the one reported.
    code, out, err = invoke(
        capsys, "gr", "--manifold", "s2xt2", "--class=4Q", "--candidates", "Z"
    )
    assert (code, out) == (2, "")
    assert err == "error code=parse msg=unknown symbol 'Z' (basis of s2xt2: S, B)\n"


def test_decomp_answers_each_class_from_one_candidate_table(capsys, monkeypatch):
    built, table = [], structure._candidate_table

    def candidate_table(cands, cap):
        built.append(cands)
        return table(cands, cap)

    monkeypatch.setattr(structure, "_candidate_table", candidate_table)
    argv = ("decomp", "--manifold", "s2xt2", "--class", "3B", "--class", "S+B",
            "--class", "2B", "--candidates", "B,2B,S")
    assert invoke(capsys, *argv) == (
        0,
        "decompositions(3B) = 1\n  [1] {3B}\n"
        "decompositions(S+B) = 0\n"
        "decompositions(2B) = 1\n  [1] {2B}\n",
        "",
    )
    assert len(built) == 1  # one table for the three classes
    assert invoke(capsys, *argv, "--format", "records") == (
        0,
        "decomp(3B).count=1\ndecomp(3B).1=3B\n"
        "decomp(S+B).count=0\n"
        "decomp(2B).count=1\ndecomp(2B).1=2B\n",
        "",
    )
    # As for gr, --candidates is parsed before the classes.
    for classes in (("--class", "Q"), ()):
        argv = ("decomp", "--manifold", "s2xt2", *classes, "--candidates", "Z")
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error code=parse msg=unknown symbol 'Z' (basis of s2xt2: S, B)\n"


def test_gr_missing_table_entry_is_domain_error(capsys, bare_model_file):
    code, out, err = invoke(capsys, "gr", "--manifold", "s2xs2", "--class", "2A1")
    assert code == 1 and out == ""
    assert err == "error code=domain msg=unknown Gr0 value for class 2A1\n"
    # a square-positive part without a gr0_table entry
    code, out, err = invoke(capsys, "gr", "--manifold", "cp2", "--class", "4L", "--candidates", "4L")
    assert (code, out) == (1, "")
    assert err == "error code=domain msg=unknown Gr0 value for class 4L\n"
    # a file model with no tables: one record names every missing part
    argv = ("gr", "--manifold", str(bare_model_file), "--class", "P+Q", "--candidates", "P,Q,P+Q")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error code=domain msg=unknown Gr0 value for class Q, P, P+Q\n"


def test_gr_tori_forms(capsys):
    code, out, _ = invoke(capsys, "gr-tori", "--tori", "+0,+0", "--k", "5")
    assert (code, out) == (0, "6\n")
    code, out, _ = invoke(capsys, "gr-tori", "--tori=-0", "--k", "1")
    assert (code, out) == (0, "-1\n")
    _, out, _ = invoke(capsys, "gr-tori", "--tori", "+0:2,+1", "--k", "4", "--format", "records")
    assert out == "gr_tori=1\n"
    code, _, err = invoke(capsys, "gr-tori", "--tori", "+0")
    assert code == 2 and "needs --k" in err
    code, _, err = invoke(capsys, "gr-tori", "--tori", "+7", "--k", "1")
    assert code == 2 and err.startswith("error code=usage")


@pytest.mark.parametrize(
    "head, flag, value, out",
    [
        (("k", "--manifold", "cp2"), "--class", "-3L", "k(-3L) = 0\n"),
        (("gr", "--manifold", "s2xt2", "--class", "4B"), "--candidates", "-S+S+B", "Gr(4B) = 5\n"),
        (("gr-tori", "--k", "4"), "--tori", "-1:2", "1\n"),
    ],
    ids=["class", "candidates", "tori"],
)
def test_a_value_may_start_with_a_dash(capsys, head, flag, value, out):
    # Given apart or joined by "=", the flag reads the same value.
    assert invoke(capsys, *head, flag, value) == (0, out, "")
    assert invoke(capsys, *head, f"{flag}={value}") == (0, out, "")
    # A flag without its value is still a usage error, "-h" included.
    for rest in ((), ("--format", "records"), ("-h",)):
        error = f"error code=usage msg=argument {flag}: expected one argument\n"
        assert invoke(capsys, *head, flag, *rest) == (2, "", error)


def test_gr_s_output(capsys):
    _, out, _ = invoke(capsys, "gr-s", "--manifold", "cp2", "--class", "3L")
    assert out == "Gr_s(3L) = 12\n"


def test_fibersum_golden_records(capsys):
    code, out, _ = invoke(capsys, "fibersum", "--n", "3", "--format", "records")
    assert code == 0
    assert out.splitlines() == [
        "fibersum(3)=-1",
        "fibersum(3).trace.1=V1 minus a fiber neighborhood: fiber count 0",
        "fibersum(3).trace.2=fiber annulus N_minus_P: two boundary tori, fiber count -1",
        "fibersum(3).trace.3=glue the last two pieces: fiber count 0 + -1 = -1",
        "fibersum(3).trace.4=fiber annulus N_minus_P: two boundary tori, fiber count -1",
        "fibersum(3).trace.5=glue the last two pieces: fiber count -1 + -1 = -2",
        "fibersum(3).trace.6=D2xT2 cap: one boundary torus, fiber count 1",
        "fibersum(3).trace.7=glue the last two pieces: fiber count -2 + 1 = -1",
    ]
    _, out, _ = invoke(capsys, "fibersum", "--n", "1")
    assert out.splitlines()[0] == "Gr_fiber(V(1)) = 1"
    code, _, err = invoke(capsys, "fibersum", "--n", "0")
    assert code == 1 and err.startswith("error code=domain")


def test_verify_modes(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--manifold", "cp2_blowup(1)", "--mode", "good",
        "--class", "L:1:0", "--class", "E1:1:0", "--points", "2", "--format", "records",
    )
    assert code == 0
    assert out.splitlines()[-1] == "verify.result=pass"
    code, out, _ = invoke(
        capsys, "verify", "--manifold", "cp2_blowup(1)", "--mode", "kprime",
        "--class", "L", "--class", "E1:2", "--points", "2",
    )
    assert out.splitlines()[-1] == "result: pass"
    code, out, _ = invoke(capsys, "verify", "--mode", "kmin", "--n", "2", "--format", "records")
    assert code == 0 and out.splitlines()[-1] == "verify.result=pass"
    code, _, err = invoke(capsys, "verify", "--mode", "kmin")
    assert code == 2 and "--n" in err
    code, _, err = invoke(
        capsys, "verify", "--manifold", "cp2", "--mode", "good", "--class", "L"
    )
    assert code == 2 and "--points" in err
    for mode in ("good", "kprime"):
        code, out, err = invoke(
            capsys, "verify", "--mode", mode, "--class", "L", "--points", "0"
        )
        assert (code, out) == (2, "")
        assert err == f"error code=usage msg=verify --mode {mode} needs --manifold\n"


def test_verify_reports_failures_with_witnesses(capsys):
    argv = (
        "verify", "--manifold", "cp2_blowup(1)", "--mode", "kprime",
        "--class", "L-E1", "--class", "E1:3",
    )
    code, out, err = invoke(capsys, *argv, "--format", "records")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "verify.disjoint=fail",
        "verify.disjoint.witness=(L-E1,E1,1)",
        "verify.strip-multiplicity=fail",
        "verify.strip-multiplicity.witness=(E1,3,2)",
        "verify.good-part=pass",
        "verify.kprime-equality=fail",
        "verify.kprime-equality.witness=L+2E1|L-E1",
        "verify.result=fail",
    ]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "  disjoint: fail  (components must have pairwise zero intersection) witness (L-E1,E1,1)",
        "  strip-multiplicity: fail  (each stripped exceptional cover must equal m_E(total))"
        " witness (E1,3,2)",
        "  good-part: pass",
        "  kprime-equality: fail  (k'(total) = 2, k(B) = 1) witness L+2E1, L-E1",
        "result: fail",
    ]


def test_verify_human_failure_shows_detail_and_witness(capsys):
    code, out, err = invoke(
        capsys, "verify", "--manifold", "cp2_blowup(1)", "--mode", "good",
        "--class", "L:1:0", "--class", "E1:1:0", "--points", "3",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "  points: fail  (points=3, k(total)=2) witness L+E1"
    assert lines[-1] == "result: fail"


def test_parse_error_exit_code(capsys):
    code, out, err = invoke(capsys, "k", "--manifold", "cp2", "--class", "3Q")
    assert (code, out) == (2, "")
    assert err == "error code=parse msg=unknown symbol 'Q' (basis of cp2: L)\n"
    # A '*' is a term only after a coefficient.
    code, out, err = invoke(capsys, "k", "--manifold", "cp2", "--class", "*L")
    assert (code, out, err) == (2, "", "error code=parse msg=malformed term at '*L' in '*L'\n")
    code, out, err = invoke(capsys, "kprime", "--manifold", "cp2_blowup(2)", "--class", "L+*E1")
    assert (code, out, err) == (2, "", "error code=parse msg=malformed term at '+*E1' in 'L+*E1'\n")
    # A coefficient is ASCII digits only; "\u0663" is ARABIC-INDIC DIGIT THREE.
    code, out, err = invoke(capsys, "k", "--manifold", "cp2", "--class", "\u0663L")
    assert (code, out, err) == (2, "", "error code=parse msg=malformed term at '\u0663L' in '\u0663L'\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("k", "--manifold", "no/such/model.json", "--class", "L"),
         "manifold 'no/such/model.json' is neither a preset nor a file"),
        (("k", "--manifold", "cp2"), "at least one --class is required"),
        (("gr-tori", "--tori", "+0:x", "--k", "1"), "bad cover multiplicity in torus token '+0:x'"),
        (("gr-tori", "--tori", " , ", "--k", "1"), "--tori needs at least one label"),
        (("gr", "--manifold", "cp2", "--class", "3L", "--candidates", ","),
         "--candidates needs at least one class"),
        (("verify", "--manifold", "cp2", "--points", "1"),
         "verify needs at least one --class component (expr[:mult[:genus]])"),
        (("verify", "--manifold", "cp2", "--class", "L:1:0:0", "--points", "1"),
         "component 'L:1:0:0' must be expr[:mult[:genus]]"),
        (("verify", "--manifold", "cp2", "--class", "L:x", "--points", "1"),
         "bad integers in component 'L:x'"),
        # Integers are ASCII digits with an optional sign: no other Unicode
        # digit ("\u0661" is ARABIC-INDIC DIGIT ONE), no "_", no spaces.
        (("gr-tori", "--tori", "+0:\u0661", "--k", "3"),
         "bad cover multiplicity in torus token '+0:\u0661'"),
        (("gr-tori", "--tori", "+0:1_0", "--k", "12"), "bad cover multiplicity in torus token '+0:1_0'"),
        (("gr-tori", "--tori", "+0: 2", "--k", "12"), "bad cover multiplicity in torus token '+0: 2'"),
        (("gr-tori", "--tori", "+0", "--k", "\u0663"), "argument --k: invalid integer value: '\u0663'"),
        (("gr-tori", "--tori", "+0", "--k", "1_2"), "argument --k: invalid integer value: '1_2'"),
        (("gr-tori", "--tori", "+0", "--k", " 4"), "argument --k: invalid integer value: ' 4'"),
        (("dim", "--manifold", "cp2", "--class", "L", "--genus", "\u0662"),
         "argument --genus: invalid integer value: '\u0662'"),
        (("fibersum", "--n", "\u0663"), "argument --n: invalid integer value: '\u0663'"),
        (("verify", "--mode", "kmin", "--n", "1_0"), "argument --n: invalid integer value: '1_0'"),
        (("verify", "--manifold", "cp2_blowup(1)", "--mode", "kprime", "--class", "E1:\u0662"),
         "bad integers in component 'E1:\u0662'"),
        (("verify", "--manifold", "cp2", "--class", "L:1:0_0", "--points", "1"),
         "bad integers in component 'L:1:0_0'"),
        (("verify", "--manifold", "cp2", "--class", "L", "--points", "\u0662"),
         "argument --points: invalid integer value: '\u0662'"),
        # An empty --candidates is no class, not the default set.
        (("decomp", "--manifold", "s2xt2", "--class", "2B", "--candidates="),
         "--candidates needs at least one class"),
    ],
)
def test_usage_error_records(capsys, argv, message):
    assert invoke(capsys, *argv) == (2, "", f"error code=usage msg={message}\n")


@pytest.mark.parametrize("argv", [("--help",), ("gr", "-h")])
def test_help_exits_zero(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: gromov4")


def test_unknown_preset_and_command(capsys):
    code, _, err = invoke(capsys, "k", "--manifold", "nosuch", "--class", "L")
    assert code == 2 and err.startswith("error code=usage msg=unknown preset")
    over = _PRESET_MAX_N + 1
    code, out, err = invoke(capsys, "k", "--manifold", f"cp2_blowup({over})", "--class", "L")
    assert (code, out) == (2, "")
    assert err == (
        f"error code=usage msg=preset 'cp2_blowup' takes n <= {_PRESET_MAX_N}, got {over}\n"
    )
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 2 and err.startswith("error code=usage")
    code, _, err = invoke(capsys)
    assert code == 2


def test_huge_parameters_are_structured_errors(capsys):
    digits = "9" * 5000
    code, out, err = invoke(capsys, "k", "--manifold", f"cp2_blowup({digits})", "--class", "L")
    assert (code, out) == (2, "")
    assert err == (
        f"error code=usage msg=preset 'cp2_blowup' takes n <= {_PRESET_MAX_N}, "
        "got more than 9 digits\n"
    )
    over = torus_series._ORDER_MAX + 1
    limit_error = f"error code=domain msg=degree past the series-order limit {over - 1}\n"
    code, out, err = invoke(capsys, "gr-tori", "--tori=+0", "--k", str(over))
    assert (code, out, err) == (1, "", limit_error)
    code, out, err = invoke(
        capsys, "gr", "--manifold", "s2xt2", "--class", f"{over}B", "--candidates", "B"
    )
    assert (code, out, err) == (1, "", limit_error)


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "classify-neg", "--manifold", "cp2", "--class", "L")
    assert code == 1
    assert err.startswith("error code=domain msg=")


def test_model_file_manifold(capsys, tmp_path):
    doc = {
        "name": "ruled_double",
        "basis": ["S", "B"],
        "gram": [[0, 1], [1, 0]],
        "K": [0, -2],
        "area": [1, 1],
        "exceptional": [],
        "minimal": True,
        "gr0_table": [],
        "torus_table": [{"class": "B", "label": "+0", "cover": 1},
                         {"class": "B", "label": "+0", "cover": 1}],
        "sphere_table": [{"class": "S", "count": 2}],
    }
    path = tmp_path / "ruled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "k", "--manifold", str(path), "--class", "S+B")
    assert (code, out) == (0, "k(S+B) = 2\n")
    code, out, _ = invoke(
        capsys, "gr-s", "--manifold", str(path), "--class", "2S", "--format", "records"
    )
    assert code == 0
    assert out.splitlines() == ["gr_s(2S)=4", "gr_s(2S).warning=ambiguous-assignment"]
    code, out, _ = invoke(capsys, "gr-s", "--manifold", str(path), "--class", "2S")
    assert (code, out) == (
        0, "Gr_s(2S) = 4\n  warning: ambiguous point assignment among repeated components\n"
    )
    doc["gram"] = [[0, 1], [1, 1]]
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = invoke(capsys, "k", "--manifold", str(path), "--class", "S")
    assert code == 2 and err.startswith("error code=model msg=$.K")


def test_records_are_deterministic(capsys):
    args = ("decomp", "--manifold", "s2xt2", "--class", "5B", "--format", "records")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_module_and_script_entry_points(tmp_path):
    # Both subprocesses import the gromov4 this process imported, whatever the
    # working directory and whether or not an older copy is installed.
    env = dict(os.environ)
    src_dir = str(Path(gromov4.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gromov4", "k", "--manifold", "cp2", "--class", "3L"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "k(3L) = 9\n"

    # The console script exists on PATH only after an install, so build the
    # same wrapper pip generates from the declared [project.scripts] entry.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["gromov4"]
    module, attr = entry.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    shim = tmp_path / "gromov4"
    shim.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    shim.chmod(0o755)
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    script = subprocess.run(
        ["gromov4", "gr-tori", "--tori", "+0,+0", "--k", "5"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert script.returncode == 0
    assert script.stdout == "6\n"
